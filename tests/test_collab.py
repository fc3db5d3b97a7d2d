import hashlib
import json
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from netanom import collab
from netanom.collab import (
    TRANSPORTS,
    CaptureMessage,
    SharedStore,
    SimulationConfig,
    SimulationError,
    replay,
    run_simulation,
    simconfig_from_doc,
    simconfig_to_doc,
)
from netanom.decision import DetectionConfig, classify_scores
from netanom.evaluation import ConfusionCounts, confusion


@pytest.fixture(scope="module")
def sim_records(split):
    _, test = split
    return test[:600]


def _cfg(**kwargs):
    defaults = dict(nodes=("A", "B", "C"), assignment="round-robin", interval_size=50, w=2.0)
    defaults.update(kwargs)
    return SimulationConfig(**defaults)


class TestReplay:
    def test_round_robin_seqs(self, sim_records, schema):
        store = replay(sim_records[:9], _cfg(), schema)
        for node in ("A", "B", "C"):
            assert [m.seq for m in store.partition(node)] == [1, 2, 3]

    def test_interval_batching(self, sim_records, schema):
        store = replay(sim_records[:9], _cfg(interval_size=2), schema)
        assert [m.interval_id for m in store.partition("A")] == [1, 1, 2]

    def test_deterministic(self, sim_records, schema):
        a = replay(sim_records, _cfg(), schema)
        b = replay(sim_records, _cfg(), schema)
        for node in ("A", "B", "C"):
            assert a.partition(node) == b.partition(node)

    def test_every_record_exactly_once(self, sim_records, schema):
        store = replay(sim_records, _cfg(assignment="hash-of-source"), schema)
        spread = [len(store.partition(n)) for n in ("A", "B", "C")]
        assert sum(spread) == len(sim_records)
        origins = Counter(
            m.origin for n in ("A", "B", "C") for m in store.partition(n)
        )
        assert all(count == 1 for count in origins.values())
        assert min(spread) > 0  # hash should spread across all three

    def test_hash_of_source_matches_per_record_hash(self, sim_records, schema):
        cfg = _cfg(assignment="hash-of-source")
        idx = schema.index_of("srcip")
        expected = []
        for rec in sim_records:
            h = hashlib.sha256(rec.values[idx].encode("utf-8")).digest()
            expected.append(cfg.nodes[int.from_bytes(h[:8], "big") % len(cfg.nodes)])
        assert collab._assign_nodes(sim_records, cfg, schema) == expected

    def test_hash_of_source_groups_sources(self, sim_records, schema):
        store = replay(sim_records, _cfg(assignment="hash-of-source"), schema)
        idx = schema.index_of("srcip")
        source_to_node = {}
        for node in ("A", "B", "C"):
            for m in store.partition(node):
                src = m.values[idx]
                assert source_to_node.setdefault(src, node) == node

    def test_explicit_assignment(self, sim_records, schema):
        names = ["A", "A", "B"]
        store = replay(sim_records[:3], _cfg(explicit_assignment=tuple(names), assignment="explicit"), schema)
        assert len(store.partition("A")) == 2
        assert len(store.partition("B")) == 1
        assert len(store.partition("C")) == 0

    def test_explicit_unknown_node_rejected(self, sim_records, schema):
        with pytest.raises(SimulationError, match="unknown node"):
            replay(
                sim_records[:2],
                _cfg(explicit_assignment=("A", "Z"), assignment="explicit"),
                schema,
            )

    def test_explicit_length_mismatch(self, sim_records, schema):
        with pytest.raises(SimulationError, match="entries"):
            replay(sim_records[:3], _cfg(explicit_assignment=("A",), assignment="explicit"), schema)

    def test_empty_records_rejected(self, schema):
        with pytest.raises(SimulationError):
            replay([], _cfg(), schema)


class TestSharedStore:
    def _msg(self, node, seq):
        return CaptureMessage(node, seq, 1, ("x",), 0, ("f", seq))

    def test_seq_must_increase(self):
        store = SharedStore()
        store.append(self._msg("A", 1))
        store.append(self._msg("A", 2))
        with pytest.raises(SimulationError, match="seq"):
            store.append(self._msg("A", 2))

    def test_streams_are_independent(self):
        store = SharedStore()
        store.append(self._msg("A", 1))
        store.append(self._msg("B", 1))
        assert len(store) == 2

    def test_partition_read_and_audit_replay(self, sim_records, schema):
        store = replay(sim_records[:30], _cfg(), schema)
        first_pass = store.partition("A")
        # the whole stream, in order: round-robin gives A every third record
        assert [m.origin for m in first_pass] == [r.origin for r in sim_records[:30:3]]
        assert [m.seq for m in first_pass] == list(range(1, 11))
        second_pass = store.partition("A")  # reading leaves no state behind
        assert second_pass == first_pass

    @pytest.mark.parametrize(
        "max_frame, splits", [(collab._MAX_FRAME, False), (1200, True)], ids=["one-frame", "split"]
    )
    def test_interval_frame_roundtrip(self, sim_records, schema, monkeypatch, max_frame, splits):
        monkeypatch.setattr(collab, "_MAX_FRAME", max_frame)
        messages = replay(sim_records[:40], _cfg(nodes=("A",), interval_size=16), schema).partition("A")
        runs = list(collab._intervals(messages))
        assert [len(run) for run in runs] == [16, 16, 8]
        for run in runs:
            decoded = []
            frames = list(collab._interval_frames(run))
            for data in frames:
                assert int.from_bytes(data[:4], "big") == len(data) - 4 <= max_frame
                frame = json.loads(data[4:])
                assert frame["type"] == "interval"
                assert frame["interval_id"] == run[0].interval_id
                records = collab._frame_records(frame)
                seqs = range(frame["first_seq"], frame["first_seq"] + len(records))
                decoded.extend(zip(seqs, records))
            assert (len(frames) > 1) == splits
            assert [seq for seq, _ in decoded] == [m.seq for m in run]
            assert [r.values for _, r in decoded] == [m.values for m in run]
            assert [r.truth for _, r in decoded] == [m.truth for m in run]
            assert [r.origin for _, r in decoded] == [m.origin for m in run]
            assert [r for _, r in decoded] == [m.record() for m in run]

    def test_interval_runs_break_at_seq_gaps(self):
        store = SharedStore()
        for seq in (1, 2, 4, 5):
            store.append(self._msg("A", seq))
        runs = list(collab._intervals(store.partition("A")))
        assert [[m.seq for m in run] for run in runs] == [[1, 2], [4, 5]]


class TestConfig:
    def test_doc_roundtrip(self):
        cfg = _cfg(transport="loopback-socket", fail_nodes=("B",), node_w={"A": 2.5})
        assert simconfig_from_doc(simconfig_to_doc(cfg)) == cfg

    def test_validation(self):
        with pytest.raises(SimulationError):
            SimulationConfig(nodes=())
        with pytest.raises(SimulationError):
            SimulationConfig(nodes=("A", "A"))
        with pytest.raises(SimulationError):
            _cfg(assignment="magic")
        with pytest.raises(SimulationError):
            _cfg(interval_size=0)
        with pytest.raises(SimulationError):
            _cfg(fail_nodes=("Z",))
        with pytest.raises(SimulationError):
            _cfg(transport="carrier-pigeon")

    def test_w_range_checked_unless_overridden(self):
        with pytest.raises(Exception):
            _cfg(w=9.0)
        assert _cfg(w=9.0, allow_any_w=True).w == 9.0


class TestRunSimulation:
    def test_single_node_equals_plain_evaluation(self, sim_records, schema, fitted):
        pp, profile = fitted
        cfg = _cfg(nodes=("solo",))
        store = replay(sim_records, cfg, schema)
        outcome = run_simulation(store, profile, pp, cfg)

        scores = profile.score_matrix(pp.apply_records(sim_records))
        flagged = classify_scores(scores, profile, DetectionConfig(2.0))
        plain = confusion(flagged.astype(int), [r.truth for r in sim_records])
        assert outcome.aggregate_counts == plain
        assert outcome.per_node_reports["solo"].counts == plain
        assert not outcome.partial

    def test_aggregate_is_sum_of_nodes(self, sim_records, schema, fitted):
        pp, profile = fitted
        cfg = _cfg()
        store = replay(sim_records, cfg, schema)
        outcome = run_simulation(store, profile, pp, cfg)
        total = ConfusionCounts(0, 0, 0, 0)
        for node in cfg.nodes:
            total = total + outcome.node_results[node].counts
        assert outcome.aggregate_counts == total

    def test_partition_invariance(self, sim_records, schema, fitted):
        pp, profile = fitted
        one = run_simulation(
            replay(sim_records, _cfg(nodes=("solo",)), schema), profile, pp, _cfg(nodes=("solo",))
        )
        three_cfg = _cfg(assignment="hash-of-source")
        three = run_simulation(replay(sim_records, three_cfg, schema), profile, pp, three_cfg)
        assert three.aggregate_counts == one.aggregate_counts
        # the multiset of (record origin, verdict) pairs is topology-independent
        def verdict_multiset(outcome, store_cfg):
            store = replay(sim_records, store_cfg, schema)
            pairs = []
            for node in store_cfg.nodes:
                msgs = store.partition(node)
                verdicts = outcome.node_results[node].verdicts
                pairs.extend((m.origin, v) for m, v in zip(msgs, verdicts))
            return Counter(pairs)

        assert verdict_multiset(three, three_cfg) == verdict_multiset(one, _cfg(nodes=("solo",)))

    def test_loopback_agrees_with_in_process(self, sim_records, schema, fitted):
        pp, profile = fitted
        inproc_cfg = _cfg(transport="in-process")
        sock_cfg = _cfg(transport="loopback-socket")
        a = run_simulation(replay(sim_records, inproc_cfg, schema), profile, pp, inproc_cfg)
        b = run_simulation(replay(sim_records, sock_cfg, schema), profile, pp, sock_cfg)
        assert a.aggregate_counts == b.aggregate_counts
        assert a.per_node_reports == b.per_node_reports
        for node in inproc_cfg.nodes:
            assert a.node_results[node].verdicts == b.node_results[node].verdicts

    def test_post_run_store_audit(self, sim_records, schema, fitted):
        pp, profile = fitted
        for transport in TRANSPORTS:
            cfg = _cfg(transport=transport)
            store = replay(sim_records, cfg, schema)
            before = {n: store.partition(n) for n in cfg.nodes}
            run_simulation(store, profile, pp, cfg)
            for node in cfg.nodes:
                assert store.partition(node) == before[node]  # nothing mutated or lost
            assert len(store) == len(sim_records)

    def test_injected_failure_excludes_partition(self, sim_records, schema, fitted):
        pp, profile = fitted
        cfg = _cfg(fail_nodes=("B",), retry_budget=1)
        store = replay(sim_records, cfg, schema)
        outcome = run_simulation(store, profile, pp, cfg)
        assert outcome.failed_nodes == ("B",)
        assert outcome.partial
        assert outcome.node_results["B"].failed
        assert outcome.node_results["B"].attempts == 2  # initial + 1 retry
        assert "B" not in outcome.per_node_reports
        expected = outcome.node_results["A"].counts + outcome.node_results["C"].counts
        assert outcome.aggregate_counts == expected
        # the crash leaves the healthy nodes' results untouched
        intact = run_simulation(replay(sim_records, _cfg(), schema), profile, pp, _cfg())
        for node in ("A", "C"):
            assert outcome.node_results[node].counts == intact.node_results[node].counts
            assert outcome.node_results[node].verdicts == intact.node_results[node].verdicts

    def test_failure_over_loopback(self, sim_records, schema, fitted):
        pp, profile = fitted
        cfg = _cfg(transport="loopback-socket", fail_nodes=("C",), retry_budget=0)
        store = replay(sim_records, cfg, schema)
        outcome = run_simulation(store, profile, pp, cfg)
        assert outcome.failed_nodes == ("C",)
        healthy = run_simulation(
            replay(sim_records, _cfg(fail_nodes=("C",)), schema), profile, pp, _cfg(fail_nodes=("C",))
        )
        assert outcome.aggregate_counts == healthy.aggregate_counts

    def test_retry_recovers_in_process(self, sim_records, schema, fitted, monkeypatch):
        pp, profile = fitted
        real = collab._classify_intervals
        crashed = []
        cfg = _cfg()
        first_of_b = replay(sim_records, cfg, schema).partition("B")[0].origin

        def flaky(batches, *args):
            batches = list(batches)
            if batches[0][0].origin == first_of_b and not crashed:
                crashed.append(True)
                raise OSError("transient failure")
            return real(batches, *args)

        monkeypatch.setattr(collab, "_classify_intervals", flaky)
        outcome = run_simulation(replay(sim_records, cfg, schema), profile, pp, cfg)
        monkeypatch.undo()
        clean = run_simulation(replay(sim_records, cfg, schema), profile, pp, cfg)
        assert crashed
        assert not outcome.partial and outcome.failed_nodes == ()
        assert outcome.node_results["B"].attempts == 2
        assert not outcome.node_results["B"].failed
        assert outcome.node_results["B"].error is None
        assert [outcome.node_results[n].attempts for n in ("A", "C")] == [1, 1]
        assert outcome.aggregate_counts == clean.aggregate_counts
        assert outcome.per_node_reports == clean.per_node_reports

    def test_retry_recovers_over_loopback(self, sim_records, schema, fitted, monkeypatch):
        pp, profile = fitted
        real = collab.socket.create_connection
        crashed = []

        def flaky(*args, **kwargs):
            if not crashed:
                crashed.append(True)
                raise OSError("connection refused")
            return real(*args, **kwargs)

        monkeypatch.setattr(collab.socket, "create_connection", flaky)
        cfg = _cfg(transport="loopback-socket")
        outcome = run_simulation(replay(sim_records, cfg, schema), profile, pp, cfg)
        monkeypatch.undo()
        clean = run_simulation(replay(sim_records, cfg, schema), profile, pp, cfg)
        assert crashed
        assert not outcome.partial and outcome.failed_nodes == ()
        # the first connection, whichever node opened it, is the one that failed
        attempts = sorted(r.attempts for r in outcome.node_results.values())
        assert attempts == [1, 1, 2]
        assert not any(r.failed or r.error for r in outcome.node_results.values())
        assert outcome.aggregate_counts == clean.aggregate_counts
        assert outcome.per_node_reports == clean.per_node_reports

    def test_store_service_error_recorded_and_retried(self, sim_records, schema, fitted, monkeypatch):
        pp, profile = fitted
        real = collab._Channel.send
        sent_bad = []

        def flaky(channel, obj):
            if obj.get("type") == "hello" and obj["node"] == "B" and not sent_bad:
                sent_bad.append(True)
                obj = {**obj, "type": "capture"}
            real(channel, obj)

        monkeypatch.setattr(collab._Channel, "send", flaky)
        cfg = _cfg(transport="loopback-socket")
        outcome = run_simulation(replay(sim_records, cfg, schema), profile, pp, cfg)
        monkeypatch.undo()
        clean = run_simulation(replay(sim_records, cfg, schema), profile, pp, cfg)
        assert sent_bad
        b = outcome.node_results["B"]
        assert not b.failed and b.attempts == 2
        assert b.error == "TransportError: expected hello frame, got 'capture'"
        assert [outcome.node_results[n].attempts for n in ("A", "C")] == [1, 1]
        assert outcome.node_results["A"].error is None
        assert outcome.aggregate_counts == clean.aggregate_counts
        assert outcome.per_node_reports == clean.per_node_reports

    @pytest.mark.parametrize("always", [False, True])
    def test_truncated_stream_retried(self, sim_records, schema, fitted, monkeypatch, always):
        pp, profile = fitted
        real = collab._interval_frames
        dropped = []

        def truncating(run):
            if run[0].node == "B" and (always or not dropped):
                dropped.append(True)
                return iter(())
            return real(run)

        monkeypatch.setattr(collab, "_interval_frames", truncating)
        cfg = _cfg(transport="loopback-socket", retry_budget=1)
        outcome = run_simulation(replay(sim_records, cfg, schema), profile, pp, cfg)
        monkeypatch.undo()
        b = outcome.node_results["B"]
        assert b.attempts == 2
        if always:
            assert b.failed and outcome.failed_nodes == ("B",)
            assert b.error.startswith("TransportError: end frame counts 200 records, ")
            return
        clean = run_simulation(replay(sim_records, cfg, schema), profile, pp, cfg)
        assert not b.failed and not outcome.partial
        assert outcome.aggregate_counts == clean.aggregate_counts
        assert b.verdicts == clean.node_results["B"].verdicts

    def test_all_failed_rejected(self, sim_records, schema, fitted):
        pp, profile = fitted
        cfg = _cfg(fail_nodes=("A", "B", "C"), retry_budget=0)
        store = replay(sim_records, cfg, schema)
        with pytest.raises(SimulationError, match="no healthy node"):
            run_simulation(store, profile, pp, cfg)

    def test_digest_mismatch_rejected(self, sim_records, schema, fitted, split):
        from netanom.preprocess import fit_preprocess

        _, profile = fitted
        train, _ = split
        other_pp = fit_preprocess(train, schema, "pca:3")
        cfg = _cfg()
        store = replay(sim_records, cfg, schema)
        with pytest.raises(Exception, match="digest|bound"):
            run_simulation(store, profile, other_pp, cfg)

    def test_unlabeled_records_rejected(self, schema, fitted):
        from netanom.ingest import FlowRecord

        pp, profile = fitted
        width = schema.width
        rec = FlowRecord(tuple(["0"] * width), None, ("f", 1))
        cfg = _cfg(nodes=("solo",))
        store = replay([rec], cfg, schema)
        with pytest.raises(SimulationError, match="truth"):
            run_simulation(store, profile, pp, cfg)

    def test_per_node_w_overrides(self, sim_records, schema, fitted):
        pp, profile = fitted
        cfg = _cfg(node_w={"A": 3.0})
        store = replay(sim_records, cfg, schema)
        outcome = run_simulation(store, profile, pp, cfg)
        assert outcome.per_node_reports["A"].w == 3.0
        assert outcome.per_node_reports["B"].w == 2.0
        assert outcome.aggregate_report.w is None  # mixed w across nodes


class TestRunnerProperty:
    @settings(max_examples=10)
    @given(data=st.data())
    def test_transports_agree_on_random_topologies(self, data, sim_records, schema, fitted):
        pp, profile = fitted
        records = sim_records[:120]
        n_nodes = data.draw(st.integers(1, 4), label="nodes")
        nodes = tuple("ABCD"[:n_nodes])
        explicit = data.draw(
            st.lists(st.sampled_from(nodes), min_size=len(records), max_size=len(records)),
            label="explicit",
        )
        interval = data.draw(st.integers(1, 64), label="interval_size")
        # 600 bytes holds one record, so intervals split across frames
        max_frame = data.draw(st.integers(600, 30_000), label="max_frame")
        outcomes = {}
        for transport in TRANSPORTS:
            cfg = _cfg(
                nodes=nodes,
                assignment="explicit",
                explicit_assignment=tuple(explicit),
                interval_size=interval,
                transport=transport,
            )
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(collab, "_MAX_FRAME", max_frame)
                outcomes[transport] = run_simulation(replay(records, cfg, schema), profile, pp, cfg)
        a, b = outcomes["in-process"], outcomes["loopback-socket"]
        for node in nodes:
            assert a.node_results[node].verdicts == b.node_results[node].verdicts
            assert a.node_results[node].counts == b.node_results[node].counts
        assert a.per_node_reports == b.per_node_reports
        assert a.aggregate_report == b.aggregate_report
        assert not b.failed_nodes

        flagged = classify_scores(profile.score_matrix(pp.apply_records(records)), profile, DetectionConfig(2.0))
        assert a.aggregate_counts == confusion(flagged.astype(int), [r.truth for r in records])
