import csv
import json
from pathlib import Path

import pytest

from netanom.cli import main
from netanom.evaluation import confusion


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Synthetic data + a trained profile shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    assert main([
        "synth", "--rows", "2500", "--seed", "5", "--attack-frac", "0.4",
        "--out", str(root / "data.csv"), "--schema-out", str(root / "schema.json"),
    ]) == 0
    assert main([
        "sample", "--input", str(root / "data.csv"), "--schema", str(root / "schema.json"),
        "--size", "2000", "--normal-frac", "0.6", "--train-frac", "0.6",
        "--seed", "1", "--out", str(root / "split"),
    ]) == 0
    assert main([
        "train", "--train", str(root / "split" / "train_normal.csv"),
        "--schema", str(root / "schema.json"), "--features", "table1",
        "--components", "4", "--seed", "0", "--out", str(root / "profile.json"),
    ]) == 0
    return root


def _write_unlabeled(workspace, path, schema):
    """The first 10 test records with their label column blanked."""
    from netanom.ingest import FlowRecord, parse_flow_csv, write_flow_csv

    records = parse_flow_csv(workspace / "split" / "test.csv", schema)[:10]
    stripped = []
    for r in records:
        vals = list(r.values)
        vals[schema.label_index] = ""
        stripped.append(FlowRecord(tuple(vals), None, r.origin))
    write_flow_csv(stripped, schema, path)
    return path


def _read_verdicts(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestSample:
    def test_outputs_and_counts(self, workspace, schema):
        from netanom.ingest import parse_flow_csv

        train = parse_flow_csv(workspace / "split" / "train_normal.csv", schema)
        test = parse_flow_csv(workspace / "split" / "test.csv", schema)
        n_normal = round(2000 * 0.6)
        assert all(r.truth == 0 for r in train)
        assert len(train) == round(n_normal * 0.6)
        assert len(train) + sum(1 for r in test if r.truth == 0) == n_normal
        assert sum(1 for r in test if r.truth == 1) == 2000 - n_normal

    def test_zero_size_is_usage_error(self, workspace):
        with pytest.raises(SystemExit) as err:
            main([
                "sample", "--input", str(workspace / "data.csv"),
                "--size", "0", "--out", str(workspace / "nope"),
            ])
        assert err.value.code == 2

    def test_rerun_reproduces_digests(self, workspace, tmp_path):
        args = [
            "sample", "--input", str(workspace / "data.csv"),
            "--schema", str(workspace / "schema.json"),
            "--size", "1500", "--normal-frac", "0.6", "--train-frac", "0.5", "--seed", "9",
        ]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        for name in ("train_normal.csv", "test.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        ma = json.loads((tmp_path / "a" / "manifest.json").read_text())
        mb = json.loads((tmp_path / "b" / "manifest.json").read_text())
        assert set(ma["output_digests"].values()) == set(mb["output_digests"].values())

    def test_missing_input_fails(self, workspace, tmp_path):
        assert main([
            "sample", "--input", str(tmp_path / "ghost.csv"),
            "--size", "10", "--out", str(tmp_path / "out"),
        ]) == 1


class TestTrain:
    def test_artifacts_written(self, workspace):
        assert (workspace / "profile.json").exists()
        assert (workspace / "profile.preprocess.json").exists()
        assert (workspace / "profile.manifest.json").exists()
        doc = json.loads((workspace / "profile.json").read_text())
        assert doc["K"] == 4 and doc["d"] == 10
        assert doc["preprocess_digest"]

    def test_auto_components_match_dimension(self, workspace, tmp_path):
        out = tmp_path / "auto.json"
        assert main([
            "train", "--train", str(workspace / "split" / "train_normal.csv"),
            "--schema", str(workspace / "schema.json"),
            "--components", "auto", "--seed", "0", "--out", str(out),
        ]) == 0
        doc = json.loads(out.read_text())
        assert doc["K"] == doc["d"] == 10

    def test_attack_row_rejected_no_profile(self, workspace, tmp_path, schema):
        from netanom.ingest import parse_flow_csv, write_flow_csv

        records = parse_flow_csv(workspace / "split" / "test.csv", schema)
        dirty = tmp_path / "dirty.csv"
        write_flow_csv(records[:50], schema, dirty)
        attack_rows = [i + 1 for i, r in enumerate(records[:50]) if r.truth == 1]
        assert attack_rows, "fixture needs at least one attack row"
        out = tmp_path / "never.json"
        assert main([
            "train", "--train", str(dirty), "--schema", str(workspace / "schema.json"),
            "--out", str(out),
        ]) == 1
        assert not out.exists()

    def test_deterministic_profile_bytes(self, workspace, tmp_path):
        args = [
            "train", "--train", str(workspace / "split" / "train_normal.csv"),
            "--schema", str(workspace / "schema.json"), "--components", "3", "--seed", "4",
        ]
        assert main(args + ["--out", str(tmp_path / "p1.json")]) == 0
        assert main(args + ["--out", str(tmp_path / "p2.json")]) == 0
        assert (tmp_path / "p1.json").read_bytes() == (tmp_path / "p2.json").read_bytes()

    def test_path_with_comma_is_a_file(self, workspace, tmp_path):
        folder = tmp_path / "a,b"
        folder.mkdir()
        train = folder / "t.csv"
        train.write_bytes((workspace / "split" / "train_normal.csv").read_bytes())
        out = tmp_path / "comma.json"
        assert main([
            "train", "--train", str(train), "--schema", str(workspace / "schema.json"),
            "--components", "2", "--out", str(out),
        ]) == 0
        assert json.loads(out.read_text())["K"] == 2

    @pytest.mark.parametrize(
        "fit_args, converged",
        [(["--components", "1"], True), (["--components", "3", "--max-iter", "2", "--tol", "1e-300"], False)],
        ids=["converged", "unconverged"],
    )
    def test_unconverged_fit_warns_once(self, workspace, tmp_path, capsys, fit_args, converged):
        out = tmp_path / "fit.json"
        assert main([
            "train", "--train", str(workspace / "split" / "train_normal.csv"),
            "--schema", str(workspace / "schema.json"), *fit_args, "--out", str(out),
        ]) == 0
        assert out.exists()
        warnings = [line for line in capsys.readouterr().err.splitlines() if line]
        assert len(warnings) == (0 if converged else 1)
        assert all(w.startswith("warning: EM did not converge in 2 iterations") for w in warnings)
        assert json.loads((tmp_path / "fit.manifest.json").read_text())["em"]["converged"] is converged

    def test_bad_components_usage_error(self, workspace, tmp_path):
        with pytest.raises(SystemExit) as err:
            main([
                "train", "--train", str(workspace / "split" / "train_normal.csv"),
                "--components", "many", "--out", str(tmp_path / "x.json"),
            ])
        assert err.value.code == 2


class TestDetect:
    def test_band_nesting_between_w(self, workspace, tmp_path):
        for w, name in (("1.5", "v15.csv"), ("3", "v30.csv")):
            assert main([
                "detect", "--profile", str(workspace / "profile.json"),
                "--input", str(workspace / "split" / "test.csv"),
                "--w", w, "--out", str(tmp_path / name),
            ]) == 0
        flagged15 = {r["origin_row"] for r in _read_verdicts(tmp_path / "v15.csv") if r["label"] == "attack"}
        flagged30 = {r["origin_row"] for r in _read_verdicts(tmp_path / "v30.csv") if r["label"] == "attack"}
        assert flagged30 <= flagged15

    def test_empty_input(self, workspace, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        out = tmp_path / "verdicts.csv"
        assert main([
            "detect", "--profile", str(workspace / "profile.json"),
            "--input", str(empty), "--w", "1.5", "--out", str(out),
        ]) == 0
        assert out.read_text() == "origin_file,origin_row,score,label\n"

    def test_digest_mismatch_fails(self, workspace, tmp_path):
        assert main([
            "train", "--train", str(workspace / "split" / "train_normal.csv"),
            "--schema", str(workspace / "schema.json"), "--features", "pca:3",
            "--out", str(tmp_path / "other.json"),
        ]) == 0
        assert main([
            "detect", "--profile", str(workspace / "profile.json"),
            "--preprocess", str(tmp_path / "other.preprocess.json"),
            "--input", str(workspace / "split" / "test.csv"),
            "--w", "1.5", "--out", str(tmp_path / "v.csv"),
        ]) == 1

    def test_w_range_enforced(self, workspace, tmp_path):
        with pytest.raises(SystemExit) as err:
            main([
                "detect", "--profile", str(workspace / "profile.json"),
                "--input", str(workspace / "split" / "test.csv"),
                "--w", "7", "--out", str(tmp_path / "v.csv"),
            ])
        assert err.value.code == 2
        assert main([
            "detect", "--profile", str(workspace / "profile.json"),
            "--input", str(workspace / "split" / "test.csv"),
            "--w", "7", "--allow-any-w", "--out", str(tmp_path / "v.csv"),
        ]) == 0


class TestEvaluateAndRoc:
    def test_evaluate_writes_report(self, workspace, tmp_path):
        prefix = tmp_path / "report"
        assert main([
            "evaluate", "--profile", str(workspace / "profile.json"),
            "--test", str(workspace / "split" / "test.csv"),
            "--w", "2", "--out", str(prefix),
        ]) == 0
        doc = json.loads(prefix.with_suffix(".json").read_text())
        counts = doc["counts"]
        # sample: 2000 records, 1200 normal, 720 of those used for training
        assert counts["tp"] + counts["tn"] + counts["fp"] + counts["fn"] == 2000 - 720
        assert "Accuracy" in prefix.with_suffix(".txt").read_text()

    def test_detect_then_count_matches_roc_point(self, workspace, tmp_path, schema):
        from netanom.ingest import parse_flow_csv

        assert main([
            "roc", "--profile", str(workspace / "profile.json"),
            "--test", str(workspace / "split" / "test.csv"),
            "--w-grid", "2:2:1", "--out", str(tmp_path / "roc"),
        ]) == 0
        assert main([
            "detect", "--profile", str(workspace / "profile.json"),
            "--input", str(workspace / "split" / "test.csv"),
            "--w", "2", "--out", str(tmp_path / "verdicts.csv"),
        ]) == 0
        truth = {
            str(r.origin[1]): r.truth
            for r in parse_flow_csv(workspace / "split" / "test.csv", schema)
        }
        rows = _read_verdicts(tmp_path / "verdicts.csv")
        preds = [1 if r["label"] == "attack" else 0 for r in rows]
        truths = [truth[r["origin_row"]] for r in rows]
        counts = confusion(preds, truths)
        roc_doc = json.loads((tmp_path / "roc.json").read_text())
        assert roc_doc["points"][0]["counts"] == {
            "tp": counts.tp, "tn": counts.tn, "fp": counts.fp, "fn": counts.fn,
        }

    def test_roc_grid_rows(self, workspace, tmp_path):
        assert main([
            "roc", "--profile", str(workspace / "profile.json"),
            "--test", str(workspace / "split" / "test.csv"),
            "--w-grid", "1.5:3:0.5", "--out", str(tmp_path / "roc"),
        ]) == 0
        lines = (tmp_path / "roc.csv").read_text().strip().split("\n")
        assert lines[0] == "w,dr,fpr,accuracy"
        assert [float(l.split(",")[0]) for l in lines[1:]] == [1.5, 2.0, 2.5, 3.0]
        fprs = [float(l.split(",")[2]) for l in lines[1:]]
        assert fprs == sorted(fprs, reverse=True)
        text = (tmp_path / "roc.txt").read_text()
        assert "not reproduced" in text

    def test_degenerate_grid_single_point(self, workspace, tmp_path):
        assert main([
            "roc", "--profile", str(workspace / "profile.json"),
            "--test", str(workspace / "split" / "test.csv"),
            "--w-grid", "1.5:3:5", "--out", str(tmp_path / "roc1"),
        ]) == 0
        lines = (tmp_path / "roc1.csv").read_text().strip().split("\n")
        assert len(lines) == 2 and lines[1].startswith("1.5,")

    def test_bad_grid_usage_error(self, workspace, tmp_path):
        with pytest.raises(SystemExit) as err:
            main([
                "roc", "--profile", str(workspace / "profile.json"),
                "--test", str(workspace / "split" / "test.csv"),
                "--w-grid", "3:1:0.5", "--out", str(tmp_path / "r"),
            ])
        assert err.value.code == 2

    def test_unlabeled_test_rejected(self, workspace, tmp_path, schema):
        unlabeled = _write_unlabeled(workspace, tmp_path / "unlabeled.csv", schema)
        assert main([
            "evaluate", "--profile", str(workspace / "profile.json"),
            "--test", str(unlabeled), "--w", "2", "--out", str(tmp_path / "r"),
        ]) == 1


class TestSimulate:
    def _write_cfg(self, path, **kwargs):
        doc = {"version": 1, "nodes": ["A", "B", "C"], "assignment": "round-robin",
               "interval_size": 64, "w": 2.0, "transport": "in-process"}
        doc.update(kwargs)
        Path(path).write_text(json.dumps(doc))
        return path

    def test_three_node_reports(self, workspace, tmp_path):
        cfg = self._write_cfg(tmp_path / "sim.json")
        out = tmp_path / "simout"
        assert main([
            "simulate", "--config", str(cfg), "--profile", str(workspace / "profile.json"),
            "--test", str(workspace / "split" / "test.csv"), "--out", str(out),
        ]) == 0
        for node in ("A", "B", "C"):
            assert (out / f"node_{node}.json").exists()
        agg = json.loads((out / "aggregate.json").read_text())
        parts = [json.loads((out / f"node_{n}.json").read_text())["counts"] for n in "ABC"]
        for key in ("tp", "tn", "fp", "fn"):
            assert agg["counts"][key] == sum(p[key] for p in parts)

    def test_single_node_matches_evaluate(self, workspace, tmp_path):
        cfg = self._write_cfg(tmp_path / "sim1.json", nodes=["solo"])
        out = tmp_path / "sim1out"
        assert main([
            "simulate", "--config", str(cfg), "--profile", str(workspace / "profile.json"),
            "--test", str(workspace / "split" / "test.csv"), "--out", str(out),
        ]) == 0
        assert main([
            "evaluate", "--profile", str(workspace / "profile.json"),
            "--test", str(workspace / "split" / "test.csv"),
            "--w", "2", "--out", str(tmp_path / "plain"),
        ]) == 0
        agg = json.loads((out / "aggregate.json").read_text())
        plain = json.loads((tmp_path / "plain.json").read_text())
        assert agg == plain

    def test_transports_agree_byte_for_byte(self, workspace, tmp_path):
        cfg_a = self._write_cfg(tmp_path / "sa.json", transport="in-process")
        cfg_b = self._write_cfg(tmp_path / "sb.json", transport="loopback-socket")
        for cfg, out in ((cfg_a, "outa"), (cfg_b, "outb")):
            assert main([
                "simulate", "--config", str(cfg), "--profile", str(workspace / "profile.json"),
                "--test", str(workspace / "split" / "test.csv"), "--out", str(tmp_path / out),
            ]) == 0
        for name in ("aggregate.json", "node_A.json", "node_B.json", "node_C.json"):
            assert (tmp_path / "outa" / name).read_bytes() == (tmp_path / "outb" / name).read_bytes()

    def test_unlabeled_test_rejected(self, workspace, tmp_path, schema, capsys):
        unlabeled = _write_unlabeled(workspace, tmp_path / "unlabeled.csv", schema)
        cfg = self._write_cfg(tmp_path / "simu.json")
        assert main([
            "simulate", "--config", str(cfg), "--profile", str(workspace / "profile.json"),
            "--test", str(unlabeled), "--out", str(tmp_path / "simuout"),
        ]) == 1
        err = capsys.readouterr().err
        assert f"unlabeled row: {unlabeled.name} row 1;" in err

    def test_injected_failure_reported(self, workspace, tmp_path):
        cfg = self._write_cfg(tmp_path / "simf.json", fail_nodes=["B"], retry_budget=1)
        out = tmp_path / "simfout"
        assert main([
            "simulate", "--config", str(cfg), "--profile", str(workspace / "profile.json"),
            "--test", str(workspace / "split" / "test.csv"), "--out", str(out),
        ]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["parameters"]["failed_nodes"] == ["B"]
        assert manifest["parameters"]["partial"] is True
        assert not (out / "node_B.json").exists()
        agg = json.loads((out / "aggregate.json").read_text())
        a = json.loads((out / "node_A.json").read_text())["counts"]
        c = json.loads((out / "node_C.json").read_text())["counts"]
        for key in ("tp", "tn", "fp", "fn"):
            assert agg["counts"][key] == a[key] + c[key]


class TestManifests:
    def test_every_command_writes_one(self, workspace):
        assert json.loads((workspace / "data.manifest.json").read_text())["command"] == "synth"
        assert json.loads((workspace / "split" / "manifest.json").read_text())["command"] == "sample"
        manifest = json.loads((workspace / "profile.manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["seed"] == 0
        assert manifest["artifact_version"]
        assert manifest["input_digests"] and manifest["output_digests"]
        report = json.loads((workspace / "profile.json").read_text())["fit_report"]
        assert manifest["em"] == {
            key: report[key] for key in ("iterations", "converged", "reseeds", "final_log_likelihood")
        }

    def test_simulate_records_each_node(self, workspace, tmp_path):
        keys = {"attempts", "error", "n_records", "frames", "wire_bytes"}
        for transport in ("in-process", "loopback-socket"):
            cfg = tmp_path / f"{transport}.json"
            cfg.write_text(json.dumps({
                "version": 1, "nodes": ["A", "B", "C"], "assignment": "round-robin",
                "interval_size": 64, "w": 2.0, "transport": transport,
                "fail_nodes": ["C"], "retry_budget": 1,
            }))
            out = tmp_path / transport
            assert main([
                "simulate", "--config", str(cfg), "--profile", str(workspace / "profile.json"),
                "--test", str(workspace / "split" / "test.csv"), "--out", str(out),
            ]) == 0
            params = json.loads((out / "manifest.json").read_text())["parameters"]
            nodes = params["nodes"]
            assert params["failed_nodes"] == ["C"]
            assert list(nodes) == ["A", "B", "C"]
            assert all(set(doc) == keys for doc in nodes.values())
            assert nodes["C"] == {
                "attempts": 2, "error": "SimulatedNodeFailure: node 'C': injected crash",
                "n_records": 0, "frames": 0, "wire_bytes": 0,
            }
            for i, node in enumerate("AB"):
                doc = nodes[node]
                assert doc["n_records"] == len(range(i, params["records"], 3))  # round-robin share
                assert doc["attempts"] == 1 and doc["error"] is None
                if transport == "in-process":
                    assert doc["frames"] == doc["wire_bytes"] == 0
                else:
                    assert 0 < doc["frames"] < doc["n_records"]
                    assert doc["wire_bytes"] > 0
