"""Traced run: the workload's job in-process, with a span around each call
into a netanom layer, for per-layer numbers.

Spans are recorded from this file only, around public functions of each
module; none is recorded inside the program. They are kept in memory (name,
start, end, parent, run id) and written to ``.bench_work/traces/`` when the
run ends. A span's layer is the part of its name before the first dot;
the roots ``setup``, ``job`` and ``verify`` belong to the benchmark itself.
Layer shares cover the ``job`` subtree, which mirrors the workload's timed
CLI commands; per-layer times sum every span of that name in the run.
"""

from __future__ import annotations

import dataclasses
import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

import run as bench

# Layers that can do work inside a job; synth only runs in set-up.
LAYERS = ("ingest", "preprocess", "gmm", "decision", "evaluation", "collab")


class Tracer:
    def __init__(self, run_id: str, enabled: bool = True):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        try:
            yield
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def self_times(self, root: str) -> dict[str, float]:
        """Self time per layer over the subtree under the first ``root`` span:
        each span's duration minus the time its children cover."""
        start = next(s["id"] for s in self.spans if s["name"] == root)
        inside = {start}
        for s in self.spans[start + 1 :]:
            if s["parent"] in inside:
                inside.add(s["id"])
        child_time = dict.fromkeys(inside, 0.0)
        for i in inside:
            s = self.spans[i]
            if s["parent"] in inside:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for i in inside:
            s = self.spans[i]
            layer = s["name"].split(".")[0] if "." in s["name"] else "bench"
            out[layer] = out.get(layer, 0.0) + (s["end"] - s["start"]) - child_time[i]
        return out


@contextmanager
def instrument(tracer: Tracer, module, attr: str, name: str, missing: list[str]):
    """Wrap ``module.attr`` in a span while the block runs. Used where one
    public function calls another layer (train_profile calls fit_em)."""
    original = getattr(module, attr, None)
    if original is None:
        missing.append(f"{module.__name__}.{attr}")
        yield
        return

    def wrapped(*args, **kwargs):
        with tracer.span(name):
            return original(*args, **kwargs)

    setattr(module, attr, wrapped)
    try:
        yield
    finally:
        setattr(module, attr, original)


class Pipeline:
    """In-process replica of the workload's CLI commands, using only public
    functions that the ROADMAP keeps."""

    def __init__(self, run: bench.Run):
        from netanom import decision
        from netanom.ingest import default_schema

        self.run = run
        self.decision = decision
        self.schema = default_schema()
        self.missing: list[str] = []
        self.preprocess = None
        self.test = None

    def train(self, t: Tracer, records, *, budget: int | None, out: Path):
        from netanom.decision import save_profile, train_profile
        from netanom.gmm import EmConfig
        from netanom.preprocess import fit_preprocess

        with t.span("preprocess.fit"):
            pp = fit_preprocess(records, self.schema, "table1")
        with t.span("preprocess.apply"):
            matrix = pp.apply_records(records)
        k = matrix.shape[1]
        if budget is None:
            cfg = EmConfig(k, tol=float(bench.SETUP_TOL))
        else:
            cfg = EmConfig(k, max_iter=budget, tol=1e-300)
        with (
            t.span("decision.train_profile"),
            instrument(t, self.decision, "fit_em", "gmm.fit_em", self.missing),
            instrument(t, self.decision, "score_records", "gmm.score", self.missing),
        ):
            profile = train_profile(matrix, cfg, preprocess_digest=pp.digest())
        with t.span("decision.profile_io"):
            out.write_bytes(save_profile(profile))
        self.preprocess = pp
        return profile

    def load_profile(self, t: Tracer):
        from netanom.decision import load_profile

        with t.span("decision.profile_io"):
            return load_profile((self.run.dir / "profile.json").read_bytes())

    def parse(self, t: Tracer, name: str):
        from netanom.ingest import parse_flow_csv

        with t.span("ingest.parse"):
            return parse_flow_csv(self.run.dir / "split" / name, self.schema)

    def reference_w2(self, profile, records) -> dict:
        """Untraced single-process counts at w=2, the reference for checks."""
        from netanom.decision import DetectionConfig, classify_scores
        from netanom.evaluation import confusion
        from netanom.gmm import score_records

        scores = score_records(self.preprocess.apply_records(records), profile.model)
        flagged = classify_scores(scores, profile, DetectionConfig(bench.W))
        return counts_of(confusion(flagged.astype(int), [r.truth for r in records]))


def job_train(p: Pipeline, t: Tracer) -> dict:
    with t.span("job"):
        records = p.parse(t, "train_normal.csv")
        profile = p.train(t, records, budget=bench.EM_BUDGET, out=p.run.dir / "profile_budget.json")
    return {"profile": profile, "parsed": len(records)}


def job_detect(p: Pipeline, t: Tracer) -> dict:
    from netanom.decision import DetectionConfig, classify_scores
    from netanom.evaluation import confusion, metrics
    from netanom.gmm import score_records

    with t.span("job"):
        profile = p.load_profile(t)
        records = p.parse(t, "test.csv")
        with t.span("preprocess.apply"):
            matrix = p.preprocess.apply_records(records)
        with t.span("gmm.score"):
            scores = score_records(matrix, profile.model)
        with t.span("decision.classify"):
            flagged = classify_scores(scores, profile, DetectionConfig(bench.W))
        truths = [r.truth for r in records]
        with t.span("evaluation.sweep"):
            reports = [
                metrics(confusion(classify_scores(scores, profile, DetectionConfig(w, enforce_range=False)).astype(int), truths), w=w)
                for w in w_grid()
            ]
    return {"profile": profile, "parsed": len(records), "flagged": flagged, "reports": reports}


def job_simulate(p: Pipeline, t: Tracer) -> dict:
    from netanom.collab import load_simconfig, replay, run_simulation

    cfg = load_simconfig(bench.write_sim_config(p.run))
    with t.span("job"):
        profile = p.load_profile(t)
        records = p.parse(t, "test.csv")
        with t.span("collab.replay"):
            store = replay(records, cfg, p.schema)
        with t.span("collab.loopback"):
            loopback = run_simulation(store, profile, p.preprocess, cfg)
    p.test = records
    return {"profile": profile, "parsed": len(records), "loopback": loopback, "store": store, "cfg": cfg}


JOBS = {"train": job_train, "detect": job_detect, "simulate": job_simulate}


def w_grid() -> list[float]:
    a, b, step = (float(x) for x in bench.W_GRID.split(":"))
    return [a + i * step for i in range(int(round((b - a) / step)) + 1)]


def counts_of(c) -> dict:
    return {"tp": c.tp, "fp": c.fp, "tn": c.tn, "fn": c.fn}


def traced_run(run: bench.Run) -> tuple[dict, dict]:
    from netanom.ingest import SamplePlan, parse_flow_csv, stratified_sample
    from netanom.synth import write_synthetic_csv

    startup = statistics.median(run.cli("--version").wall_s for _ in range(bench.STARTUP_SAMPLES))
    run_id = f"{run.workload}-seed{run.seed}"
    t = Tracer(run_id)
    p = Pipeline(run)

    with t.span("setup"):
        with t.span("synth.write_csv"):
            write_synthetic_csv(run.dir / "corpus.csv", bench.CORPUS_ROWS, run.seed)
        with t.span("ingest.sample"):
            corpus = parse_flow_csv(run.dir / "corpus.csv", p.schema)
            plan = SamplePlan(bench.SAMPLE_SIZE, bench.NORMAL_FRAC, bench.TRAIN_FRAC, run.seed)
            train_records, test_records = stratified_sample(corpus, plan)
        del corpus
        if run.workload != "train":
            p.train(t, train_records, budget=None, out=run.dir / "profile.json")
            bench.check_profile(run, run.dir / "profile.json")
            run.digest("profile.json", run.dir / "profile.json")
    run.digest("corpus.csv", run.dir / "corpus.csv")
    sampled = (len(train_records), len(test_records))
    del train_records, test_records
    # The CLI writes the split files the jobs parse: the traced set-up keeps
    # its split in memory only.
    inputs = bench.make_split(run)
    run.check(
        (inputs.train_records, inputs.test_records) == sampled,
        f"in-process sample {sampled} != CLI {inputs.train_records}/{inputs.test_records}",
    )

    # After a warm-up the job runs twice untraced and twice traced, in turn;
    # the faster of each pair gives the tracing overhead. The spans of the
    # first traced pass are the ones reported.
    job = JOBS[run.workload]
    job(p, Tracer(run_id, enabled=False))
    walls: dict[bool, list[float]] = {False: [], True: []}
    out = None
    for traced in (False, True, False, True):
        tracer = (t if out is None else Tracer(run_id)) if traced else Tracer(run_id, enabled=False)
        t0 = time.perf_counter()
        result = job(p, tracer)
        walls[traced].append(time.perf_counter() - t0)
        if traced and out is None:
            out = result
    untraced_s, traced_s = min(walls[False]), min(walls[True])
    if run.workload == "simulate":
        from netanom.collab import run_simulation

        cfg = dataclasses.replace(out["cfg"], transport="in-process")
        with t.span("verify"), t.span("collab.in_process"):
            out["in_process"] = run_simulation(out["store"], out["profile"], p.preprocess, cfg)

    extra = check_job(run, p, out)
    bench.check_store(run, extra)

    selfs = t.self_times("job")
    job_s = t.total("job")
    profile = out["profile"]
    rep = profile.fit_report
    fit_s = t.total("gmm.fit_em")
    loop = out.get("loopback")
    nodes = list(loop.node_results.values()) if loop else []
    in_nodes = list(out["in_process"].node_results.values()) if loop else []
    sizes = [n.n_records for n in nodes]
    metrics = {
        "synth.write_csv_s": (t.total("synth.write_csv"), "s"),
        "ingest.sample_s": (t.total("ingest.sample"), "s"),
        "ingest.parse_s": (t.total("ingest.parse"), "s"),
        "ingest.parse_records_per_s": (out["parsed"] / t.total("ingest.parse"), "1/s"),
        "preprocess.fit_s": (t.total("preprocess.fit"), "s"),
        "preprocess.apply_s": (t.total("preprocess.apply"), "s"),
        "gmm.fit_em_s": (fit_s, "s"),
        "gmm.em_iterations": (rep.iterations if fit_s else 0, "count"),
        "gmm.em_ms_per_iter": (1000.0 * fit_s / max(rep.iterations, 1) if fit_s else 0.0, "ms"),
        "gmm.em_reseeds": (rep.reseeds if fit_s else 0, "count"),
        "gmm.score_s": (t.total("gmm.score"), "s"),
        "decision.classify_s": (t.total("decision.classify"), "s"),
        "decision.profile_io_s": (t.total("decision.profile_io"), "s"),
        "evaluation.sweep_s": (t.total("evaluation.sweep"), "s"),
        "collab.replay_s": (t.total("collab.replay"), "s"),
        "collab.loopback_s": (t.total("collab.loopback"), "s"),
        "collab.in_process_s": (t.total("collab.in_process"), "s"),
        "collab.retries": (sum(n.attempts - 1 for n in nodes + in_nodes), "count"),
        "collab.failed_nodes": (len(loop.failed_nodes) if loop else 0, "count"),
        "collab.partition_skew": (max(sizes) / statistics.mean(sizes) if sizes else 0.0, "ratio"),
        "cli.startup_s": (startup, "s"),
        "trace.overhead_pct": (100.0 * (traced_s / untraced_s - 1.0), "%"),
        "trace.job_s": (job_s, "s"),
    }
    for layer in LAYERS:
        metrics[f"self.{layer}_s"] = (selfs.get(layer, 0.0), "s")
        metrics[f"share.{layer}_pct"] = (100.0 * selfs.get(layer, 0.0) / job_s, "%")

    traces = bench.WORK / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    (traces / f"{run_id}.json").write_text(json.dumps({"run": run_id, "spans": t.spans}, indent=1))
    if p.missing:
        run.fail(f"no longer instrumentable, layer times misattributed: {p.missing}")
    details = {
        "sizes": vars(inputs),
        "uninstrumented": p.missing,
        "untraced_job_s": untraced_s,
        "traced_job_s": traced_s,
        "layer_shares_pct": {k: round(v[0], 2) for k, v in metrics.items() if k.startswith("share.")},
    }
    return metrics, details


def check_job(run: bench.Run, p: Pipeline, out: dict) -> dict:
    """The same checks as the end-to-end run, on the in-process outputs."""
    profile = out["profile"]
    if run.workload == "train":
        path = run.dir / "profile_budget.json"
        bench.check_profile(run, path, budget=bench.EM_BUDGET)
        run.digest(path.name, path)
        return {}
    if run.workload == "detect":
        flagged, reports = out["flagged"], out["reports"]
        run.check(len(flagged) == out["parsed"], f"{len(flagged)} verdicts for {out['parsed']} records")
        w2 = next(r for r in reports if r.w == bench.W)
        run.check(
            int(flagged.sum()) == w2.counts.tp + w2.counts.fp,
            f"detect flags {int(flagged.sum())}, sweep tp+fp is {w2.counts.tp + w2.counts.fp}",
        )
        return {"w2_counts": counts_of(w2.counts)}
    loop, in_process = out["loopback"], out["in_process"]
    reference = p.reference_w2(profile, p.test)
    for name, outcome in (("loopback", loop), ("in-process", in_process)):
        run.check(not outcome.failed_nodes, f"{name}: failed nodes {outcome.failed_nodes}")
        run.check(counts_of(outcome.aggregate_counts) == reference, f"{name} aggregate != single-process counts")
    return {"w2_counts": reference}
