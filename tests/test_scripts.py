import csv
import json
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run(script, *args, cwd):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_run_experiment_smoke(tmp_path):
    result = _run(
        "run_experiment.py",
        "--corpus-rows", "4000", "--size", "3000", "--samples", "2",
        "--components", "4", "--out", str(tmp_path / "exp"),
        cwd=tmp_path,
    )
    assert result.returncode == 0, result.stderr
    assert "micro(pooled)" in result.stdout and "macro(mean)" in result.stdout
    assert (tmp_path / "exp" / "summary.json").exists()

    # The script reports what the CLI computes for sample seed 0.
    from netanom.cli import main

    ref = tmp_path / "ref"
    for argv in (
        ["synth", "--rows", "4000", "--seed", "0", "--attack-frac", "0.35", "--out", ref / "corpus.csv"],
        ["sample", "--input", ref / "corpus.csv", "--size", "3000", "--normal-frac", "0.65", "--train-frac", "0.6",
         "--seed", "0", "--out", ref / "split"],
        ["train", "--train", ref / "split" / "train_normal.csv", "--features", "table1", "--components", "4",
         "--seed", "0", "--out", ref / "profile.json"],
        ["roc", "--profile", ref / "profile.json", "--test", ref / "split" / "test.csv", "--w-grid", "1.5:3:0.5",
         "--out", ref / "roc"],
    ):
        assert main([str(arg) for arg in argv]) == 0
    assert (tmp_path / "exp" / "roc_seed0.csv").read_bytes() == (ref / "roc.csv").read_bytes()


def test_run_collab_demo_smoke(tmp_path):
    result = _run(
        "run_collab_demo.py",
        "--rows", "4000", "--transport", "loopback-socket", "--fail-node", "B",
        cwd=tmp_path,
    )
    assert result.returncode == 0, result.stderr
    assert "node B: FAILED" in result.stdout
    assert "aggregate over healthy nodes" in result.stdout


def test_fixed_corpus_digests(tmp_path):
    result = _run("fixed_corpus.py", "--out", str(tmp_path / "fc"), cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    digests = {path: digest for digest, path in (line.split("  ", 1) for line in lines)}
    assert len(lines) == len(digests) == 21
    assert all(len(d) == 64 for d in digests.values())
    assert not any("manifest" in path for path in digests)
    for name in ("aggregate.json", "aggregate.txt", "node_A.json", "node_B.json", "node_C.json"):
        assert digests[f"sim-in-process/{name}"] == digests[f"sim-loopback-socket/{name}"]
    # A change that moves an output on purpose updates this file and says why.
    assert lines == (Path(__file__).parent / "data" / "fixed_corpus_digests.txt").read_text().splitlines()
    # sample --size 4000 at the default fractions: 2600 normals, 60% of them for training.
    sample = json.loads((tmp_path / "fc" / "split" / "manifest.json").read_text())
    assert (sample["train_records"], sample["test_records"]) == (1560, 2440)
    assert json.loads((tmp_path / "fc" / "profile.manifest.json").read_text())["records"] == 1560


def _load_bench(monkeypatch):
    """bench/run.py and bench/tracing.py, loaded unchanged, as modules."""
    import importlib.util

    bench = Path(__file__).resolve().parent.parent / "bench"
    modules = {}
    for name in ("run", "tracing"):  # tracing.py imports run.py as ``run``
        spec = importlib.util.spec_from_file_location(name, bench / f"{name}.py")
        modules[name] = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, modules[name])
        spec.loader.exec_module(modules[name])
    return modules["run"], modules["tracing"]


def _traced_pipeline(monkeypatch, tmp_path, split, workload):
    """The traced bench's pipeline for ``workload`` on the ``split`` fixture,
    trained, with the test records written where its jobs read them."""
    from netanom.ingest import default_schema

    run_module, tracing = _load_bench(monkeypatch)
    train, test = split
    (tmp_path / "split").mkdir()
    with open(tmp_path / "split" / "test.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(default_schema().names)
        writer.writerows(r.values for r in test)
    run = run_module.Run(workload=workload, seed=0, dir=tmp_path, deadline=0.0)
    pipeline, tracer = tracing.Pipeline(run), tracing.Tracer("test")
    pipeline.train(tracer, train, budget=5, out=tmp_path / "profile.json")
    return tracing, pipeline, tracer


def test_traced_bench_instruments_every_layer(tmp_path, monkeypatch, split):
    """The traced benchmark (bench/tracing.py, loaded unchanged) still finds
    every function it wraps and records a span in each layer it reports."""
    tracing, pipeline, tracer = _traced_pipeline(monkeypatch, tmp_path, split, "detect")
    out = tracing.job_detect(pipeline, tracer)
    assert pipeline.missing == []
    assert out["parsed"] == len(out["flagged"]) == len(split[1])
    names = {span["name"] for span in tracer.spans}
    assert {"gmm.fit_em", "gmm.score", "preprocess.apply", "ingest.parse"} <= names


def test_traced_bench_simulates_parsed_records(tmp_path, monkeypatch, split):
    """The traced simulate job (bench/tracing.py, loaded unchanged) still
    builds its store from parsed records with ``replay``, records its collab
    spans, and both transports agree on that store with the single-process
    counts."""
    import dataclasses

    from netanom.collab import run_simulation

    tracing, pipeline, tracer = _traced_pipeline(monkeypatch, tmp_path, split, "simulate")
    out = tracing.job_simulate(pipeline, tracer)
    assert pipeline.missing == []
    assert out["parsed"] == len(out["store"]) == len(split[1])
    names = {span["name"] for span in tracer.spans}
    assert {"ingest.parse", "collab.replay", "collab.loopback"} <= names

    loopback = out["loopback"]
    cfg = dataclasses.replace(out["cfg"], transport="in-process")
    in_process = run_simulation(out["store"], out["profile"], pipeline.preprocess, cfg)
    assert not loopback.failed_nodes and not in_process.failed_nodes
    assert loopback.per_node_reports == in_process.per_node_reports
    for node in cfg.nodes:
        assert loopback.node_results[node].verdicts == in_process.node_results[node].verdicts
        assert loopback.node_results[node].frames > 0
    reference = pipeline.reference_w2(out["profile"], split[1])
    assert tracing.counts_of(loopback.aggregate_counts) == reference
