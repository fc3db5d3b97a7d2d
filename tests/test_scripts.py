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
    assert (tmp_path / "exp" / "roc_seed0.csv").exists()
    assert (tmp_path / "exp" / "summary.json").exists()


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
