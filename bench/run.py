#!/usr/bin/env python3
"""netanom benchmark: end-to-end runs of the `netanom` command line.

    python3 bench/run.py --workload {train,detect,simulate} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/``. Each workload is a closed loop with one caller: the benchmark runs
one CLI command at a time as a child process (``python -m netanom.cli``) and
starts the next only after the previous one exits, until ``--seconds`` have
passed. Inputs are generated from ``--seed`` by the program's own ``synth``
and ``sample`` commands; the program only sees those files.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` a separate in-process traced run
(``bench/tracing.py``) reports the per-layer metrics instead. Every
operation's output is checked, and the sha256 digests of the outputs must
match earlier runs of the same code on the same seed. Scratch files live in
``.bench_work/`` under the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOADS = ("train", "detect", "simulate")

# Input sizes. The 39,000 training normals match the ROADMAP baseline; the
# 111,000-record test capture keeps detect and simulate running for several
# seconds each, well above the interpreter start-up.
CORPUS_ROWS = 160_000
SAMPLE_SIZE = 150_000
NORMAL_FRAC = 0.65
TRAIN_FRAC = 0.4
W = 2.0
W_GRID = "1.5:3:0.5"
TRAIN_ARGS = ["--features", "table1", "--components", "auto", "--seed", "0"]
# At the default tol of 1e-6, EM needs 14 to over 200 iterations depending on
# the seed, so a fit's time measures the seed and some fits stop unconverged
# at the default max-iter. The set-up fit for detect and simulate converges
# at a looser tol; the timed fit in the `train` workload runs a fixed budget
# (tol as small as the CLI accepts, so the budget runs in full), which keeps
# the work per record constant.
SETUP_TOL = "1e-4"
SETUP_TRAIN_ARGS = TRAIN_ARGS + ["--tol", SETUP_TOL]
EM_BUDGET = 40
TIMED_TRAIN_ARGS = TRAIN_ARGS + ["--max-iter", str(EM_BUDGET), "--tol", "1e-300"]
BUDGET_PROFILE = "profile_budget.json"
SIM_CONFIG = {
    "version": 1,
    "nodes": ["A", "B"],
    "assignment": "hash-of-source",
    "interval_size": 500,
    "w": W,
    "transport": "loopback-socket",
    "fail_nodes": [],
    "retry_budget": 3,
}
# Slack the EM fit itself allows on its per-iteration monotonicity check.
MONOTONE_SLACK = 1e-9
STARTUP_SAMPLES = 5
# Every run must end within 180 s; commands still running at this point are
# killed and counted as failed.
RUN_DEADLINE_S = 170.0


class BenchError(Exception):
    pass


@dataclass
class Command:
    wall_s: float
    peak_rss_mb: float
    returncode: int


@dataclass
class Run:
    """Bookkeeping of one benchmark run: operations, failures, digests."""

    workload: str
    seed: int
    dir: Path
    deadline: float
    attempted: int = 0
    failed_ops: set[int] = field(default_factory=set)
    failures: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    child: subprocess.Popen | None = None

    def env(self) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        return env

    def cli(self, *args: str) -> Command:
        """Run one `netanom` command to completion; one operation."""
        self.attempted += 1
        argv = [sys.executable, "-m", "netanom.cli", *args]
        err_path = self.dir / "cmd.err"
        with err_path.open("w") as err:
            start = time.perf_counter()
            proc = self.child = subprocess.Popen(
                argv, cwd=self.dir, env=self.env(), stdout=subprocess.DEVNULL, stderr=err
            )
            timer = threading.Timer(max(self.deadline - time.monotonic(), 0.0), proc.kill)
            timer.start()
            try:
                # wait4 reaps the child and returns its own resource usage,
                # so the peak RSS is this command's, not the largest so far.
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.child = None
        cmd = Command(wall, usage.ru_maxrss / 1024.0, proc.returncode)
        if cmd.returncode != 0:
            self.fail(f"`netanom {' '.join(args)}` exited {cmd.returncode}: {err_path.read_text().strip()[-500:]}")
        return cmd

    def stop(self, *_) -> None:
        """Signal handler: end the running command, then the whole run."""
        if self.child is not None:
            self.child.kill()
            try:
                os.waitpid(self.child.pid, 0)
            except ChildProcessError:
                pass  # already reaped
        os._exit(124)

    def fail(self, message: str) -> None:
        """A failed check fails the operation that produced the checked output."""
        self.failures.append(message)
        self.failed_ops.add(max(self.attempted, 1))

    def check(self, ok: bool, message: str) -> bool:
        if not ok:
            self.fail(message)
        return ok

    def digest(self, name: str, path: Path) -> None:
        """Record an output's sha256; it must not change within a run."""
        value = file_digest(path)
        previous = self.digests.setdefault(name, value)
        self.check(previous == value, f"{name} changed between iterations of one run")


def file_digest(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def code_digest() -> str:
    """Digest of the program and benchmark sources: runs with equal digests
    run the same code, so their outputs must be byte-identical."""
    h = hashlib.sha256()
    for base in (SRC, ROOT / "bench"):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def check_store(run: Run, extra: dict) -> None:
    """Compare this run's digests and confusion counts with every earlier run
    of the same code on the same seed, then record them. Outputs shared by
    several workloads (the profile, the ROC data, the counts at w=2) are
    compared across workloads and across the traced and untraced runs."""
    path = WORK / "digests.json"
    store = json.loads(path.read_text()) if path.exists() else {}
    entry = store.setdefault(f"{code_digest()}:{run.seed}", {})
    current = dict(run.digests)
    current.update((name, json.dumps(value, sort_keys=True)) for name, value in extra.items())
    for name, value in current.items():
        previous = entry.setdefault(name, value)
        run.check(previous == value, f"{name} differs from an earlier run of this code on seed {run.seed}")
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
    os.replace(tmp, path)


def write_sim_config(run: Run) -> Path:
    path = run.dir / "sim.json"
    path.write_text(json.dumps(SIM_CONFIG, indent=2))
    return path


def flush_to_disk(directory: Path) -> None:
    """fsync the set-up's files so their write-back does not land in the
    first timed iteration."""
    for path in directory.rglob("*"):
        if path.is_file():
            fd = os.open(path, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


def count_csv_rows(path: Path) -> int:
    with path.open("rb") as f:
        return sum(1 for line in f if line.strip()) - 1  # minus the header


# -- set-up -----------------------------------------------------------------


@dataclass
class Inputs:
    train_records: int
    test_records: int


def make_corpus(run: Run) -> None:
    run.cli("synth", "--rows", str(CORPUS_ROWS), "--seed", str(run.seed), "--out", "corpus.csv")
    if (run.dir / "corpus.csv").exists():
        run.digest("corpus.csv", run.dir / "corpus.csv")


def make_split(run: Run) -> Inputs:
    """sample: the training normals and the test capture."""
    run.cli(
        "sample", "--input", "corpus.csv", "--size", str(SAMPLE_SIZE),
        "--normal-frac", str(NORMAL_FRAC), "--train-frac", str(TRAIN_FRAC),
        "--seed", str(run.seed), "--out", "split",
    )  # fmt: skip
    split = run.dir / "split"
    if not (split / "test.csv").exists() or not (split / "train_normal.csv").exists():
        raise BenchError("sample wrote no train/test split")
    return Inputs(count_csv_rows(split / "train_normal.csv"), count_csv_rows(split / "test.csv"))


def train(run: Run, args: list[str], out: str) -> Command:
    return run.cli("train", "--train", "split/train_normal.csv", *args, "--out", out)


def check_profile(run: Run, path: Path, *, budget: int | None = None):
    """The profile reloads, its EM trace never decreases, and the fit
    converged, or for a budget fit ran the whole budget. A budget fit may
    stop earlier only at a fixed point, where the likelihood stops rising;
    fit_em reports that as converged."""
    from netanom.decision import load_profile

    try:
        profile = load_profile(path.read_bytes())
    except Exception as exc:  # any failure to reload is a failed check
        run.fail(f"{path.name} does not reload: {exc}")
        return None
    rep = profile.fit_report
    # A reseed replaces dead components and is not an EM step: fit_em lets
    # the likelihood drop there, and nowhere else.
    drops = sum(1 for a, b in zip(rep.trace, rep.trace[1:]) if b < a - MONOTONE_SLACK)
    run.check(
        drops <= rep.reseeds,
        f"{path.name}: EM log-likelihood drops {drops} times with {rep.reseeds} reseeds",
    )
    if budget is None:
        run.check(rep.converged, f"{path.name}: EM did not converge")
    else:
        run.check(
            rep.iterations == budget or rep.converged,
            f"{path.name}: EM stopped unconverged after {rep.iterations} of {budget} iterations",
        )
    return profile


def roc_point(run: Run, prefix: Path, w: float) -> dict | None:
    doc = json.loads(prefix.with_suffix(".json").read_text())
    for point in doc["points"]:
        if point["w"] == w:
            return point
    run.fail(f"{prefix.name}.json has no point at w={w}")
    return None


# -- workloads ----------------------------------------------------------------


@dataclass
class Iteration:
    records: int
    wall_s: float
    peak_rss_mb: float


def closed_loop(run: Run, seconds: float, one) -> list[Iteration]:
    """Call ``one()`` back to back for about ``seconds``: at least once, and
    then while the next call is expected to end within half a call of the
    window's end."""
    start = time.perf_counter()
    done, lengths = [], []
    while True:
        t0 = time.perf_counter()
        done.append(one())
        lengths.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(lengths) / 2 > seconds or time.monotonic() >= run.deadline:
            return done


def workload_train(run: Run, inputs: Inputs, seconds: float) -> dict:
    def one() -> Iteration:
        cmd = train(run, TIMED_TRAIN_ARGS, BUDGET_PROFILE)
        if cmd.returncode == 0 and check_profile(run, run.dir / BUDGET_PROFILE, budget=EM_BUDGET):
            run.digest(BUDGET_PROFILE, run.dir / BUDGET_PROFILE)
        return Iteration(inputs.train_records, cmd.wall_s, cmd.peak_rss_mb)

    loop = closed_loop(run, seconds, one)
    # Untimed: the trained profile must still separate attacks from normals.
    cmd = run.cli("evaluate", "--profile", BUDGET_PROFILE, "--test", "split/test.csv", "--w", str(W), "--out", "eval")
    report = json.loads((run.dir / "eval.json").read_text()) if cmd.returncode == 0 else None
    return {"loop": loop, "w2": report}


def workload_detect(run: Run, inputs: Inputs, seconds: float) -> dict:
    def one() -> Iteration:
        det = run.cli("detect", "--profile", "profile.json", "--input", "split/test.csv", "--w", str(W), "--out", "verdicts.csv")
        roc = run.cli("roc", "--profile", "profile.json", "--test", "split/test.csv", "--w-grid", W_GRID, "--out", "roc")
        if det.returncode == 0 and roc.returncode == 0:
            verdicts = (run.dir / "verdicts.csv").read_text().splitlines()[1:]
            run.check(
                len(verdicts) == inputs.test_records,
                f"{len(verdicts)} verdict rows for {inputs.test_records} test records",
            )
            attacks = sum(1 for line in verdicts if line.endswith(",attack"))
            point = roc_point(run, run.dir / "roc", W)
            if point is not None:
                c = point["counts"]
                run.check(attacks == c["tp"] + c["fp"], f"detect flags {attacks}, roc tp+fp is {c['tp'] + c['fp']}")
            run.digest("verdicts.csv", run.dir / "verdicts.csv")
            run.digest("roc.csv", run.dir / "roc.csv")
        return Iteration(2 * inputs.test_records, det.wall_s + roc.wall_s, max(det.peak_rss_mb, roc.peak_rss_mb))

    loop = closed_loop(run, seconds, one)
    return {"loop": loop, "w2": roc_point(run, run.dir / "roc", W) if (run.dir / "roc.json").exists() else None}


def workload_simulate(run: Run, inputs: Inputs, seconds: float) -> dict:
    config = write_sim_config(run)

    def one() -> Iteration:
        cmd = run.cli("simulate", "--config", config.name, "--profile", "profile.json", "--test", "split/test.csv", "--out", "simout")
        if cmd.returncode == 0:
            manifest = json.loads((run.dir / "simout" / "manifest.json").read_text())
            params = manifest["parameters"]
            run.check(not params["failed_nodes"] and not params["partial"], f"failed nodes: {params['failed_nodes']}")
            run.check(params["records"] == inputs.test_records, f"simulated {params['records']} of {inputs.test_records} records")
            run.digest("aggregate.json", run.dir / "simout" / "aggregate.json")
        return Iteration(inputs.test_records, cmd.wall_s, cmd.peak_rss_mb)

    loop = closed_loop(run, seconds, one)
    # Untimed reference: the aggregate must equal the single-process counts.
    roc = run.cli("roc", "--profile", "profile.json", "--test", "split/test.csv", "--w-grid", W_GRID, "--out", "roc")
    aggregate = run.dir / "simout" / "aggregate.json"
    report = json.loads(aggregate.read_text()) if aggregate.exists() else None
    if roc.returncode == 0 and report is not None:
        run.digest("roc.csv", run.dir / "roc.csv")
        point = roc_point(run, run.dir / "roc", W)
        if point is not None:
            run.check(report["counts"] == point["counts"], f"aggregate {report['counts']} != roc {point['counts']} at w={W}")
    return {"loop": loop, "w2": report}


def end_to_end(run: Run, inputs: Inputs, seconds: float) -> tuple[dict, dict]:
    result = {"train": workload_train, "detect": workload_detect, "simulate": workload_simulate}[run.workload](
        run, inputs, seconds
    )
    loop, w2 = result["loop"], result["w2"]
    if w2 is None:
        raise BenchError(f"no metrics report at w={W}")
    run.check(w2["w"] == W, f"metrics report is for w={w2['w']}, not {W}")
    check_store(run, {"w2_counts_budget" if run.workload == "train" else "w2_counts": w2["counts"]})
    metrics = {
        "records_per_s": (statistics.median(it.records / it.wall_s for it in loop), "1/s"),
        "peak_rss_mb": (max(it.peak_rss_mb for it in loop), "MB"),
        "detection_rate": (w2["detection_rate"], "ratio"),
        # 1 - FPR: at w=2 the FPR itself ranges 0.0001-0.19 over seeds.
        "specificity": (1.0 - w2["false_positive_rate"], "ratio"),
    }
    details = {
        "sizes": vars(inputs),
        "iterations": [vars(it) for it in loop],
        "w2_report": w2,
    }
    return metrics, details


# -- environment and output ---------------------------------------------------


def environment(seed: int) -> dict:
    import numpy

    blas = "unknown"
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except Exception:  # older numpy without mode="dicts"
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "seed": seed,
        "corpus_rows": CORPUS_ROWS,
        "sample_size": SAMPLE_SIZE,
        "em_budget": EM_BUDGET,
        "code_digest": code_digest(),
    }


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    started = time.monotonic()
    args = parse_args(argv)
    if not (SRC / "netanom" / "cli.py").is_file():
        print(f"error: no netanom sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)
    run = Run(args.workload, args.seed, run_dir, deadline=started + RUN_DEADLINE_S)
    # A hang inside the traced in-process job cannot be killed like a child
    # command; end the whole run instead of overrunning its 180 s.
    signal.signal(signal.SIGALRM, run.stop)
    signal.signal(signal.SIGTERM, run.stop)
    signal.alarm(int(RUN_DEADLINE_S) + 5)

    # Byte-compile once so no timed command pays for it.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC)], check=True, stdout=subprocess.DEVNULL)

    try:
        if args.trace:
            from tracing import traced_run

            metrics, details = traced_run(run)
        else:
            t0 = time.perf_counter()
            make_corpus(run)
            inputs = make_split(run)
            if args.workload != "train":
                if train(run, SETUP_TRAIN_ARGS, "profile.json").returncode == 0:
                    check_profile(run, run_dir / "profile.json")
                    run.digest("profile.json", run_dir / "profile.json")
            setup_s = time.perf_counter() - t0
            flush_to_disk(run_dir)
            metrics, details = end_to_end(run, inputs, args.seconds)
            metrics["setup_s"] = (setup_s, "s")
    except Exception as exc:  # a broken program must still yield a failed result
        run.fail(f"{type(exc).__name__}: {exc}")
        metrics, details = {}, {}

    record = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(args.seed),
        "digests": run.digests,
        "failures": run.failures,
        **details,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{run_dir.name}.json").write_text(json.dumps(record, indent=1, default=str))
    if not run.failures:
        shutil.rmtree(run_dir)
    for message in run.failures:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps({"environment": record["environment"], "sizes": details.get("sizes"), "digests": run.digests}))
    print(
        json.dumps(
            {
                "correct": not run.failures and bool(metrics),
                "attempted": max(run.attempted, 1),
                "failed": len(run.failed_ops),
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
