#!/usr/bin/env python3
"""Collaborative deployment demo: three detection nodes over one capture.

Trains a profile centrally, splits a labeled test capture into one stream
per node under a chosen assignment rule, runs an independent decision
engine per node (in-process or over loopback TCP), and prints per-node and
aggregate results. Optionally crashes a node to show graceful degradation.

Every step is a ``netanom`` command run through ``netanom.cli.main`` in a
temporary directory: ``synth``, ``sample``, ``train`` and ``simulate``. The
tables are rebuilt from the ``simulate`` JSON reports and the per-node
block of its manifest.
"""

import argparse
import json
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from netanom.cli import main as cli
from netanom.collab import SimulationConfig, simconfig_to_doc
from netanom.evaluation import ConfusionCounts, metrics, render_table


def netanom(*argv) -> None:
    """Run one command, its own output to stderr; stop if it fails."""
    with redirect_stdout(sys.stderr):
        code = cli([str(arg) for arg in argv])
    if code != 0:
        raise SystemExit(f"netanom {' '.join(map(str, argv))} exited {code}")


def read_report(path: Path):
    """A ``simulate`` JSON report, rebuilt from its counts."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    return metrics(ConfusionCounts(**doc["counts"]), w=doc["w"])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--rows", type=int, default=30_000)
    ap.add_argument("--nodes", nargs="+", default=["A", "B", "C"])
    # Explicit assignment needs a node per record (`explicit_assignment` in a
    # `simulate` config), which this script has no option to give.
    ap.add_argument("--assignment", default="hash-of-source",
                    choices=["round-robin", "hash-of-source"])
    ap.add_argument("--transport", default="in-process",
                    choices=["in-process", "loopback-socket"])
    ap.add_argument("--interval-size", type=int, default=500)
    ap.add_argument("--w", type=float, default=2.0)
    ap.add_argument("--fail-node", default=None, help="inject a crash-stop failure")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    cfg = SimulationConfig(
        nodes=tuple(args.nodes),
        assignment=args.assignment,
        interval_size=args.interval_size,
        w=args.w,
        transport=args.transport,
        fail_nodes=(args.fail_node,) if args.fail_node else (),
    )
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        data, split, profile, out = tmp / "data.csv", tmp / "split", tmp / "profile.json", tmp / "sim"
        netanom("synth", "--rows", args.rows, "--seed", args.seed, "--attack-frac", 0.35, "--out", data)
        netanom(
            "sample", "--input", data, "--size", round(args.rows * 0.8), "--normal-frac", 0.65,
            "--train-frac", 0.6, "--seed", args.seed, "--out", split,
        )  # fmt: skip
        sampled = json.loads((split / "manifest.json").read_text(encoding="utf-8"))
        print(
            f"training on {sampled['train_records']} normals, streaming {sampled['test_records']} records "
            f"to {len(cfg.nodes)} node(s)"
        )
        netanom(
            "train", "--train", split / "train_normal.csv", "--features", "table1", "--components", "auto",
            "--seed", args.seed, "--out", profile,
        )  # fmt: skip
        (tmp / "sim.json").write_text(json.dumps(simconfig_to_doc(cfg)), encoding="utf-8")
        netanom("simulate", "--config", tmp / "sim.json", "--profile", profile, "--test", split / "test.csv", "--out", out)

        run = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["parameters"]
        for node in cfg.nodes:
            res = run["nodes"][node]
            if node in run["failed_nodes"]:
                print(f"\nnode {node}: FAILED after {res['attempts']} attempt(s): {res['errors'][-1][0]}")
                continue
            print(f"\nnode {node} ({res['n_records']} records):")
            print(render_table([read_report(out / f"node_{node}.json")]), end="")
        print(f"\naggregate over {'healthy nodes' if run['partial'] else 'all nodes'}:")
        print(render_table([read_report(out / "aggregate.json")]), end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
