#!/usr/bin/env python3
"""Run the fixed-corpus CLI pipeline and print a sha256 digest per output.

    python scripts/fixed_corpus.py --out DIR

Runs, through ``netanom.cli.main`` in one process: ``synth --rows 6000
--seed 3``, ``sample --size 4000 --seed 3``, ``train --seed 0``,
``detect``/``evaluate --w 2``, ``roc --w-grid 1.5:3:0.5`` and ``simulate``
on nodes A, B, C (hash-of-source, interval 64, w=2) once per transport.
Prints ``sha256  path`` for every output except the manifests, which hold
paths and timings. Outputs that must not change between two versions of the
code have equal digests; comparing two runs' printouts checks that.
"""

import argparse
import hashlib
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from netanom.cli import main as cli
from netanom.collab import TRANSPORTS

SIM_DOC = {"version": 1, "nodes": ["A", "B", "C"], "assignment": "hash-of-source", "interval_size": 64, "w": 2.0}


def run_pipeline(out: Path) -> list[Path]:
    """Run every command into ``out``; return the non-manifest outputs."""
    out.mkdir(parents=True, exist_ok=True)
    data, split = out / "data.csv", out / "split"
    test, profile = str(split / "test.csv"), str(out / "profile.json")
    commands = [
        ["synth", "--rows", "6000", "--seed", "3", "--out", str(data)],
        ["sample", "--input", str(data), "--size", "4000", "--seed", "3", "--out", str(split)],
        ["train", "--train", str(split / "train_normal.csv"), "--seed", "0", "--out", profile],
        ["detect", "--profile", profile, "--input", test, "--w", "2", "--out", str(out / "verdicts.csv")],
        ["evaluate", "--profile", profile, "--test", test, "--w", "2", "--out", str(out / "eval")],
        ["roc", "--profile", profile, "--test", test, "--w-grid", "1.5:3:0.5", "--out", str(out / "roc")],
    ]
    for transport in TRANSPORTS:
        config = out / f"sim-{transport}.json"
        config.write_text(json.dumps({**SIM_DOC, "transport": transport}), encoding="utf-8")
        commands.append(
            ["simulate", "--config", str(config), "--profile", profile, "--test", test, "--out", str(out / f"sim-{transport}")]
        )
    for argv in commands:
        with redirect_stdout(sys.stderr):
            code = cli(argv)
        if code != 0:
            raise SystemExit(f"netanom {' '.join(argv)} exited {code}")
    return sorted(
        p for p in out.rglob("*")
        if p.is_file() and "manifest" not in p.name and not p.name.startswith("sim-")
    )


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", required=True, type=Path, help="directory for the outputs")
    args = ap.parse_args()
    for path in run_pipeline(args.out):
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(args.out).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
