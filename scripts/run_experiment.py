#!/usr/bin/env python3
"""End-to-end detection experiment: sample, train, sweep w, report.

Draws one or more seeded samples from flow CSVs (a synthetic corpus is
generated when --input is omitted), trains a normal profile per sample,
sweeps the band width w, and prints per-sample tables plus pooled/mean
summaries across samples. Every step is a ``netanom`` command run through
``netanom.cli.main``: ``synth``, then per sample ``sample``, ``train`` and
``roc --w-grid 1.5:3:0.5``; the tables and summaries are rebuilt from the
``roc`` JSON reports. Outputs (corpus, splits, profiles, ROC data, reports)
land in --out.
"""

import argparse
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from netanom._docjson import pretty_dumps
from netanom.cli import main as cli
from netanom.evaluation import ConfusionCounts, metrics, render_table, summarize_reports

W_GRID = "1.5:3:0.5"


def netanom(*argv) -> None:
    """Run one command, its own output to stderr; stop if it fails."""
    with redirect_stdout(sys.stderr):
        code = cli([str(arg) for arg in argv])
    if code != 0:
        raise SystemExit(f"netanom {' '.join(map(str, argv))} exited {code}")


def read_reports(path: Path) -> list:
    """The reports of a ``roc`` JSON file, rebuilt from their counts."""
    points = json.loads(path.read_text(encoding="utf-8"))["points"]
    return [metrics(ConfusionCounts(**p["counts"]), w=p["w"]) for p in points]


def run_one(inputs, schema_args, args, seed, out_dir):
    split = out_dir / f"split_seed{seed}"
    profile = out_dir / f"profile_seed{seed}.json"
    netanom(
        "sample", "--input", *inputs, *schema_args, "--size", args.size, "--normal-frac", args.normal_frac,
        "--train-frac", args.train_frac, "--seed", seed, "--out", split,
    )  # fmt: skip
    netanom(
        "train", "--train", split / "train_normal.csv", *schema_args, "--features", args.features,
        "--components", args.components, "--seed", seed, "--out", profile,
    )  # fmt: skip
    netanom("roc", "--profile", profile, "--test", split / "test.csv", "--w-grid", W_GRID, "--out", out_dir / f"roc_seed{seed}")
    return read_reports(out_dir / f"roc_seed{seed}.json")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--input", nargs="*", default=None, help="flow CSVs (default: synthesize)")
    ap.add_argument("--schema", default=None)
    ap.add_argument("--corpus-rows", type=int, default=60_000, help="synthetic corpus size")
    ap.add_argument("--size", type=int, default=40_000, help="records per sample")
    ap.add_argument("--normal-frac", type=float, default=0.65)
    ap.add_argument("--train-frac", type=float, default=0.6)
    ap.add_argument("--features", default="table1")
    ap.add_argument("--components", default="auto")
    ap.add_argument("--samples", type=int, default=1, help="independent samples to draw")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="experiment_out")
    args = ap.parse_args()

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    if args.input:
        inputs = args.input
        schema_args = ["--schema", args.schema] if args.schema else []
        print(f"sampling from {len(inputs)} file(s)")
    else:
        inputs = [out_dir / "corpus.csv"]
        schema_args = []
        netanom("synth", "--rows", args.corpus_rows, "--seed", args.seed, "--attack-frac", 0.35, "--out", inputs[0])
        print(f"synthesized {args.corpus_rows} records (seed={args.seed})")

    per_w_reports = []
    for i in range(args.samples):
        seed = args.seed + i
        reports = run_one(inputs, schema_args, args, seed, out_dir)
        per_w_reports.append(reports)
        print(f"\nsample seed={seed} ({args.size} records):")
        print(render_table(reports, include_reference=True))

    if args.samples > 1:
        print("\nacross samples (per w):")
        summaries = {}
        for wi, rep in enumerate(per_w_reports[0]):
            summary = summarize_reports([reports[wi] for reports in per_w_reports])
            summaries[f"w={rep.w:g}"] = summary
            micro = summary["micro_pooled_records"]
            macro = summary["macro_mean_over_samples"]
            print(
                f"  w={rep.w:g}: micro(pooled) DR={micro['detection_rate']:.4f} "
                f"FPR={micro['false_positive_rate']:.4f} acc={micro['accuracy']:.4f} | "
                f"macro(mean) DR={macro['detection_rate']:.4f} "
                f"FPR={macro['false_positive_rate']:.4f} acc={macro['accuracy']:.4f}"
            )
        (out_dir / "summary.json").write_text(pretty_dumps(summaries))
    print(f"\noutputs in {out_dir}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
