#!/usr/bin/env python3
"""End-to-end detection experiment: sample, train, sweep w, report.

Draws one or more seeded samples from a flow CSV (a synthetic corpus is
generated when --input is omitted), trains a normal profile per sample,
sweeps the band width w, and prints per-sample tables plus pooled/mean
summaries across samples. Outputs (profiles, ROC data, reports) land in
--out.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from netanom import synth
from netanom._docjson import pretty_dumps
from netanom.decision import train_profile
from netanom.evaluation import render_table, report_to_doc, roc_csv, summarize_reports, sweep
from netanom.gmm import EmConfig
from netanom.ingest import SamplePlan, default_schema, load_schema, parse_flow_csvs, stratified_sample
from netanom.preprocess import fit_preprocess

W_GRID = [1.5, 2.0, 2.5, 3.0]


def run_one(records, schema, args, seed, out_dir):
    plan = SamplePlan(args.size, args.normal_frac, args.train_frac, seed)
    train, test = stratified_sample(records, plan)
    pp = fit_preprocess(train, schema, args.features)
    train_matrix = pp.apply_records(train)
    k = train_matrix.shape[1] if args.components == "auto" else int(args.components)
    profile = train_profile(
        train_matrix, EmConfig(n_components=k, seed=seed), preprocess_digest=pp.digest()
    )
    scores = profile.score_matrix(pp.apply_records(test))
    reports = sweep(scores, [r.truth for r in test], profile, W_GRID)

    (out_dir / f"roc_seed{seed}.csv").write_text(roc_csv(reports), encoding="utf-8")
    (out_dir / f"reports_seed{seed}.json").write_text(
        pretty_dumps({"seed": seed, "points": [report_to_doc(r) for r in reports]})
    )
    return reports


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
        schema = load_schema(Path(args.schema)) if args.schema else default_schema()
        records = parse_flow_csvs(args.input, schema)
        print(f"loaded {len(records)} records from {len(args.input)} file(s)")
    else:
        schema = default_schema()
        records = synth.generate_records(args.corpus_rows, seed=args.seed, attack_fraction=0.35)
        print(f"synthesized {len(records)} records (seed={args.seed})")

    per_w_reports = []
    for i in range(args.samples):
        seed = args.seed + i
        reports = run_one(records, schema, args, seed, out_dir)
        per_w_reports.append(reports)
        print(f"\nsample seed={seed} ({args.size} records):")
        print(render_table(reports, include_reference=True))

    if args.samples > 1:
        print("\nacross samples (per w):")
        for wi, w in enumerate(W_GRID):
            summary = summarize_reports([reports[wi] for reports in per_w_reports])
            micro = summary["micro_pooled_records"]
            macro = summary["macro_mean_over_samples"]
            print(
                f"  w={w:g}: micro(pooled) DR={micro['detection_rate']:.4f} "
                f"FPR={micro['false_positive_rate']:.4f} acc={micro['accuracy']:.4f} | "
                f"macro(mean) DR={macro['detection_rate']:.4f} "
                f"FPR={macro['false_positive_rate']:.4f} acc={macro['accuracy']:.4f}"
            )
        (out_dir / "summary.json").write_text(
            pretty_dumps(
                {
                    f"w={w:g}": summarize_reports([r[wi] for r in per_w_reports])
                    for wi, w in enumerate(W_GRID)
                }
            )
        )
    print(f"\noutputs in {out_dir}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
