"""Command-line pipeline: sample, train, detect, evaluate, roc, simulate, synth.

Commands compose through files on disk and are reproducible: all randomness
flows from the --seed flag, and every run writes exactly one manifest next
to its outputs recording resolved parameters and input/output digests.

Exit codes: 0 success, 1 runtime or data error, 2 usage error.

Every command that reads a capture reads it through
``ingest.iter_flow_batches``, whose reader process parses the next batch
while the command works on this one. ``simulate`` reads the capture once
per pass, and its nodes classify their intervals as they fill.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import time
from contextlib import closing, contextmanager
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from ._docjson import digest_of_file, pretty_dumps
from .collab import SimulationError, load_simconfig, run_simulation, simconfig_to_doc
from .decision import (
    DecisionError,
    DetectionConfig,
    _fit_profile,
    ensure_bound,
    load_profile,
    save_profile,
    sides,
)
from .evaluation import BandTally, EvaluationError, render_table, report_to_doc, roc_csv
from .gmm import EmConfig, GmmError
from .ingest import (
    IngestError,
    SampleError,
    SamplePlan,
    copy_rows,
    default_schema,
    iter_flow_batches,
    load_schema,
    stratified_indices,
)
from .preprocess import (
    PreprocessError,
    fit_preprocess_batches,
    load_preprocess,
    parse_reduction_mode,
    save_preprocess,
    training_columns,
)

#: Most points a ``--w-grid`` may ask for.
MAX_GRID_POINTS = 10_000

#: The w at which ``train``'s manifest counts the training records outside the band.
FIT_GRID = (1.5, 2.0, 3.0)

_ERRORS = (
    IngestError,
    PreprocessError,
    GmmError,
    DecisionError,
    EvaluationError,
    SimulationError,
    OSError,
    ValueError,
)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except _ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _checked(convert, ok, requirement: str):
    """An argparse type: ``convert``, then a usage error naming the flag
    unless ``ok`` holds, raised while parsing, before any input is read.
    An ``ok`` that raises ``ValueError`` or :class:`PreprocessError` does
    not hold."""

    def parse(text: str):
        value = convert(text)
        try:
            good = ok(value)
        except (ValueError, PreprocessError):
            good = False
        if not good:
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text}")
        return value

    parse.__name__ = convert.__name__  # argparse's "invalid int value: ..."
    return parse


_SEED = _checked(int, lambda v: v >= 0, ">= 0")
_COUNT = _checked(int, lambda v: v >= 1, ">= 1")
_FRACTION = _checked(float, lambda v: 0.0 <= v <= 1.0, "in [0, 1]")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netanom",
        description="Flow anomaly detection: GMM density scoring with an IQR-band rule.",
    )
    parser.add_argument("--version", action="version", version=f"netanom {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw a seeded train/test split from flow CSVs")
    p.add_argument("--input", nargs="+", required=True, metavar="CSV")
    p.add_argument("--schema", default=None, help="schema JSON (default: bundled layout)")
    p.add_argument("--size", type=_COUNT, required=True, help="total records to draw")
    p.add_argument("--normal-frac", type=_FRACTION, default=0.65)
    p.add_argument("--train-frac", type=_FRACTION, default=0.6, help="share of normals used for training")
    p.add_argument("--seed", type=_SEED, default=0)
    p.add_argument("--out", required=True, metavar="DIR")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("train", help="fit preprocessing and a normal profile")
    p.add_argument("--train", required=True, metavar="CSV")
    p.add_argument("--schema", default=None)
    p.add_argument(
        "--features", type=_checked(str, parse_reduction_mode, "table1 or pca:<k>, k >= 1"),
        default="table1", help="table1 or pca:<k>",
    )
    p.add_argument(
        "--components", type=_checked(str, lambda v: v == "auto" or int(v) >= 1, "'auto' or an integer >= 1"),
        default="auto", help="mixture size K, or 'auto' (= feature count)",
    )
    p.add_argument("--tol", type=_checked(float, lambda v: v > 0 and math.isfinite(v), "finite and > 0"), default=1e-6)
    p.add_argument("--max-iter", type=_COUNT, default=200)
    p.add_argument("--seed", type=_SEED, default=0)
    p.add_argument("--out", required=True, metavar="PROFILE_JSON")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("detect", help="classify records against a profile")
    p.add_argument("--profile", required=True)
    p.add_argument("--preprocess", default=None, help="default: <profile less .json>.preprocess.json")
    p.add_argument("--input", required=True, metavar="CSV")
    p.add_argument("--w", type=float, default=1.5)
    p.add_argument("--allow-any-w", action="store_true")
    p.add_argument("--out", required=True, metavar="VERDICTS_CSV")
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("evaluate", help="metrics of one w on a labeled test set")
    p.add_argument("--profile", required=True)
    p.add_argument("--preprocess", default=None)
    p.add_argument("--test", required=True, metavar="CSV")
    p.add_argument("--w", type=float, required=True)
    p.add_argument("--allow-any-w", action="store_true")
    p.add_argument("--out", required=True, metavar="PREFIX")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("roc", help="sweep w over a grid and emit ROC data")
    p.add_argument("--profile", required=True)
    p.add_argument("--preprocess", default=None)
    p.add_argument("--test", required=True, metavar="CSV")
    p.add_argument("--w-grid", required=True, metavar="A:B:STEP")
    p.add_argument("--out", required=True, metavar="PREFIX")
    p.set_defaults(func=_cmd_roc)

    p = sub.add_parser("simulate", help="multi-node collaborative detection run")
    p.add_argument("--config", required=True, metavar="SIM_JSON")
    p.add_argument("--profile", required=True)
    p.add_argument("--preprocess", default=None)
    p.add_argument("--test", required=True, metavar="CSV")
    p.add_argument("--out", required=True, metavar="DIR")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("synth", help="generate a seeded synthetic flow CSV")
    p.add_argument("--rows", type=_COUNT, required=True)
    p.add_argument("--seed", type=_SEED, default=0)
    p.add_argument("--attack-frac", type=_FRACTION, default=0.35)
    p.add_argument("--schema-out", default=None, help="also write the bundled schema JSON here")
    p.add_argument("--out", required=True, metavar="CSV")
    p.set_defaults(func=_cmd_synth)

    return parser


def _load_schema_arg(path: str | None):
    return load_schema(Path(path)) if path else default_schema()


def _write_manifest(path: Path, args, inputs: list, outputs: list, started: float, resolved: dict, **blocks) -> None:
    """Write the manifest to ``path``. Its ``parameters`` are every flag that
    argparse parsed into ``args`` but ``seed``, which has its own key, then
    the ``resolved`` values the command derived from them."""
    parameters = {key: value for key, value in vars(args).items() if key not in ("command", "func", "seed")}
    doc = {
        "version": 1,
        "command": args.command,
        "parameters": {**parameters, **resolved},
        "seed": getattr(args, "seed", None),
        "artifact_version": __version__,
        "input_digests": {str(p): digest_of_file(p) for p in inputs},
        "output_digests": {str(p): digest_of_file(p) for p in outputs},
        **blocks,
        "duration_seconds": time.perf_counter() - started,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(pretty_dumps(doc), encoding="utf-8")


def _sibling(path: Path, tag: str) -> Path:
    """``path`` less a ``.json`` or ``.csv`` extension, then ``.<tag>.json``:
    ``profile.json`` gives ``profile.<tag>.json``, ``prof.a`` gives
    ``prof.a.<tag>.json``."""
    base = path.name[: -len(path.suffix)] if path.suffix in (".json", ".csv") else path.name
    return path.with_name(f"{base}.{tag}.json")


def _cmd_sample(args, parser) -> int:
    started = time.perf_counter()
    schema = _load_schema_arg(args.schema)
    # Pass 1 reads the truths alone, up to the first unlabeled row; pass 2 copies the chosen rows.
    truths = [np.empty(0, dtype=np.int8)]
    for path in args.input:
        with closing(iter_flow_batches(path, schema, ())) as batches:
            truths.extend(_labeled(batch, SampleError, "sampling needs labeled data") for batch in batches)
    truth = np.concatenate(truths)
    plan = SamplePlan(args.size, args.normal_frac, args.train_frac, args.seed)
    train_ids, test_ids = stratified_indices(truth, plan)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    train_path = out / "train_normal.csv"
    test_path = out / "test.csv"
    copy_rows(args.input, schema, [(train_path, train_ids), (test_path, test_ids)])
    inputs = list(args.input) + ([args.schema] if args.schema else [])
    _write_manifest(
        out / "manifest.json", args, inputs, [train_path, test_path], started, {},
        train_records=len(train_ids), test_records=len(test_ids),
    )
    print(f"sampled {len(train_ids)} training normals and {len(test_ids)} test records into {out}")
    return 0


def _cmd_train(args, parser) -> int:
    started = time.perf_counter()
    schema = _load_schema_arg(args.schema)
    batches = _training_batches(Path(args.train), schema, training_columns(schema, args.features))
    preprocess, matrix = fit_preprocess_batches(batches, schema, args.features)
    k = matrix.shape[1] if args.components == "auto" else int(args.components)
    cfg = EmConfig(n_components=k, max_iter=args.max_iter, tol=args.tol, seed=args.seed)
    profile, scores = _fit_profile(matrix, cfg, preprocess.digest())

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    preprocess_path = _sibling(out, "preprocess")
    profile_bytes = save_profile(profile)  # before any write: a failure leaves no output
    save_preprocess(preprocess, preprocess_path)
    out.write_bytes(profile_bytes)
    rep = profile.fit_report
    inputs = [args.train] + ([args.schema] if args.schema else [])
    _write_manifest(
        _sibling(out, "manifest"), args, inputs, [out, preprocess_path], started, {"components": k},
        records=len(matrix), em={key: value for key, value in asdict(rep).items() if key != "trace"},
        fit=_fit_doc(profile, scores),
    )
    if not rep.converged:
        print(f"warning: EM did not converge in {rep.iterations} iterations (tol={args.tol})", file=sys.stderr)
    print(
        f"trained K={k} profile on {len(matrix)} normals "
        f"(iterations={rep.iterations}, converged={rep.converged}); wrote {out}"
    )
    return 0


def _fit_doc(profile, scores: np.ndarray) -> dict:
    """``train``'s manifest ``fit`` block: each component's weight, how
    many of its variances lie within 1% of the variance floor and its
    smallest variance, then the edge counts of the training ``scores`` at
    each w of ``FIT_GRID``."""
    floor = 1.01 * profile.em_config.variance_floor
    tally = BandTally(FIT_GRID, profile)
    tally.add(scores, np.zeros(len(scores), np.int8))
    components = [
        {"weight": weight, "at_floor": int(np.count_nonzero(v <= floor)), "min_variance": float(v.min())}
        for weight, v in zip(profile.model.weights.tolist(), profile.model.variances)
    ]
    return {"components": components, "edges": tally.edges()}


def _training_batches(path: Path, schema, columns):
    """Yield each batch of the training file, once every row of the batch
    is checked to be labeled normal. A file without rows raises."""
    batch = None
    with closing(iter_flow_batches(path, schema, columns)) as batches:
        for batch in batches:
            bad = np.flatnonzero(batch.truth != 0)
            if bad.size:
                kind = "unlabeled" if batch.truth[bad[0]] < 0 else "attack-labeled"
                raise IngestError(f"{kind} row in training input: {batch.file_id} row {batch.rows[bad[0]]}")
            yield batch
    if batch is None:
        raise IngestError("training file has no records")


def _load_pipeline(args):
    profile_path = Path(args.profile)
    preprocess_path = Path(args.preprocess) if args.preprocess else _sibling(profile_path, "preprocess")
    profile = load_profile(profile_path.read_bytes())
    preprocess = load_preprocess(preprocess_path)
    ensure_bound(profile, preprocess)
    return profile, preprocess, profile_path, preprocess_path


def _detection_config(args, parser) -> DetectionConfig:
    try:
        return DetectionConfig(args.w, enforce_range=not args.allow_any_w)
    except DecisionError as exc:
        parser.error(str(exc))


@contextmanager
def _scored_batches(path, profile, preprocess):
    """Yield an iterator of ``(batch, scores)`` for each :class:`FlowBatch`
    of the capture at ``path``. A reader process parses the next batch
    while this one is encoded, scored and used (``ingest.iter_flow_batches``);
    leaving the block ends it."""
    with closing(iter_flow_batches(path, preprocess.schema, preprocess.columns)) as batches:
        yield ((batch, profile.score_matrix(preprocess.apply(batch))) for batch in batches)


def _cmd_detect(args, parser) -> int:
    started = time.perf_counter()
    det = _detection_config(args, parser)
    profile, preprocess, profile_path, preprocess_path = _load_pipeline(args)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    # Verdicts go to a sibling that replaces ``out`` only once every row is
    # scored, so a bad row in a later batch leaves no verdicts file.
    partial = out.with_name(out.name + ".tmp")
    tally = BandTally([det.w])
    try:
        with partial.open("w", encoding="utf-8") as fh:
            fh.write("origin_file,origin_row,score,label\n")
            with _scored_batches(args.input, profile, preprocess) as scored:
                for batch, scores in scored:
                    side = sides(scores, profile, det)
                    fh.writelines(
                        f"{batch.file_id},{row},{score!r},{'attack' if outside else 'normal'}\n"
                        for row, score, outside in zip(batch.rows.tolist(), scores.tolist(), side.tolist())
                    )
                    tally.add_sides(side)
        os.replace(partial, out)
    finally:
        partial.unlink(missing_ok=True)
    below, above = int(tally.below.sum()), int(tally.above.sum())
    _write_manifest(
        _sibling(out, "manifest"), args, [profile_path, preprocess_path, args.input], [out], started,
        {"preprocess": str(preprocess_path)}, records=int(tally.seen.sum()), flagged=below + above, below=below, above=above,
    )
    print(f"classified {tally.seen.sum()} records at w={args.w:g}; wrote {out}")
    return 0


def _labeled(batch, error: type[Exception], need: str) -> np.ndarray:
    """``batch``'s truths; its first unlabeled row raises ``error``, naming the row and the ``need``."""
    unlabeled = np.flatnonzero(batch.truth < 0)
    if unlabeled.size:
        raise error(f"unlabeled row: {batch.file_id} row {batch.rows[unlabeled[0]]}; {need}")
    return batch.truth


def _cmd_evaluate(args, parser) -> int:
    det = _detection_config(args, parser)
    return _sweep_command(
        args, [det.w], lambda reports: {".json": pretty_dumps(report_to_doc(reports[0])), ".txt": render_table(reports)}
    )


def _cmd_roc(args, parser) -> int:
    grid = _parse_w_grid(args.w_grid, parser)
    return _sweep_command(
        args, grid,
        lambda reports: {
            ".csv": roc_csv(reports),
            ".json": pretty_dumps({"version": 1, "points": [report_to_doc(r) for r in reports]}),
            ".txt": render_table(reports, include_reference=True),
        },
    )


def _sweep_command(args, grid: list[float], texts) -> int:
    """Score the labeled ``--test`` capture one batch at a time and count
    each batch at every w of ``grid`` as it is scored: only the counts
    outlive a batch. Then write ``<prefix><suffix>`` for each item of
    ``texts(reports)``, the manifest ``<prefix>.manifest.json`` (the
    ``--out`` prefix as given, dots and all), and print the table."""
    started = time.perf_counter()
    profile, preprocess, profile_path, preprocess_path = _load_pipeline(args)
    tally = BandTally(grid, profile)
    with _scored_batches(args.test, profile, preprocess) as scored:
        for batch, scores in scored:
            tally.add(scores, _labeled(batch, EvaluationError, "metrics need ground truth"))
    reports = tally.reports()
    prefix = Path(args.out)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    outputs = {prefix.with_name(prefix.name + suffix): text for suffix, text in texts(reports).items()}
    for path, text in outputs.items():
        path.write_text(text, encoding="utf-8")
    _write_manifest(
        prefix.with_name(prefix.name + ".manifest.json"), args, [profile_path, preprocess_path, args.test], list(outputs), started,
        {"preprocess": str(preprocess_path)}, records=reports[0].counts.total, edges=tally.edges(),
    )
    print(render_table(reports), end="")
    return 0


def _parse_w_grid(spec: str, parser) -> list[float]:
    parts = spec.split(":")
    if len(parts) != 3:
        parser.error("--w-grid must look like A:B:STEP, e.g. 1.5:3:0.5")
    try:
        a, b, step = (float(x) for x in parts)
    except ValueError:
        parser.error("--w-grid values must be numbers")
    if not all(map(math.isfinite, (a, b, step))):
        parser.error("--w-grid values must be finite")
    if step <= 0 or a < 0 or b < a:
        parser.error("--w-grid needs 0 <= A <= B and STEP > 0")
    steps = (b - a + 1e-9) / step  # the grid holds int(steps) + 1 points
    if steps >= MAX_GRID_POINTS:
        parser.error(f"--w-grid may hold at most {MAX_GRID_POINTS} points")
    return [round(w, 12) for i in range(int(steps) + 1) if (w := a + i * step) <= b + 1e-9]


def _cmd_simulate(args, parser) -> int:
    started = time.perf_counter()
    cfg = load_simconfig(args.config)
    profile, preprocess, profile_path, preprocess_path = _load_pipeline(args)
    hashed = (cfg.hash_column,) if cfg.assignment == "hash-of-source" else ()
    source = functools.partial(iter_flow_batches, args.test, preprocess.schema, preprocess.columns + hashed)
    outcome = run_simulation(source, profile, preprocess, cfg)
    records = outcome.n_records

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    texts = {f"node_{node}.json": pretty_dumps(report_to_doc(report)) for node, report in outcome.per_node_reports.items()}
    texts["aggregate.json"] = pretty_dumps(report_to_doc(outcome.aggregate_report))
    texts["aggregate.txt"] = render_table([outcome.aggregate_report])
    for name, text in texts.items():
        (out / name).write_text(text, encoding="utf-8")

    fields = ("attempts", "errors", "n_records", "frames", "wire_bytes", "wall_s")
    nodes = {node: {key: getattr(r, key) for key in fields} | r.tally.edges()[0] for node, r in outcome.node_results.items()}
    # The outcome sits under ``parameters``, not beside it, because bench/run.py reads it there.
    _write_manifest(
        out / "manifest.json", args, [args.config, profile_path, preprocess_path, args.test], [out / name for name in texts], started,
        {
            "preprocess": str(preprocess_path),
            "simulation": simconfig_to_doc(cfg),
            "nodes": nodes,
            "failed_nodes": list(outcome.failed_nodes),
            "partial": outcome.partial,
            "records": records,
        },
    )
    status = f"partial (failed: {', '.join(outcome.failed_nodes)})" if outcome.partial else "complete"
    print(f"simulated {len(cfg.nodes)} node(s) over {records} records [{status}]; wrote {out}")
    return 0


def _cmd_synth(args, parser) -> int:
    from .ingest import save_schema
    from .synth import write_synthetic_csv

    started = time.perf_counter()
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    summary = write_synthetic_csv(out, args.rows, args.seed, args.attack_frac)
    outputs = [out]
    if args.schema_out:
        save_schema(default_schema(), args.schema_out)
        outputs.append(Path(args.schema_out))
    _write_manifest(_sibling(out, "manifest"), args, [], outputs, started, {})
    print(f"wrote {summary['rows']} rows ({summary['normal']} normal / {summary['attack']} attack) to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
