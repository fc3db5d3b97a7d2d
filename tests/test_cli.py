import csv
import hashlib
import io
import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import netanom
from netanom import ingest
from netanom.cli import MAX_GRID_POINTS, _build_parser, _parse_w_grid, main
from netanom.evaluation import confusion

from conftest import written


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


def _write_csv(path, schema, rows):
    """The schema's header and ``rows`` of field texts, as ``csv.writer``
    writes them."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(schema.names)
        writer.writerows(rows)


def _write_unlabeled(workspace, path, schema):
    """The first 10 test records with their label column blanked."""
    from netanom.ingest import parse_flow_csv

    records = parse_flow_csv(workspace / "split" / "test.csv", schema)[:10]
    stripped = []
    for r in records:
        vals = list(r.values)
        vals[schema.label_index] = ""
        stripped.append(vals)
    _write_csv(path, schema, stripped)
    return path


def _read_verdicts(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


#: Runs the command in argv[1:] as a child and prints its exit code and
#: ru_maxrss. The child is started from this small process, not from the
#: test process: Linux counts the RSS of the forking image in a child's
#: ru_maxrss.
_MAXRSS_PROBE = (
    "import os, subprocess, sys\n"
    "p = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)\n"
    "_, status, usage = os.wait4(p.pid, 0)\n"
    "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
)


def _peak_kib(argv) -> int:
    """The peak RSS, in KiB, of ``python -m netanom.cli *argv`` run through
    :data:`_MAXRSS_PROBE`; the command must exit 0."""
    env = {**os.environ, "PYTHONPATH": str(Path(netanom.__file__).resolve().parents[1])}
    probe = subprocess.run(
        [sys.executable, "-c", _MAXRSS_PROBE, sys.executable, "-m", "netanom.cli", *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    code, maxrss_kib = map(int, probe.stdout.split())
    assert code == 0, probe.stderr
    return maxrss_kib


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

    @pytest.mark.parametrize("inputs", [1, 2])
    def test_unlabeled_row_is_named(self, workspace, tmp_path, monkeypatch, capsys, inputs):
        """An empty label at data row 500, in a later batch, names its file
        and row, also when that file is the second input."""
        monkeypatch.setattr(ingest, "BATCH_ROWS", 64)
        lines = (workspace / "data.csv").read_text().splitlines()
        lines[500] = lines[500][: lines[500].rindex(",") + 1]  # empty label field
        capture = tmp_path / "cap.csv"
        capture.write_text("\n".join(lines) + "\n")
        paths = [workspace / "data.csv", capture][-inputs:]
        out = tmp_path / "out"
        argv = ["sample", "--input", *map(str, paths), "--schema", str(workspace / "schema.json"), "--size", "100", "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: unlabeled row: cap.csv row 500; sampling needs labeled data\n"
        assert not out.exists()


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
        from netanom.ingest import parse_flow_csv

        records = parse_flow_csv(workspace / "split" / "test.csv", schema)
        dirty = tmp_path / "dirty.csv"
        _write_csv(dirty, schema, [r.values for r in records[:50]])
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

    def test_training_records_encoded_once(self, workspace, tmp_path, monkeypatch, schema):
        """Each training row is encoded exactly once, whatever the batch size."""
        from netanom import preprocess
        from netanom.ingest import parse_flow_csv

        train = workspace / "split" / "train_normal.csv"
        encode, rows = preprocess._encode_columns, []
        monkeypatch.setattr(preprocess, "_encode_columns", lambda *args: rows.append(len(args[0])) or encode(*args))
        monkeypatch.setattr(ingest, "BATCH_ROWS", 100)
        assert main([
            "train", "--train", str(train),
            "--schema", str(workspace / "schema.json"), "--components", "2", "--out", str(tmp_path / "p.json"),
        ]) == 0
        assert len(rows) > 1 and max(rows) == 100
        assert sum(rows) == len(parse_flow_csv(train, schema))

    @pytest.mark.parametrize("features", ["table1", "pca:3"])
    def test_profile_matches_apply_records(self, workspace, tmp_path, schema, features):
        from netanom.decision import save_profile, train_profile
        from netanom.gmm import EmConfig
        from netanom.ingest import parse_flow_csv
        from netanom.preprocess import fit_preprocess

        train = workspace / "split" / "train_normal.csv"
        out = tmp_path / "p.json"
        assert main([
            "train", "--train", str(train), "--schema", str(workspace / "schema.json"),
            "--features", features, "--components", "3", "--seed", "4", "--out", str(out),
        ]) == 0
        records = parse_flow_csv(train, schema)
        pp = fit_preprocess(records, schema, features)
        profile = train_profile(pp.apply_records(records), EmConfig(3, seed=4), preprocess_digest=pp.digest())
        assert out.read_bytes() == save_profile(profile)

    def test_bad_components_usage_error(self, workspace, tmp_path):
        with pytest.raises(SystemExit) as err:
            main([
                "train", "--train", str(workspace / "split" / "train_normal.csv"),
                "--components", "many", "--out", str(tmp_path / "x.json"),
            ])
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "command, flag, value",
        [("train", "--tol", v) for v in ("nan", "inf", "-inf", "0", "-1e-6")]
        + [("train", "--max-iter", "0"), ("train", "--max-iter", "-3")]
        + [(command, "--seed", "-1") for command in ("train", "sample", "synth")]
        + [("sample", "--size", "0"), ("sample", "--normal-frac", "1.5"), ("sample", "--train-frac", "nan")]
        + [("synth", "--rows", "0"), ("synth", "--attack-frac", "-0.1")]
        + [("train", "--components", "0"), ("train", "--features", "pca:0")],
    )
    def test_bad_setting_is_a_usage_error_before_any_read(
        self, workspace, tmp_path, monkeypatch, capsys, command, flag, value
    ):
        def never(*args, **kwargs):
            raise AssertionError("input read before the settings were checked")

        monkeypatch.setattr("netanom.cli.iter_flow_batches", never)
        monkeypatch.setattr("netanom.synth.write_synthetic_csv", never)
        out = tmp_path / "out"
        argv = {
            "train": ["--train", str(workspace / "split" / "train_normal.csv"), "--out", str(out / "p.json")],
            "sample": ["--input", str(workspace / "data.csv"), "--size", "100", "--out", str(out)],
            "synth": ["--rows", "10", "--out", str(out / "s.csv")],
        }[command]
        with pytest.raises(SystemExit) as err:
            main([command, *argv, f"{flag}={value}"])
        assert err.value.code == 2
        assert f"argument {flag}: must be " in capsys.readouterr().err
        assert not out.exists()


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

    def test_paths_starting_with_a_brace_are_files(self, workspace, tmp_path, monkeypatch):
        run = tmp_path / "{run}"
        run.mkdir()
        for name in ("schema.json", "profile.json", "profile.preprocess.json"):
            (run / name).write_bytes((workspace / name).read_bytes())
        test = str(workspace / "split" / "test.csv")
        assert main(["detect", "--profile", str(workspace / "profile.json"), "--input", test,
                     "--w", "2", "--out", str(tmp_path / "v.csv")]) == 0
        monkeypatch.chdir(tmp_path)
        assert main(["detect", "--profile", "{run}/profile.json", "--input", test,
                     "--w", "2", "--out", "{run}/v.csv"]) == 0
        assert (run / "v.csv").read_bytes() == (tmp_path / "v.csv").read_bytes()
        assert main(["train", "--train", str(workspace / "split" / "train_normal.csv"),
                     "--schema", "{run}/schema.json", "--components", "2", "--out", "{run}/p.json"]) == 0
        assert json.loads((run / "p.json").read_text())["K"] == 2

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

    def test_non_finite_w_usage_error(self, workspace, tmp_path):
        with pytest.raises(SystemExit) as err:
            main([
                "detect", "--profile", str(workspace / "profile.json"),
                "--input", str(workspace / "split" / "test.csv"),
                "--w", "nan", "--allow-any-w", "--out", str(tmp_path / "v.csv"),
            ])
        assert err.value.code == 2
        assert not (tmp_path / "v.csv").exists()


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
        manifest = json.loads((tmp_path / "verdicts.manifest.json").read_text())
        assert (manifest["records"], manifest["flagged"]) == (len(rows), counts.tp + counts.fp)

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

    @pytest.mark.parametrize("grid", ["1.5:inf:0.5", "nan:3:0.5", "1.5:3:nan", "1.5:3:inf"])
    def test_non_finite_grid_usage_error(self, workspace, tmp_path, capsys, grid):
        with pytest.raises(SystemExit) as err:
            main([
                "roc", "--profile", str(workspace / "profile.json"),
                "--test", str(workspace / "split" / "test.csv"),
                "--w-grid", grid, "--out", str(tmp_path / "r"),
            ])
        assert err.value.code == 2
        assert "--w-grid values must be finite" in capsys.readouterr().err

    # The grid takes every point up to B + 1e-9, so a tiny STEP makes many
    # points even when A equals B.
    @pytest.mark.parametrize("grid", ["0:1e9:1e-3", "0:0:1e-300", "1.5:1.5:1e-14"])
    def test_too_long_grid_usage_error(self, workspace, tmp_path, capsys, grid):
        with pytest.raises(SystemExit) as err:
            main([
                "roc", "--profile", str(workspace / "profile.json"),
                "--test", str(workspace / "split" / "test.csv"),
                "--w-grid", grid, "--out", str(tmp_path / "r"),
            ])
        assert err.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert errors == [f"netanom: error: --w-grid may hold at most {MAX_GRID_POINTS} points"]
        assert not list(tmp_path.iterdir())

    def test_dotted_prefixes_keep_separate_files(self, workspace, tmp_path):
        """Each suffix is appended to the --out prefix as given, so w2.0 and
        w2.5 do not both name w2.*, and roc.v1 names roc.v1.*."""
        common = ["--profile", str(workspace / "profile.json"), "--test", str(workspace / "split" / "test.csv")]
        for w in ("2.0", "2.5"):
            assert main(["evaluate", *common, "--w", w, "--out", str(tmp_path / f"w{w}")]) == 0
        assert main(["roc", *common, "--w-grid", "1.5:3:0.5", "--out", str(tmp_path / "roc.v1")]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            [f"w{w}{suffix}" for w in ("2.0", "2.5") for suffix in (".json", ".txt", ".manifest.json")]
            + [f"roc.v1{suffix}" for suffix in (".csv", ".json", ".txt", ".manifest.json")]
        )
        for w in ("2.0", "2.5"):
            assert json.loads((tmp_path / f"w{w}.json").read_text())["w"] == float(w)
            manifest = json.loads((tmp_path / f"w{w}.manifest.json").read_text())
            assert manifest["parameters"]["w"] == float(w)
            assert list(manifest["output_digests"]) == [str(tmp_path / f"w{w}.json"), str(tmp_path / f"w{w}.txt")]

    def test_grid_length_bound(self):
        parser = _build_parser()
        assert len(_parse_w_grid(f"0:{MAX_GRID_POINTS - 1}:1", parser)) == MAX_GRID_POINTS
        assert len(_parse_w_grid("0:0:1e-12", parser)) == 1001  # 0, 1e-12, ..., 1e-9
        with pytest.raises(SystemExit):
            _parse_w_grid(f"0:{MAX_GRID_POINTS}:1", parser)

    def test_unlabeled_test_rejected(self, workspace, tmp_path, schema):
        unlabeled = _write_unlabeled(workspace, tmp_path / "unlabeled.csv", schema)
        assert main([
            "evaluate", "--profile", str(workspace / "profile.json"),
            "--test", str(unlabeled), "--w", "2", "--out", str(tmp_path / "r"),
        ]) == 1


def _train_lines(workspace, n):
    """Header plus the first ``n`` data lines of the workspace's training normals."""
    return (workspace / "split" / "train_normal.csv").read_text().splitlines()[: n + 1]


def _train_args(train, out, features="table1"):
    return ["train", "--train", str(train), "--features", features, "--components", "2", "--seed", "4", "--out", str(out)]


class TestStreamedTrainAndSample:
    """train fits from FlowBatches; sample reads truths, then copies rows."""

    @settings(max_examples=10)
    @given(
        batch_rows=st.sampled_from([1, 7, 8192]),
        n=st.integers(10, 200),
        features=st.sampled_from(["table1", "pca:3"]),
    )
    def test_train_outputs_do_not_depend_on_the_batch_size(self, workspace, schema, batch_rows, n, features):
        from netanom._docjson import pretty_dumps
        from netanom.decision import save_profile, train_profile
        from netanom.gmm import EmConfig
        from netanom.ingest import parse_flow_csv
        from netanom.preprocess import fit_preprocess, preprocess_to_doc

        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            train = tmp / "train.csv"
            train.write_text("\n".join(_train_lines(workspace, n)) + "\n")

            # Reference: the whole file as records, fitted at once.
            records = parse_flow_csv(train, schema)
            pp = fit_preprocess(records, schema, features)
            profile = train_profile(pp.apply_records(records), EmConfig(2, seed=4), preprocess_digest=pp.digest())

            out = tmp / "p.json"
            with mock.patch.object(ingest, "BATCH_ROWS", batch_rows):
                assert main(_train_args(train, out, features)) == 0
            assert out.read_bytes() == save_profile(profile)
            assert (tmp / "p.preprocess.json").read_text() == pretty_dumps(preprocess_to_doc(pp))
            assert json.loads((tmp / "p.manifest.json").read_text())["records"] == n

    @settings(max_examples=10)
    @given(
        batch_rows=st.sampled_from([1, 7, 8192]),
        cut=st.integers(0, 300),
        size=st.integers(1, 200),
        seed=st.integers(0, 3),
    )
    def test_sample_outputs_do_not_depend_on_the_batch_size(self, workspace, schema, batch_rows, cut, size, seed):
        from netanom.ingest import SampleError, SamplePlan, parse_flow_csv, stratified_sample

        lines = (workspace / "data.csv").read_text().splitlines()[:301]
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            first, second = tmp / "a.csv", tmp / "b.csv"
            first.write_text("\n".join(lines[: cut + 1]) + "\n")  # with the header
            second.write_text("".join(line + "\n" for line in lines[cut + 1 :]))  # without one

            out = tmp / "out"
            argv = ["sample", "--input", str(first), str(second), "--size", str(size), "--normal-frac", "0.6",
                    "--train-frac", "0.5", "--seed", str(seed), "--out", str(out)]
            try:
                records = [r for path in (first, second) for r in parse_flow_csv(path, schema)]
                train, test = stratified_sample(records, SamplePlan(size, 0.6, 0.5, seed))
            except SampleError:
                with mock.patch.object(ingest, "BATCH_ROWS", batch_rows):
                    assert main(argv) == 1
                assert not out.exists()
                return
            _write_csv(tmp / "train_normal.csv", schema, [r.values for r in train])
            _write_csv(tmp / "test.csv", schema, [r.values for r in test])

            with mock.patch.object(ingest, "BATCH_ROWS", batch_rows):
                assert main(argv) == 0
            for name in ("train_normal.csv", "test.csv"):
                assert (out / name).read_bytes() == (tmp / name).read_bytes(), name
            manifest = json.loads((out / "manifest.json").read_text())
            assert (manifest["train_records"], manifest["test_records"]) == (len(train), len(test))

    @pytest.mark.parametrize("fault", ["unlabeled", "attack-labeled", "short-row", "non-numeric"])
    def test_bad_row_in_a_later_batch_names_it(self, workspace, schema, tmp_path, monkeypatch, capsys, fault):
        monkeypatch.setattr(ingest, "BATCH_ROWS", 5)
        bad = ingest.BATCH_ROWS + 3
        lines = _train_lines(workspace, 20)
        fields = lines[bad].split(",")  # lines[0] is the header
        if fault == "unlabeled":
            fields[schema.label_index] = ""
        elif fault == "attack-labeled":
            fields[schema.label_index] = schema.positive_label_value
        elif fault == "short-row":
            fields.pop()
        else:
            fields[schema.index_of("tcprtt")] = "fast"
        lines[bad] = ",".join(fields)
        train = tmp_path / "train.csv"
        train.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        assert main(_train_args(train, out / "p.json")) == 1
        assert capsys.readouterr().err == "error: " + {
            "unlabeled": f"unlabeled row in training input: train.csv row {bad}",
            "attack-labeled": f"attack-labeled row in training input: train.csv row {bad}",
            "short-row": f"train.csv, row {bad}: expected 49 fields, got 48",
            "non-numeric": f"train.csv, row {bad}: column 'tcprtt': non-numeric value 'fast'",
        }[fault] + "\n"
        assert not out.exists()  # no profile, no preprocess, no manifest

    def test_a_byte_that_is_not_utf8_names_its_line(self, workspace, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(ingest, "BATCH_ROWS", 5)
        # Past the text stream's first 8 KiB decode, so earlier batches are read first.
        bad = 100
        lines = [line.encode() for line in _train_lines(workspace, 120)]
        assert sum(map(len, lines[:bad])) > 8192
        lines[bad] = b"\xff" + lines[bad]
        train = tmp_path / "train.csv"
        train.write_bytes(b"\n".join(lines) + b"\n")
        out = tmp_path / "out"
        assert main(_train_args(train, out / "p.json")) == 1
        assert capsys.readouterr().err == f"error: train.csv line {bad + 1}: not UTF-8 text (byte 0xff: invalid start byte)\n"
        assert not out.exists()

    def test_train_errors_come_in_file_order(self, workspace, schema, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(ingest, "BATCH_ROWS", 5)
        lines = _train_lines(workspace, 20)
        early = lines[2].split(",")
        early[schema.index_of("tcprtt")] = "fast"
        lines[2] = ",".join(early)
        late = lines[8].split(",")
        late[schema.label_index] = schema.positive_label_value
        lines[8] = ",".join(late)
        train = tmp_path / "train.csv"
        train.write_text("\n".join(lines) + "\n")
        assert main(_train_args(train, tmp_path / "out" / "p.json")) == 1
        assert capsys.readouterr().err == "error: train.csv, row 2: column 'tcprtt': non-numeric value 'fast'\n"

    @pytest.mark.parametrize("command", ["train", "sample"])
    def test_bad_row_ends_a_reader_still_reading(self, workspace, schema, tmp_path, monkeypatch, forked, command):
        """train rejects an attack-labeled row, and sample an unlabeled one,
        in batch 2 of about 1,000; the reader process, still reading or
        blocked on the full pipe, is killed and reaped before the error
        line is written."""
        readers = []  # the reader processes' states at each write to stderr

        class Stderr(io.StringIO):
            def write(self, text):
                readers.append(list(forked.values()))
                return super().write(text)

        monkeypatch.setattr(sys, "stderr", Stderr())
        monkeypatch.setattr(ingest, "BATCH_ROWS", 5)
        bad = ingest.BATCH_ROWS + 3
        header, *body = (workspace / "split" / "train_normal.csv" if command == "train" else workspace / "data.csv").read_text().splitlines()
        fields = body[bad - 1].split(",")
        fields[schema.label_index] = schema.positive_label_value if command == "train" else ""
        body[bad - 1] = ",".join(fields)
        capture = tmp_path / "capture.csv"
        capture.write_text("\n".join([header, *body * -(-5000 // len(body))]) + "\n")
        out = tmp_path / "out"
        if command == "train":
            argv, error = _train_args(capture, out / "p.json"), f"attack-labeled row in training input: capture.csv row {bad}"
        else:
            argv = ["sample", "--input", str(capture), "--size", "100", "--out", str(out)]
            error = f"unlabeled row: capture.csv row {bad}; sampling needs labeled data"
        assert main(argv) == 1
        assert sys.stderr.getvalue() == f"error: {error}\n"
        assert not out.exists()
        assert readers[0] == list(forked.values()) == [-signal.SIGKILL]

    def test_sample_peak_memory_is_flat_in_the_input_size(self, tmp_path):
        from netanom.synth import write_synthetic_csv

        once, four = tmp_path / "once.csv", tmp_path / "four.csv"
        write_synthetic_csv(once, 20_000, seed=11)
        header, body = once.read_text().split("\n", 1)
        four.write_text(header + "\n" + body * 4)
        peaks = []
        for corpus in (once, four):
            argv = ["sample", "--input", str(corpus), "--size", "5000", "--seed", "1", "--out", str(tmp_path / corpus.stem)]
            peaks.append(_peak_kib(argv) / 1024)
        assert peaks[1] - peaks[0] < 8, f"sample: peak RSS {peaks[0]:.1f} -> {peaks[1]:.1f} MB at 4x the rows"

    def test_train_peak_memory_per_record(self, tmp_path):
        from netanom.synth import write_synthetic_csv

        once, four = tmp_path / "once.csv", tmp_path / "four.csv"
        write_synthetic_csv(once, 20_000, seed=11, attack_fraction=0.0)
        header, body = once.read_text().split("\n", 1)
        four.write_text(header + "\n" + body * 4)
        peaks_kib = []
        for train in (once, four):
            argv = ["train", "--train", str(train), "--max-iter", "5", "--out", str(tmp_path / train.stem / "p.json")]
            peaks_kib.append(_peak_kib(argv))
        per_record = (peaks_kib[1] - peaks_kib[0]) / 60_000
        # The (N, d) training matrix and EM's (2d, N) and (K, N) arrays grow
        # with N; the field texts are held one batch at a time. Measured 0.45
        # KiB per record; 2.8 when train parsed whole records.
        assert per_record < 1.0, (
            f"peak RSS {peaks_kib[0]} -> {peaks_kib[1]} KiB: {per_record:.2f} KiB per added record"
        )

    def test_synth_peak_memory_per_row(self, tmp_path):
        peaks_kib = []
        for rows in (20_000, 80_000):
            argv = ["synth", "--rows", str(rows), "--seed", "11", "--out", str(tmp_path / f"{rows}.csv")]
            peaks_kib.append(_peak_kib(argv))
        per_row = (peaks_kib[1] - peaks_kib[0]) / 60_000
        # The 49 generated columns grow with the rows (43 of 8 bytes, the 6
        # text columns as 1-byte codes); each is shuffled as it is merged
        # from the family blocks, and the bytes are built one slice of rows
        # at a time. Measured 0.46 KiB per row; 0.55 with text columns held
        # as strings, 3.7 when every field was formatted at once.
        assert per_row < 0.55, f"peak RSS {peaks_kib[0]} -> {peaks_kib[1]} KiB: {per_row:.2f} KiB per added row"


def _capture_lines(workspace, n):
    """Header plus the first ``n`` data lines of the workspace's test split."""
    return (workspace / "split" / "test.csv").read_text().splitlines()[: n + 1]


def _reading_args(workspace, command, out):
    """argv for ``command`` on the workspace's files, writing into ``out``:
    ``sample`` reads two input files, the others one."""
    split = workspace / "split"
    if command == "sample":
        return ["sample", "--input", str(workspace / "data.csv"), str(split / "test.csv"), "--size", "100", "--out", str(out)]
    if command == "train":
        return _train_args(split / "train_normal.csv", out / "p.json")
    if command == "simulate":
        config = out.parent / f"{out.name}.sim.json"
        config.write_text(json.dumps({"version": 1, "nodes": ["A", "B"], "w": 2.0, "transport": "loopback-socket"}))
        return _simulate_args(workspace, split / "test.csv", config, out)
    return _stream_args(workspace, command, split / "test.csv", out)


def _stream_args(workspace, command, capture, out, w="2"):
    """argv for one streamed command (detect, evaluate or roc) on ``capture``."""
    common = ["--profile", str(workspace / "profile.json")]
    if command == "detect":
        return ["detect", *common, "--input", str(capture), "--w", w, "--out", str(out / "verdicts.csv")]
    if command == "evaluate":
        return ["evaluate", *common, "--test", str(capture), "--w", w, "--out", str(out / "eval")]
    return ["roc", *common, "--test", str(capture), "--w-grid", "1.5:3:0.5", "--out", str(out / "roc")]


class TestStreamedCommands:
    """detect, evaluate and roc score the capture one FlowBatch at a time.
    Every command reads each capture file through one reader process."""

    @settings(max_examples=10)
    @given(batch_rows=st.sampled_from([1, 7, 8192]), n=st.integers(1, 200), w=st.sampled_from([1.5, 2.0, 3.0]))
    def test_outputs_do_not_depend_on_the_batch_size(self, workspace, batch_rows, n, w):
        from netanom._docjson import pretty_dumps
        from netanom.decision import DetectionConfig, classify_scores, load_profile
        from netanom.evaluation import render_table, report_to_doc, roc_csv, sweep
        from netanom.ingest import parse_flow_csv
        from netanom.preprocess import load_preprocess

        profile = load_profile((workspace / "profile.json").read_bytes())
        pp = load_preprocess(workspace / "profile.preprocess.json")
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            capture = tmp / "capture.csv"
            capture.write_text("\n".join(_capture_lines(workspace, n)) + "\n")

            # Reference: the whole file as records, scored at once.
            records = parse_flow_csv(capture, pp.schema)
            scores = profile.score_matrix(pp.apply_records(records))
            truths = [r.truth for r in records]
            flagged = classify_scores(scores, profile, DetectionConfig(w))
            (report,) = sweep([(scores, truths)], profile, [w])
            reports = sweep([(scores, truths)], profile, [1.5, 2.0, 2.5, 3.0])
            expected = {
                "verdicts.csv": "origin_file,origin_row,score,label\n" + "".join(
                    f"{r.origin[0]},{r.origin[1]},{float(s)!r},{'attack' if f else 'normal'}\n"
                    for r, s, f in zip(records, scores, flagged)
                ),
                "eval.json": pretty_dumps(report_to_doc(report)),
                "eval.txt": render_table([report]),
                "roc.csv": roc_csv(reports),
                "roc.json": pretty_dumps({"version": 1, "points": [report_to_doc(r) for r in reports]}),
                "roc.txt": render_table(reports, include_reference=True),
            }

            out = tmp / "out"
            with mock.patch.object(ingest, "BATCH_ROWS", batch_rows):
                for command in ("detect", "evaluate", "roc"):
                    assert main(_stream_args(workspace, command, capture, out, str(w))) == 0
            for name, text in expected.items():
                assert (out / name).read_text() == text, name

    @pytest.mark.parametrize("fault", ["short-row", "non-numeric"])
    def test_bad_row_in_a_later_batch_leaves_no_verdicts(self, workspace, schema, tmp_path, monkeypatch, capsys, fault):
        monkeypatch.setattr(ingest, "BATCH_ROWS", 5)
        bad = ingest.BATCH_ROWS + 3
        lines = _capture_lines(workspace, 20)
        fields = lines[bad].split(",")  # lines[0] is the header
        if fault == "short-row":
            fields.pop()
        else:
            fields[schema.index_of("tcprtt")] = "fast"
        lines[bad] = ",".join(fields)
        capture = tmp_path / "capture.csv"
        capture.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        assert main(_stream_args(workspace, "detect", capture, out)) == 1
        assert capsys.readouterr().err == f"error: capture.csv, row {bad}: " + (
            "expected 49 fields, got 48\n" if fault == "short-row" else "column 'tcprtt': non-numeric value 'fast'\n"
        )
        assert not any(out.glob("*"))  # no verdicts, no partial file, no manifest

    @pytest.mark.parametrize("command", ["evaluate", "roc"])
    def test_unlabeled_row_in_a_later_batch_names_it(self, workspace, tmp_path, monkeypatch, capsys, command):
        monkeypatch.setattr(ingest, "BATCH_ROWS", 5)
        bad = ingest.BATCH_ROWS + 3
        lines = _capture_lines(workspace, 20)
        lines[bad] = lines[bad][: lines[bad].rindex(",") + 1]  # empty label field
        capture = tmp_path / "capture.csv"
        capture.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        assert main(_stream_args(workspace, command, capture, out)) == 1
        assert capsys.readouterr().err == f"error: unlabeled row: capture.csv row {bad}; metrics need ground truth\n"
        assert not out.exists()

    def test_a_byte_that_is_not_utf8_names_its_line(self, workspace, tmp_path, monkeypatch, capsys, forked):
        monkeypatch.setattr(ingest, "BATCH_ROWS", 5)
        # Past the text stream's first 8 KiB decode, so earlier batches are scored first.
        bad = 100
        lines = [line.encode() for line in _capture_lines(workspace, 120)]
        assert sum(map(len, lines[:bad])) > 8192
        lines[bad] = b"\xff" + lines[bad]
        capture = tmp_path / "capture.csv"
        capture.write_bytes(b"\n".join(lines) + b"\n")
        out = tmp_path / "out"
        assert main(_stream_args(workspace, "detect", capture, out)) == 1
        assert capsys.readouterr().err == f"error: capture.csv line {bad + 1}: not UTF-8 text (byte 0xff: invalid start byte)\n"
        assert not any(out.glob("*"))  # no verdicts, no partial file, no manifest
        assert list(forked.values()) == [0]  # the reader process sent the error and exited

    @pytest.mark.parametrize("command", ["sample", "train", "detect", "evaluate", "roc"])
    def test_one_reader_process_reaped_at_the_end(self, workspace, tmp_path, forked, command):
        """One reader per input file, each reaped with status 0 by the
        time the command returns: two for sample's two files."""
        assert main(_reading_args(workspace, command, tmp_path / "out")) == 0
        assert list(forked.values()) == ([0, 0] if command == "sample" else [0])

    @pytest.mark.parametrize("command", ["sample", "train", "detect", "evaluate", "roc", "simulate"])
    def test_without_fork_reads_in_process(self, workspace, tmp_path, monkeypatch, forked, command):
        """Where ``os.fork`` is missing, a command reads in its own process
        and writes the bytes it writes through the reader process."""
        outputs = {}
        for way in ("forked", "in-process"):
            if way == "in-process":
                monkeypatch.delattr(os, "fork")
            out = tmp_path / way
            assert main(_reading_args(workspace, command, out)) == 0
            # Manifests hold the paths and the times of the run.
            outputs[way] = {p.name: p.read_bytes() for p in out.glob("*") if "manifest" not in p.name}
        assert outputs["forked"] == outputs["in-process"] and outputs["forked"]
        assert list(forked.values()) == ([0, 0] if command == "sample" else [0])

    @pytest.mark.parametrize("command", ["evaluate", "roc"])
    def test_unlabeled_row_ends_a_reader_still_reading(self, workspace, tmp_path, monkeypatch, capsys, forked, command):
        """The scoring process rejects an unlabeled row in batch 2 of about
        1,000; the reader process, still reading or blocked on the full
        pipe, is killed and reaped."""
        monkeypatch.setattr(ingest, "BATCH_ROWS", 5)
        bad = ingest.BATCH_ROWS + 3
        header, *body = _capture_lines(workspace, 1280)
        body[bad - 1] = body[bad - 1][: body[bad - 1].rindex(",") + 1]  # empty label field
        capture = tmp_path / "capture.csv"
        capture.write_text("\n".join([header, *body * 4]) + "\n")
        out = tmp_path / "out"
        assert main(_stream_args(workspace, command, capture, out)) == 1
        assert capsys.readouterr().err == f"error: unlabeled row: capture.csv row {bad}; metrics need ground truth\n"
        assert not out.exists()
        assert list(forked.values()) == [-signal.SIGKILL]

    def test_peak_memory_is_flat_in_the_capture_size(self, workspace, tmp_path):
        from netanom.synth import write_synthetic_csv

        once, four = tmp_path / "once.csv", tmp_path / "four.csv"
        write_synthetic_csv(once, 20_000, seed=11)
        header, body = once.read_text().split("\n", 1)
        four.write_text(header + "\n" + body * 4)
        for command in ("detect", "roc"):
            peaks = []
            for capture in (once, four):
                argv = _stream_args(workspace, command, capture, tmp_path / capture.stem)
                peaks.append(_peak_kib(argv) / 1024)
            assert peaks[1] - peaks[0] < 8, f"{command}: peak RSS {peaks[0]:.1f} -> {peaks[1]:.1f} MB at 4x the rows"

    def test_sweep_peak_memory_per_record(self, workspace, tmp_path):
        from netanom.synth import write_synthetic_csv

        once, four = tmp_path / "once.csv", tmp_path / "four.csv"
        write_synthetic_csv(once, 40_000, seed=11)
        header, body = once.read_text().split("\n", 1)
        four.write_text(header + "\n" + body * 4)
        for command in ("evaluate", "roc"):
            peaks_kib = [_peak_kib(_stream_args(workspace, command, capture, tmp_path / capture.stem)) for capture in (once, four)]
            per_record = (peaks_kib[1] - peaks_kib[0]) / 120_000
            # Only the per-w counts outlive a batch. Measured -0.0007 to
            # 0.0006 KiB per record over 6 runs; 0.0107-0.0116 when every
            # score and truth was kept and concatenated for one sweep.
            assert per_record < 0.004, (
                f"{command}: peak RSS {peaks_kib[0]} -> {peaks_kib[1]} KiB: {per_record:.4f} KiB per added record"
            )


def _simulate_args(workspace, capture, config, out):
    return ["simulate", "--config", str(config), "--profile", str(workspace / "profile.json"),
            "--test", str(capture), "--out", str(out)]


class TestStreamedSimulate:
    """simulate cuts its nodes' intervals from FlowBatches as they are read,
    not from parsed records."""

    @pytest.mark.parametrize("transport", ["in-process", "loopback-socket"])
    @pytest.mark.parametrize("assignment", ["round-robin", "hash-of-source", "explicit"])
    @settings(max_examples=5)
    @given(data=st.data())
    def test_reports_do_not_depend_on_the_batch_size(self, workspace, assignment, transport, data):
        from netanom._docjson import pretty_dumps
        from netanom.collab import replay, run_simulation, simconfig_from_doc
        from netanom.decision import load_profile
        from netanom.evaluation import render_table, report_to_doc
        from netanom.ingest import parse_flow_csv
        from netanom.preprocess import load_preprocess

        batch_rows = data.draw(st.sampled_from([1, 7, 8192]), label="batch_rows")
        n = data.draw(st.integers(1, 150), label="n")
        nodes = ["A", "B", "C"]
        doc = {"version": 1, "nodes": nodes, "assignment": assignment, "transport": transport,
               "interval_size": data.draw(st.integers(1, 40), label="interval_size"), "w": 2.0}
        if assignment == "explicit":
            doc["explicit_assignment"] = data.draw(st.lists(st.sampled_from(nodes), min_size=n, max_size=n))
        profile = load_profile((workspace / "profile.json").read_bytes())
        pp = load_preprocess(workspace / "profile.preprocess.json")
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            capture = tmp / "capture.csv"
            capture.write_text("\n".join(_capture_lines(workspace, n)) + "\n")
            config = tmp / "sim.json"
            config.write_text(json.dumps(doc))

            # Reference: the whole file as records, replayed as one chunk.
            cfg = simconfig_from_doc(doc)
            outcome = run_simulation(replay(parse_flow_csv(capture, pp.schema), cfg, pp.schema), profile, pp, cfg)
            expected = {f"node_{node}.json": pretty_dumps(report_to_doc(r)) for node, r in outcome.per_node_reports.items()}
            expected["aggregate.json"] = pretty_dumps(report_to_doc(outcome.aggregate_report))
            expected["aggregate.txt"] = render_table([outcome.aggregate_report])

            out = tmp / "out"
            with mock.patch.object(ingest, "BATCH_ROWS", batch_rows):
                assert main(_simulate_args(workspace, capture, config, out)) == 0
            assert sorted(p.name for p in out.glob("node_*.json")) == sorted(k for k in expected if k.startswith("node_"))
            for name, text in expected.items():
                assert (out / name).read_text() == text, name
            params = json.loads((out / "manifest.json").read_text())["parameters"]
            assert params["records"] == n
            for node in nodes:
                result = outcome.node_results[node]
                got = params["nodes"][node]
                assert (got["n_records"], got["frames"], got["wire_bytes"]) == (result.n_records, result.frames, result.wire_bytes)

    def _faulty_capture(self, workspace, tmp_path, fault_rows):
        """A 20-row capture, with ``fault_rows`` mapping a data row to
        ``"short"`` (its label field dropped) or ``"unlabeled"`` (its label
        field emptied); and a sim config for it."""
        lines = _capture_lines(workspace, 20)
        for row, fault in fault_rows.items():
            cut = lines[row].rindex(",")  # lines[0] is the header
            lines[row] = lines[row][:cut] if fault == "short" else lines[row][: cut + 1]
        capture = tmp_path / "capture.csv"
        capture.write_text("\n".join(lines) + "\n")
        config = tmp_path / "sim.json"
        config.write_text(json.dumps({"version": 1, "nodes": ["A", "B"], "assignment": "hash-of-source", "w": 2.0}))
        return capture, config

    def test_short_row_in_a_later_batch_beats_an_earlier_unlabeled_row(self, workspace, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(ingest, "BATCH_ROWS", 5)
        bad = ingest.BATCH_ROWS + 3
        capture, config = self._faulty_capture(workspace, tmp_path, {2: "unlabeled", bad: "short"})
        out = tmp_path / "out"
        assert main(_simulate_args(workspace, capture, config, out)) == 1
        assert capsys.readouterr().err == f"error: capture.csv, row {bad}: expected 49 fields, got 48\n"
        assert not out.exists()  # no report, no manifest

    def test_bad_hash_value_named_before_a_later_short_row(self, workspace, schema, tmp_path, capsys):
        """A bad value in a numeric hash column the model reads is named in
        file order, before a later short row, as detect names it."""
        lines = _with_bad_value(_capture_lines(workspace, 20), 2, "smean", "abc", schema)
        lines[8] = lines[8][: lines[8].rindex(",")]
        capture = tmp_path / "corner.csv"
        capture.write_text("\n".join(lines) + "\n")
        runs = {"detect": _stream_args(workspace, "detect", capture, tmp_path / "detect")}
        for transport in ("in-process", "loopback-socket"):
            config = tmp_path / f"{transport}.json"
            config.write_text(json.dumps({"version": 1, "nodes": ["A", "B"], "assignment": "hash-of-source",
                                          "hash_column": "smean", "w": 2.0, "transport": transport}))
            runs[transport] = _simulate_args(workspace, capture, config, tmp_path / transport)
        for key, argv in runs.items():
            assert main(argv) == 1, key
            assert capsys.readouterr().err == "error: corner.csv, row 2: column 'smean': non-numeric value 'abc'\n", key
            assert written(tmp_path / key) == [], key

    def test_unlabeled_row_in_a_later_batch_names_it(self, workspace, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(ingest, "BATCH_ROWS", 5)
        bad = ingest.BATCH_ROWS + 3
        capture, config = self._faulty_capture(workspace, tmp_path, {bad: "unlabeled"})
        out = tmp_path / "out"
        assert main(_simulate_args(workspace, capture, config, out)) == 1
        assert capsys.readouterr().err == f"error: unlabeled row: capture.csv row {bad}; metrics need ground truth\n"
        assert not out.exists()

    def test_first_unlabeled_row_in_file_order(self, workspace, tmp_path, capsys):
        """Round-robin over A, B puts data row 2 on B and row 3 on A:
        simulate names row 2, the file's first unlabeled row, as evaluate does."""
        capture, config = self._faulty_capture(workspace, tmp_path, {2: "unlabeled", 3: "unlabeled"})
        config.write_text(json.dumps({"version": 1, "nodes": ["A", "B"], "assignment": "round-robin", "w": 2.0}))
        expected = "error: unlabeled row: capture.csv row 2; metrics need ground truth\n"
        assert main(_simulate_args(workspace, capture, config, tmp_path / "sim")) == 1
        assert capsys.readouterr().err == expected
        assert main(_stream_args(workspace, "evaluate", capture, tmp_path / "eval")) == 1
        assert capsys.readouterr().err == expected

    @pytest.mark.parametrize("transport", ["in-process", "loopback-socket"])
    @pytest.mark.parametrize("text, reason", [("fast", "non-numeric"), ("inf", "non-finite")])
    def test_bad_value_in_a_later_batch_names_its_row(self, workspace, tmp_path, monkeypatch, capsys, schema, transport, text, reason):
        """The read fails at the second batch, before any node runs, with
        the line ``detect`` prints."""
        monkeypatch.setattr(ingest, "BATCH_ROWS", 5)
        capture, config = self._faulty_capture(workspace, tmp_path, {})
        lines = capture.read_text().splitlines()
        bad = ingest.BATCH_ROWS + 3
        fields = lines[bad].split(",")
        fields[schema.index_of("tcprtt")] = text
        lines[bad] = ",".join(fields)
        capture.write_text("\n".join(lines) + "\n")
        config.write_text(json.dumps({"version": 1, "nodes": ["A", "B"], "w": 2.0, "transport": transport}))
        out = tmp_path / "out"
        assert main(_simulate_args(workspace, capture, config, out)) == 1
        assert capsys.readouterr().err == f"error: capture.csv, row {bad}: column 'tcprtt': {reason} value {text!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize("entries", [19, 21])
    def test_explicit_assignment_of_the_wrong_length(self, workspace, tmp_path, monkeypatch, capsys, entries):
        monkeypatch.setattr(ingest, "BATCH_ROWS", 5)
        capture, config = self._faulty_capture(workspace, tmp_path, {})
        config.write_text(json.dumps({"version": 1, "nodes": ["A", "B"], "assignment": "explicit",
                                      "explicit_assignment": (["A", "B"] * 11)[:entries], "w": 2.0}))
        out = tmp_path / "out"
        assert main(_simulate_args(workspace, capture, config, out)) == 1
        assert capsys.readouterr().err == f"error: explicit assignment has {entries} entries for 20 records\n"
        assert not out.exists()

    def test_explicit_assignment_checked_before_the_capture_is_read(self, workspace, tmp_path, capsys):
        capture, config = self._faulty_capture(workspace, tmp_path, {1: "short"})
        config.write_text(json.dumps({"version": 1, "nodes": ["A", "B"], "assignment": "explicit",
                                      "explicit_assignment": ["A", "Z"] * 10, "w": 2.0}))
        out = tmp_path / "out"
        assert main(_simulate_args(workspace, capture, config, out)) == 1
        assert capsys.readouterr().err == "error: explicit assignment names unknown node 'Z'\n"
        assert not out.exists()

    @pytest.mark.parametrize("transport", ["in-process", "loopback-socket"])
    @pytest.mark.parametrize("fault", ["short-row", "unlabeled", "short-assignment"])
    def test_failure_after_the_nodes_started_leaves_nothing_behind(
        self, workspace, tmp_path, monkeypatch, capsys, forked, transport, fault
    ):
        """A short row or an unlabeled row at data row 203, or an explicit
        assignment of 200 entries, in a capture of 1,024 five-row batches
        fails the run after its nodes have classified earlier intervals:
        one error line, no output, the reader process reaped (killed when
        it was still reading) and no thread left running."""
        from netanom import collab

        monkeypatch.setattr(ingest, "BATCH_ROWS", 5)
        bad = 203
        header, *body = _capture_lines(workspace, 1280)
        body = body * 4
        if fault != "short-assignment":
            cut = body[bad - 1].rindex(",")
            body[bad - 1] = body[bad - 1][:cut] if fault == "short-row" else body[bad - 1][: cut + 1]
        capture = tmp_path / "capture.csv"
        capture.write_text("\n".join([header, *body]) + "\n")
        doc = {"version": 1, "nodes": ["A", "B"], "interval_size": 5, "w": 2.0, "transport": transport}
        if fault == "short-assignment":
            doc.update(assignment="explicit", explicit_assignment=["A", "B"] * 100)
        config = tmp_path / "sim.json"
        config.write_text(json.dumps(doc))
        classified, real = [], collab._classify

        def counting(interval, *args):
            classified.append(len(interval))
            return real(interval, *args)

        monkeypatch.setattr(collab, "_classify", counting)
        threads = threading.enumerate()
        out = tmp_path / "out"
        assert main(_simulate_args(workspace, capture, config, out)) == 1
        assert capsys.readouterr().err == {
            "short-row": f"error: capture.csv, row {bad}: expected 49 fields, got 48\n",
            "unlabeled": f"error: unlabeled row: capture.csv row {bad}; metrics need ground truth\n",
            "short-assignment": "error: explicit assignment has 200 entries for 205 records\n",
        }[fault]
        assert classified and not out.exists()
        assert threading.enumerate() == threads
        # A reader still reading is killed before its pipe closes; one that sent its error has exited.
        assert list(forked.values()) == ([-signal.SIGKILL] if fault == "short-assignment" else [0])

    @pytest.mark.parametrize("transport", ["in-process", "loopback-socket"])
    def test_one_reader_process_reaped_at_the_end(self, workspace, tmp_path, forked, transport):
        config = tmp_path / "sim.json"
        config.write_text(json.dumps({"version": 1, "nodes": ["A", "B"], "w": 2.0, "transport": transport}))
        assert main(_simulate_args(workspace, workspace / "split" / "test.csv", config, tmp_path / "out")) == 0
        assert list(forked.values()) == [0]

    def test_peak_memory_per_record(self, workspace, tmp_path):
        from netanom.synth import write_synthetic_csv

        once, four = tmp_path / "once.csv", tmp_path / "four.csv"
        write_synthetic_csv(once, 20_000, seed=11)
        header, body = once.read_text().split("\n", 1)
        four.write_text(header + "\n" + body * 4)
        config = tmp_path / "sim.json"
        config.write_text(json.dumps({"version": 1, "nodes": ["A", "B"], "assignment": "hash-of-source",
                                      "interval_size": 500, "w": 2.0, "transport": "loopback-socket"}))
        peaks_kib = []
        for capture in (once, four):
            argv = _simulate_args(workspace, capture, config, tmp_path / capture.stem)
            peaks_kib.append(_peak_kib(argv))
        per_record = (peaks_kib[1] - peaks_kib[0]) / 60_000
        # A pass holds each node's int8 truths and verdicts, 2 bytes a
        # record, and fewer than interval_size pending records a node; the
        # rest of the growth is the heap's. Measured 0.020-0.059 KiB per
        # record over 11 runs (0.195 when the store held every record's
        # modeled columns, truth and row number).
        assert per_record < 0.1, f"peak RSS {peaks_kib[0]} -> {peaks_kib[1]} KiB: {per_record:.3f} KiB per added record"


#: A modeled numeric column's bad field texts, each with its reason.
_BAD_VALUES = [("abc", "non-numeric"), ("", "non-numeric"), ("1.2.3", "non-numeric"), ("0x1", "non-numeric"),
               ("inf", "non-finite"), ("-inf", "non-finite"), ("nan", "non-finite"), ("1e999", "non-finite")]


def _with_bad_value(lines, row, name, text, schema):
    """``lines`` (a header, then data lines) with field ``name`` of data row
    ``row`` set to ``text``."""
    fields = lines[row].split(",")
    fields[schema.index_of(name)] = text
    return [*lines[:row], ",".join(fields), *lines[row + 1 :]]


class TestBadNumericValue:
    """A bad value in a modeled numeric column fails the read, so every
    command prints the same one error line naming its row and writes
    nothing, whichever node the row would go to."""

    def _sim_config(self, path, transport, fail_nodes=()):
        path.write_text(json.dumps({"version": 1, "nodes": ["A", "B"], "assignment": "round-robin", "w": 2.0,
                                    "transport": transport, "fail_nodes": list(fail_nodes)}))
        return path

    @pytest.mark.parametrize("transport", ["in-process", "loopback-socket"])
    def test_a_failed_node_does_not_hide_the_bad_value(self, workspace, schema, tmp_path, capsys, transport):
        """Round-robin over A, B puts data row 2 on B. With B in
        ``fail_nodes``, simulate used to skip B's records, exit 0 and report
        a partial run without naming the value."""
        capture = tmp_path / "bad.csv"
        capture.write_text("\n".join(_with_bad_value(_capture_lines(workspace, 20), 2, "tcprtt", "abc", schema)) + "\n")
        config = self._sim_config(tmp_path / "sim.json", transport, fail_nodes=["B"])
        out = tmp_path / "out"
        assert main(_simulate_args(workspace, capture, config, out)) == 1
        assert capsys.readouterr().err == "error: bad.csv, row 2: column 'tcprtt': non-numeric value 'abc'\n"
        assert written(out) == []

    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_every_command_names_the_bad_row(self, workspace, schema, data):
        from netanom.preprocess import CURATED_FEATURES

        n = data.draw(st.integers(1, 30), label="n")
        row = data.draw(st.integers(1, n), label="row")
        name = data.draw(st.sampled_from([f for f in CURATED_FEATURES if schema.kind_of(f) == "numeric"]), label="column")
        text, reason = data.draw(st.sampled_from(_BAD_VALUES), label="value")
        batch_rows = data.draw(st.sampled_from([3, 8192]), label="batch_rows")
        expected = f"error: capture.csv, row {row}: column {name!r}: {reason} value {text!r}\n"
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            # Training normals, so that train reads the capture as far as detect does.
            capture = tmp / "capture.csv"
            capture.write_text("\n".join(_with_bad_value(_train_lines(workspace, n), row, name, text, schema)) + "\n")
            runs = {command: _stream_args(workspace, command, capture, tmp / command) for command in ("detect", "evaluate", "roc")}
            runs["train"] = _train_args(capture, tmp / "train" / "p.json")
            for transport in ("in-process", "loopback-socket"):
                for fail_nodes in ((), ("AB"[(row - 1) % 2],)):
                    key = f"simulate-{transport}-{len(fail_nodes)}"
                    config = self._sim_config(tmp / f"{key}.json", transport, fail_nodes)
                    runs[key] = _simulate_args(workspace, capture, config, tmp / key)
            with mock.patch.object(ingest, "BATCH_ROWS", batch_rows):
                for key, argv in runs.items():
                    with mock.patch("sys.stderr", new_callable=io.StringIO) as err:
                        assert main(argv) == 1, key
                    assert err.getvalue() == expected, key
                    assert written(tmp / key) == [], key


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

    @pytest.mark.parametrize("hash_column", ["dsport", "smean"], ids=["numeric", "numeric-and-modeled"])
    def test_numeric_hash_column_hashes_values(self, workspace, tmp_path, hash_column):
        """A numeric source column is hashed by its values, as a replay of
        parsed records hashes it, also when the model reads it."""
        from netanom._docjson import pretty_dumps
        from netanom.collab import load_simconfig, replay, run_simulation
        from netanom.decision import load_profile
        from netanom.evaluation import report_to_doc
        from netanom.ingest import parse_flow_csv
        from netanom.preprocess import load_preprocess

        cfg = self._write_cfg(tmp_path / "sim.json", assignment="hash-of-source", hash_column=hash_column)
        out = tmp_path / "simout"
        test = workspace / "split" / "test.csv"
        assert main([
            "simulate", "--config", str(cfg), "--profile", str(workspace / "profile.json"),
            "--test", str(test), "--out", str(out),
        ]) == 0
        pp = load_preprocess(workspace / "profile.preprocess.json")
        sim = load_simconfig(cfg)
        reference = run_simulation(
            replay(parse_flow_csv(test, pp.schema), sim, pp.schema), load_profile((workspace / "profile.json").read_bytes()), pp, sim
        )
        assert len(reference.per_node_reports) == 3
        for node, report in reference.per_node_reports.items():
            assert (out / f"node_{node}.json").read_text() == pretty_dumps(report_to_doc(report))

    @pytest.mark.parametrize("transport", ["in-process", "loopback-socket"])
    @pytest.mark.parametrize("hash_column", ["dsport", "smean"], ids=["numeric", "numeric-and-modeled"])
    def test_texts_of_one_value_are_one_source(self, workspace, schema, tmp_path, hash_column, transport):
        """Texts that parse to one value go to one node: rows 1-18 hold 80,
        80.0 and 8e1, rows 19-30 hold 0, -0 and -0.0. Hashed by their texts,
        they would spread over all three nodes."""
        lines = _capture_lines(workspace, 30)
        for row in range(1, 31):
            texts = ("80", "80.0", "8e1") if row <= 18 else ("0", "-0", "-0.0")
            lines = _with_bad_value(lines, row, hash_column, texts[row % 3], schema)
        capture = tmp_path / "capture.csv"
        capture.write_text("\n".join(lines) + "\n")
        cfg = self._write_cfg(tmp_path / "sim.json", assignment="hash-of-source", hash_column=hash_column, transport=transport)
        out = tmp_path / "out"
        assert main(_simulate_args(workspace, capture, cfg, out)) == 0
        nodes = json.loads((out / "manifest.json").read_text())["parameters"]["nodes"]
        assert sorted(doc["n_records"] for doc in nodes.values()) in ([0, 12, 18], [0, 0, 30])

    @pytest.mark.parametrize("transport", ["in-process", "loopback-socket"])
    def test_text_sources_split_by_their_sha256(self, workspace, tmp_path, transport):
        """The default hash column, srcip, splits the records as the first 8
        bytes of the sha256 of each text, big-endian, modulo the node count."""
        cfg = self._write_cfg(tmp_path / "sim.json", assignment="hash-of-source", transport=transport)
        test = workspace / "split" / "test.csv"
        with open(test, newline="") as fh:
            sources = [row["srcip"] for row in csv.DictReader(fh)]
        expected = Counter("ABC"[int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big") % 3] for text in sources)
        out = tmp_path / "out"
        assert main(_simulate_args(workspace, test, cfg, out)) == 0
        nodes = json.loads((out / "manifest.json").read_text())["parameters"]["nodes"]
        assert {node: doc["n_records"] for node, doc in nodes.items()} == expected
        assert min(expected.values()) > 0

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

    @pytest.mark.parametrize(
        "extra", [{"w": 2}, {"w": 3, "node_w": {"solo": 2}}], ids=["integer-w", "integer-node-w"]
    )
    def test_integer_w_reports_like_evaluate(self, workspace, tmp_path, extra):
        cfg = self._write_cfg(tmp_path / "simw.json", nodes=["solo"], **extra)
        out = tmp_path / "simwout"
        assert main([
            "simulate", "--config", str(cfg), "--profile", str(workspace / "profile.json"),
            "--test", str(workspace / "split" / "test.csv"), "--out", str(out),
        ]) == 0
        assert main([
            "evaluate", "--profile", str(workspace / "profile.json"),
            "--test", str(workspace / "split" / "test.csv"),
            "--w", "2", "--out", str(tmp_path / "plain"),
        ]) == 0
        plain = (tmp_path / "plain.json").read_bytes()
        assert (out / "aggregate.json").read_bytes() == plain
        assert (out / "node_solo.json").read_bytes() == plain

    def test_python_built_integer_w_reports_like_evaluate(self, workspace, tmp_path):
        from netanom._docjson import pretty_dumps
        from netanom.collab import SimulationConfig, replay, run_simulation
        from netanom.decision import load_profile
        from netanom.evaluation import report_to_doc
        from netanom.ingest import parse_flow_csv
        from netanom.preprocess import load_preprocess

        profile = load_profile((workspace / "profile.json").read_bytes())
        pp = load_preprocess(workspace / "profile.preprocess.json")
        cfg = SimulationConfig(nodes=("solo",), w=2)
        records = parse_flow_csv(workspace / "split" / "test.csv", pp.schema)
        doc = report_to_doc(run_simulation(replay(records, cfg, pp.schema), profile, pp, cfg).aggregate_report)
        assert repr(doc["w"]) == "2.0"
        assert main([
            "evaluate", "--profile", str(workspace / "profile.json"),
            "--test", str(workspace / "split" / "test.csv"),
            "--w", "2", "--out", str(tmp_path / "plain"),
        ]) == 0
        assert pretty_dumps(doc).encode("utf-8") == (tmp_path / "plain.json").read_bytes()

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

    @pytest.mark.parametrize(
        "doc, message",
        [
            ([1, 2], "simulation config must be a JSON object, not list"),
            ({"version": 1, "w": 2.0}, "simulation config is missing the 'nodes' key"),
            ({"version": 1, "nodes": ["A", "B"], "interval-size": 7}, "unknown simulation config key 'interval-size'"),
            ({"version": 1, "nodes": "AB"}, "simulation config key 'nodes' must be a list, got str"),
            ({"version": 1, "nodes": ["A"], "w": float("nan"), "allow_any_w": True}, "w must be finite, got nan"),
            ({"version": 1, "nodes": ["A"], "assignment": "hash-of-source", "hash_column": "nope"}, "no column named 'nope'"),
            ({"version": 1, "nodes": [["a"]]}, "simulation config key 'nodes[0]' must be a string, got list"),
            ({"version": 1, "nodes": [1, 2]}, "simulation config key 'nodes[0]' must be a string, got int"),
            ({"version": 1, "nodes": ["A"], "fail_nodes": [0]}, "simulation config key 'fail_nodes[0]' must be a string, got int"),
            (
                {"version": 1, "nodes": ["A"], "assignment": "explicit", "explicit_assignment": ["A", None]},
                "simulation config key 'explicit_assignment[1]' must be a string, got NoneType",
            ),
            ({"version": 1, "nodes": ["A"], "transport": "loopback-socket", "port": 70000}, "port must be in 0-65535, got 70000"),
            ({"version": 1, "nodes": ["A"], "transport": "loopback-socket", "port": -1}, "port must be in 0-65535, got -1"),
        ],
        ids=[
            "not-an-object", "no-nodes", "unknown-key", "string-for-list", "non-finite-w", "unknown-hash-column",
            "list-in-nodes", "int-in-nodes", "int-in-fail-nodes", "null-in-explicit-assignment", "port-over-65535",
            "negative-port",
        ],
    )
    def test_bad_config_fails_loudly(self, workspace, tmp_path, capsys, doc, message):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(doc))
        assert main([
            "simulate", "--config", str(cfg), "--profile", str(workspace / "profile.json"),
            "--test", str(workspace / "split" / "test.csv"), "--out", str(tmp_path / "badout"),
        ]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not (tmp_path / "badout").exists()

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


class TestEmptyCapture:
    @pytest.mark.parametrize("header", [False, True], ids=["no-bytes", "header-only"])
    @pytest.mark.parametrize("command", ["train", "evaluate", "roc", "simulate"])
    def test_empty_capture_is_one_error_line(self, workspace, tmp_path, capsys, command, header):
        empty = tmp_path / "empty.csv"
        empty.write_text(_train_lines(workspace, 0)[0] + "\n" if header else "")
        config = tmp_path / "sim.json"
        config.write_text(json.dumps({"version": 1, "nodes": ["A", "B"]}))
        out = tmp_path / "out"
        pipeline = ["--profile", str(workspace / "profile.json"), "--test", str(empty)]
        argv = {
            "train": ["--train", str(empty), "--schema", str(workspace / "schema.json"), "--out", str(out / "p.json")],
            "evaluate": [*pipeline, "--w", "2", "--out", str(out / "r")],
            "roc": [*pipeline, "--w-grid", "1.5:3:0.5", "--out", str(out / "r")],
            "simulate": ["--config", str(config), *pipeline, "--out", str(out)],
        }[command]
        assert main([command, *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {'training' if command == 'train' else 'test'} file has no records"]
        assert not out.exists()


class TestBadJsonDocument:
    @pytest.mark.parametrize("fault", [b"[" * 100_000, b"\xff{}"], ids=["nested-too-deeply", "not-utf8"])
    @pytest.mark.parametrize("document", ["profile", "preprocessing document", "simulation config", "schema"])
    def test_one_error_line_names_the_document(self, workspace, tmp_path, capsys, document, fault):
        """A document that does not parse as JSON, however it fails, ends
        the command that reads it with one error line naming it."""
        bad = tmp_path / "bad.json"
        bad.write_bytes(fault)
        config = tmp_path / "sim.json"
        config.write_text(json.dumps({"version": 1, "nodes": ["A", "B"]}))
        out = tmp_path / "out"
        test = str(workspace / "split" / "test.csv")
        profile = str(workspace / "profile.json")
        argv = {
            "profile": ["detect", "--profile", str(bad), "--preprocess", str(workspace / "profile.preprocess.json"),
                        "--input", test, "--out", str(out / "v.csv")],
            "preprocessing document": ["detect", "--profile", profile, "--preprocess", str(bad), "--input", test,
                                       "--out", str(out / "v.csv")],
            "simulation config": ["simulate", "--config", str(bad), "--profile", profile, "--test", test, "--out", str(out)],
            "schema": _train_args(workspace / "split" / "train_normal.csv", out / "p.json") + ["--schema", str(bad)],
        }[document]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"error: {document} is not valid JSON: ")
        assert written(out) == []


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

    @pytest.mark.parametrize("command", ["evaluate", "roc"])
    def test_sweep_commands_count_their_records(self, workspace, tmp_path, command):
        assert main(_stream_args(workspace, command, workspace / "split" / "test.csv", tmp_path)) == 0
        prefix = "eval" if command == "evaluate" else "roc"
        manifest = json.loads((tmp_path / f"{prefix}.manifest.json").read_text())
        assert manifest["command"] == command
        assert manifest["records"] == 2000 - 720  # sample: 2000 records, 720 normals used for training

    def test_simulate_records_each_node(self, workspace, tmp_path):
        keys = {"attempts", "errors", "n_records", "frames", "wire_bytes", "wall_s"}
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
            for doc in nodes.values():
                wall_s = doc.pop("wall_s")
                assert isinstance(wall_s, float) and wall_s >= 0.0
            assert nodes["C"] == {
                "attempts": 2, "errors": ["SimulatedNodeFailure: node 'C': injected crash"] * 2,
                "n_records": 0, "frames": 0, "wire_bytes": 0,
            }
            for i, node in enumerate("AB"):
                doc = nodes[node]
                assert doc["n_records"] == len(range(i, params["records"], 3))  # round-robin share
                assert doc["attempts"] == 1 and doc["errors"] == []
                if transport == "in-process":
                    assert doc["frames"] == doc["wire_bytes"] == 0
                else:
                    assert 0 < doc["frames"] < doc["n_records"]
                    # Frames carry the 10 modeled columns (about 90 B a record,
                    # replies included), not all 49 fields (about 387 B).
                    assert 0 < doc["wire_bytes"] < 120 * doc["n_records"]

    def test_parameters_hold_every_parsed_flag(self, workspace, tmp_path):
        """Each manifest's ``parameters`` hold every flag its subparser
        parses, so none can be left out of the record; ``seed`` has its own
        top-level key."""
        (subparsers,) = (a for a in _build_parser()._actions if a.dest == "command")
        for command, subparser in subparsers.choices.items():
            out = tmp_path / command
            argv = ["synth", "--rows", "50", "--out", str(out / "s.csv")] if command == "synth" else _reading_args(workspace, command, out)
            assert main(argv) == 0
            (manifest,) = out.glob("*manifest.json")
            doc = json.loads(manifest.read_text())
            dests = {action.dest for action in subparser._actions} - {"help", "seed"}
            assert dests <= set(doc["parameters"]), command
            assert "seed" not in doc["parameters"] and doc["seed"] == getattr(subparser.parse_args(argv[1:]), "seed", None)

    @pytest.mark.parametrize("command", ["detect", "evaluate"])
    def test_rerun_from_the_manifest_writes_the_same_bytes(self, workspace, tmp_path, command):
        """argv rebuilt from a manifest's ``parameters`` reruns the command:
        a w outside [1.5, 3] needs its ``--allow-any-w`` to be recorded."""
        assert main(_stream_args(workspace, command, workspace / "split" / "test.csv", tmp_path / "a", w="4") + ["--allow-any-w"]) == 0
        (manifest,) = (tmp_path / "a").glob("*manifest.json")
        parameters = json.loads(manifest.read_text())["parameters"]
        parameters["out"] = parameters["out"].replace(str(tmp_path / "a"), str(tmp_path / "b"))
        argv = [command]
        for key, value in parameters.items():
            flag = "--" + key.replace("_", "-")
            argv += [flag] if value is True else [] if value is False or value is None else [flag, str(value)]
        assert main(argv) == 0
        outputs = [{p.name: p.read_bytes() for p in (tmp_path / x).iterdir() if "manifest" not in p.name} for x in "ab"]
        assert outputs[0] and outputs[0] == outputs[1]


class TestOutNames:
    """train, detect and synth name what they write next to --out by one
    rule: --out less a .json or .csv extension, every other dot kept."""

    def test_dotted_train_and_detect_prefixes_keep_separate_files(self, workspace, tmp_path):
        train = ["train", "--train", str(workspace / "split" / "train_normal.csv"), "--schema", str(workspace / "schema.json"),
                 "--components", "2", "--max-iter", "5"]
        assert main([*train, "--out", str(tmp_path / "prof.a")]) == 0
        assert main([*train, "--features", "pca:3", "--out", str(tmp_path / "prof.b")]) == 0
        assert main(["synth", "--rows", "50", "--out", str(tmp_path / "flows.v1")]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            [f"prof.{x}{suffix}" for x in "ab" for suffix in ("", ".preprocess.json", ".manifest.json")]
            + ["flows.v1", "flows.v1.manifest.json"]
        )
        for x in "ab":
            manifest = json.loads((tmp_path / f"prof.{x}.manifest.json").read_text())
            assert list(manifest["output_digests"]) == [str(tmp_path / f"prof.{x}"), str(tmp_path / f"prof.{x}.preprocess.json")]

        out = tmp_path / "out"
        test = str(workspace / "split" / "test.csv")
        for x, w in (("a", "2.0"), ("b", "2.5")):
            # --preprocess defaults to the profile's own sibling.
            assert main(["detect", "--profile", str(tmp_path / f"prof.{x}"), "--input", test, "--w", w, "--out", str(out / f"v{w}")]) == 0
        assert main(["detect", "--profile", str(tmp_path / "prof.a"), "--input", test, "--w", "2", "--out", str(out / "v.csv")]) == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(
            ["v2.0", "v2.0.manifest.json", "v2.5", "v2.5.manifest.json", "v.csv", "v.manifest.json"]
        )
        for x, w in (("a", "2.0"), ("b", "2.5")):
            parameters = json.loads((out / f"v{w}.manifest.json").read_text())["parameters"]
            assert (parameters["w"], parameters["preprocess"]) == (float(w), str(tmp_path / f"prof.{x}.preprocess.json"))

    @given(
        stems=st.lists(
            st.text(alphabet="ab.", min_size=1, max_size=8).filter(lambda s: s not in (".", "..")), min_size=2, max_size=2, unique=True
        ),
        extension=st.sampled_from(["", ".json", ".csv"]),
        tag=st.sampled_from(["preprocess", "manifest"]),
    )
    def test_distinct_outs_never_name_the_same_sibling(self, stems, extension, tag):
        """Two --out values with the same extension, or none, name
        different siblings, and no sibling is its own --out. (``prof`` and
        ``prof.json`` are one prefix, by design.)"""
        from netanom.cli import _sibling

        outs = [Path("d") / (stem + extension) for stem in stems]
        siblings = [_sibling(out, tag) for out in outs]
        assert siblings[0] != siblings[1]
        assert all(sibling != out and sibling.parent == out.parent for sibling, out in zip(siblings, outs))
