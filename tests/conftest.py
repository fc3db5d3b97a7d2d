import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from netanom import decision, gmm, ingest, preprocess, synth

settings.register_profile(
    "suite", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("suite")


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process running or unreaped: no
    command may leave a process behind, whether it succeeds or fails."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return  # no child at all
    pytest.fail("the test left a child process running" if pid == 0 else f"the test left child process {pid} unreaped")


@pytest.fixture
def forked(monkeypatch):
    """``{pid: exit code}`` of each process ``os.fork`` starts during the
    test: None until ``os.waitpid`` reaps it, then the code
    ``os.waitstatus_to_exitcode`` gives (minus the signal that ended it)."""
    children = {}
    fork, waitpid = os.fork, os.waitpid

    def recorded_fork():
        pid = fork()
        if pid:
            children[pid] = None
        return pid

    def recorded_waitpid(pid, options):
        reaped, status = waitpid(pid, options)
        if reaped in children:
            children[reaped] = os.waitstatus_to_exitcode(status)
        return reaped, status

    monkeypatch.setattr(os, "fork", recorded_fork)
    monkeypatch.setattr(os, "waitpid", recorded_waitpid)
    return children


def written(out):
    """The files under ``out``, which need not exist."""
    return sorted(str(path.relative_to(out)) for path in out.rglob("*") if path.is_file()) if out.exists() else []


def assert_same_verdicts(a, b):
    """Two ``NodeResult.verdicts`` agree: each a read-only int8 array of
    sides of the band (-1 below, 0 inside, +1 above), the two of one length
    and equal value by value."""
    for verdicts in (a, b):
        assert isinstance(verdicts, np.ndarray) and verdicts.dtype == np.int8 and not verdicts.flags.writeable
        assert np.isin(verdicts, (-1, 0, 1)).all()
    assert len(a) == len(b) and np.array_equal(a, b)


def coded_batch(columns, truth, file_id, rows):
    """A batch of ``columns`` in which each list of texts is given as the
    reader gives a text column: int32 codes into its distinct texts, in
    first-seen order. Arrays are kept as they are."""
    texts = {name: tuple(dict.fromkeys(column)) for name, column in columns.items() if isinstance(column, list)}
    codes = {name: np.array([distinct.index(text) for text in columns[name]], dtype=np.int32) for name, distinct in texts.items()}
    return ingest.FlowBatch(
        {name: codes.get(name, column) for name, column in columns.items()},
        np.asarray(truth, dtype=np.int8),
        file_id,
        np.asarray(rows, dtype=np.int64),
        texts,
    )


def values_of(batch, name):
    """The values of ``batch``'s column ``name``: the list of the rows'
    texts for a text column, else the array."""
    column = batch.columns[name]
    if name not in batch.texts:
        return column
    texts = batch.texts[name]
    return [texts[code] for code in column.tolist()]


@pytest.fixture(scope="session")
def schema():
    return ingest.default_schema()


@pytest.fixture(scope="session")
def corpus(tmp_path_factory, schema):
    """4,000 synthetic flow records, 35% attacks."""
    path = tmp_path_factory.mktemp("corpus") / "synthetic.csv"
    synth.write_synthetic_csv(path, 4000, seed=42, attack_fraction=0.35)
    return ingest.parse_flow_csv(path, schema)


@pytest.fixture(scope="session")
def split(corpus):
    plan = ingest.SamplePlan(3000, 0.65, 0.6, seed=1)
    return ingest.stratified_sample(corpus, plan)


@pytest.fixture(scope="session")
def fitted(split, schema):
    """(preprocess model, normal profile) trained on the split's normals."""
    train, _ = split
    pp = preprocess.fit_preprocess(train, schema, "table1")
    matrix = pp.apply_records(train)
    profile = decision.train_profile(
        matrix, gmm.EmConfig(n_components=5, seed=0), preprocess_digest=pp.digest()
    )
    return pp, profile


@pytest.fixture(scope="session")
def labeled_test_set(split, fitted):
    """(preprocessed test matrix, truth list) matching the fitted pipeline."""
    _, test = split
    pp, _ = fitted
    return pp.apply_records(test), [r.truth for r in test]
