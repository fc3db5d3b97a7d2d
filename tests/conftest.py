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


def assert_same_verdicts(a, b):
    """Two ``NodeResult.verdicts`` agree: each a read-only int8 array, the
    two of one length and equal value by value."""
    for verdicts in (a, b):
        assert isinstance(verdicts, np.ndarray) and verdicts.dtype == np.int8 and not verdicts.flags.writeable
    assert len(a) == len(b) and np.array_equal(a, b)


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
