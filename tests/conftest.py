import pytest
from hypothesis import HealthCheck, settings

from netanom import decision, gmm, ingest, preprocess, synth

settings.register_profile(
    "suite", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("suite")


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
