import netanom


def test_every_exported_name_resolves():
    missing = [name for name in netanom.__all__ if not hasattr(netanom, name)]
    assert missing == []
    assert len(set(netanom.__all__)) == len(netanom.__all__)


def test_records_adapters_are_not_exported():
    """The whole-file records path is not part of the package's API."""
    records_only = {"FlowRecord", "parse_flow_csv", "stratified_sample", "write_flow_csv", "fit_preprocess", "log_likelihood"}
    assert records_only.isdisjoint(netanom.__all__)
