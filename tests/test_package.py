import netanom


def test_every_exported_name_resolves():
    missing = [name for name in netanom.__all__ if not hasattr(netanom, name)]
    assert missing == []
    assert len(set(netanom.__all__)) == len(netanom.__all__)
