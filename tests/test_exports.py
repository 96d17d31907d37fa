import botnet_mfg


def test_every_exported_name_resolves():
    missing = [name for name in botnet_mfg.__all__ if not hasattr(botnet_mfg, name)]
    assert missing == []


def test_no_exported_name_is_listed_twice():
    assert len(set(botnet_mfg.__all__)) == len(botnet_mfg.__all__)


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from botnet_mfg import *", namespace)
    assert set(botnet_mfg.__all__) <= namespace.keys()
