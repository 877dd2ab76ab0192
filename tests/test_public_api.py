"""The package's export list names only what exists, each name once."""

import qkg


def test_all_names_resolve_once():
    assert len(qkg.__all__) == len(set(qkg.__all__))
    missing = [name for name in qkg.__all__ if not hasattr(qkg, name)]
    assert missing == []


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from qkg import *", namespace)
    assert set(qkg.__all__) <= set(namespace)
