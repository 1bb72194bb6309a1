"""The package's export list: every name in __all__ resolves, and no other is exported."""

import motzkin_autocount


def test_star_import_binds_exactly_the_export_list():
    names = motzkin_autocount.__all__
    assert len(set(names)) == len(names)
    namespace = {}
    exec("from motzkin_autocount import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(names)
    assert all(namespace[name] is getattr(motzkin_autocount, name) for name in names)
