"""The package's export list names what the package really provides."""

import maxgap


def test_all_resolves_once():
    assert len(set(maxgap.__all__)) == len(maxgap.__all__)
    assert [name for name in maxgap.__all__ if not hasattr(maxgap, name)] == []


def test_star_import():
    namespace: dict = {}
    exec("from maxgap import *", namespace)
    assert set(maxgap.__all__) <= set(namespace)
