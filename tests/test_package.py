"""The package namespace: every name it exports must resolve."""
import qfedring


def test_every_exported_name_resolves():
    # A class deleted from its module but left in __all__ breaks
    # ``from qfedring import *`` for every user, so it fails here instead.
    namespace: dict = {}
    exec("from qfedring import *", namespace)
    assert sorted(set(qfedring.__all__) - set(namespace)) == []
