"""The package's public names."""
import tinlink


def test_star_import_gives_every_public_name_once():
    """`from tinlink import *` binds every name in `__all__`, and no name
    is listed twice."""
    names = tinlink.__all__
    assert len(names) == len(set(names))
    namespace = {}
    exec("from tinlink import *", namespace)
    assert set(names) <= namespace.keys()
