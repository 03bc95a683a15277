"""The package's public surface."""

import bzloop


def test_star_import_binds_every_export():
    names = bzloop.__all__
    assert len(names) == len(set(names))
    namespace = {}
    exec("from bzloop import *", namespace)
    assert [name for name in names if name not in namespace] == []
