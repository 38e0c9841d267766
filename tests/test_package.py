import nvpol


def test_star_import_resolves_every_export():
    # a name left in __all__ after its definition is gone breaks `import *`
    namespace = {}
    exec("from nvpol import *", namespace)
    missing = [name for name in nvpol.__all__ if name not in namespace]
    assert not missing
