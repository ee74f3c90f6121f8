import mlbl


def test_every_export_resolves():
    for name in mlbl.__all__:
        assert hasattr(mlbl, name), name
