"""The package's public surface."""

import u2reg


def test_every_export_resolves():
    missing = [name for name in u2reg.__all__ if not hasattr(u2reg, name)]
    assert missing == []
    assert len(set(u2reg.__all__)) == len(u2reg.__all__)
