"""The package's public names."""
import potts_ghs


def test_every_export_resolves_once():
    names = potts_ghs.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(potts_ghs, name), name
