"""The public names of the package."""

import quivercalc

REMOVED = ("laurent_mul", "laurent_inverse", "series_mul", "substitute_variable",
           "pleth_psi")


def test_all_names_resolve_once():
    assert len(quivercalc.__all__) == len(set(quivercalc.__all__))
    for name in quivercalc.__all__:
        assert getattr(quivercalc, name) is not None, name


def test_forwarding_aliases_are_gone():
    # each forwarded to a method: .mul, .inverse, .substitute, .psi
    for name in REMOVED:
        assert name not in quivercalc.__all__
        assert not hasattr(quivercalc, name)
        assert not hasattr(quivercalc.series, name)
