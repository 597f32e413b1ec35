import types

import linsing


def test_public_names_resolve_and_are_not_modules():
    assert len(linsing.__all__) == len(set(linsing.__all__))
    for name in linsing.__all__:
        value = getattr(linsing, name)
        assert not isinstance(value, types.ModuleType), name
    for name in ("DEFAULT_TOLERANCES", "NonFiniteError", "integrate", "solve_affine"):
        assert name in linsing.__all__
    assert "errors" not in linsing.__all__ and "__version__" not in linsing.__all__
