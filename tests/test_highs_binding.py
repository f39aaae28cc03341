"""``delayflow.lp`` calls HiGHS through scipy's bundled binding
``scipy.optimize._highspy._core``, a private API that may change between
scipy releases. pyproject.toml pins the range it was verified on; this test
fails with the installed scipy version when the binding moves."""

import importlib

import numpy as np
import pytest
import scipy


def test_bundled_highs_binding():
    try:
        core = importlib.import_module("scipy.optimize._highspy._core")
    except ImportError as e:
        pytest.fail(f"scipy {scipy.__version__} has no scipy.optimize._highspy._core: {e}")
    missing = [
        name
        for name in ("_Highs", "HighsLp", "HighsModelStatus", "HighsStatus", "MatrixFormat", "kHighsInf")
        if not hasattr(core, name)
    ]
    assert not missing, f"scipy {scipy.__version__}: _highspy._core lacks {missing}"
    assert core.kHighsInf == np.inf, f"scipy {scipy.__version__}: kHighsInf is {core.kHighsInf}"
    for status in ("kOptimal", "kInfeasible", "kUnbounded", "kModelError"):
        assert hasattr(core.HighsModelStatus, status), f"scipy {scipy.__version__}: no {status}"

    from delayflow.lp import LinearProgram, _solve_highs

    # max 3x + 2y s.t. x + y <= 4, x <= 2, x, y >= 0: optimum (2, 2).
    lp = LinearProgram("max", [3, 2], [[1, 1], [1, 0]], ("<=", "<="), [4, 2])
    sol = _solve_highs(lp)
    assert sol.status == "optimal", f"scipy {scipy.__version__}: {sol.status}"
    assert sol.x.tolist() == [2.0, 2.0]
    assert sol.objective == 10.0
