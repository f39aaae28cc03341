"""``delayflow.lp`` calls HiGHS through scipy's bundled binding
``scipy.optimize._highspy._core``, a private API that may change between
scipy releases. pyproject.toml pins the range it was verified on; this test
fails with the installed scipy version when the binding moves."""

import importlib
import sys

import numpy as np
import pytest
import scipy

from delayflow import lp as lp_module


def test_bundled_highs_binding():
    try:
        core = importlib.import_module("scipy.optimize._highspy._core")
    except ImportError as e:
        pytest.fail(f"scipy {scipy.__version__} has no scipy.optimize._highspy._core: {e}")
    missing = [
        name
        for name in ("_Highs", "HighsModelStatus", "HighsStatus", "MatrixFormat", "ObjSense", "kHighsInf")
        if not hasattr(core, name)
    ]
    assert not missing, f"scipy {scipy.__version__}: _highspy._core lacks {missing}"
    assert core.kHighsInf == np.inf, f"scipy {scipy.__version__}: kHighsInf is {core.kHighsInf}"
    for status in ("kOptimal", "kInfeasible", "kUnbounded", "kModelError"):
        assert hasattr(core.HighsModelStatus, status), f"scipy {scipy.__version__}: no {status}"

    from delayflow.lp import CsrRows, LinearProgram, _solve_highs

    # max 3x + 2y s.t. x + y <= 4, x <= 2, x, y >= 0: optimum (2, 2).
    rows = CsrRows.from_dense([[1, 1], [1, 0]])
    lp = LinearProgram("max", [3, 2], rows, ("<=", "<="), [4, 2])
    sol = _solve_highs(lp)
    assert sol.status == "optimal", f"scipy {scipy.__version__}: {sol.status}"
    assert sol.x.tolist() == [2.0, 2.0]
    assert sol.objective == 10.0


def test_array_overload_of_pass_model():
    """``lp.linprog`` hands HiGHS its model through the 15-argument array
    overload of ``_Highs.passModel``, in ``lp.HighsModel``'s field order;
    solve the 2x2 LP through it directly. A binding without that overload
    raises TypeError on the call."""
    from scipy.optimize._highspy import _core as core

    from delayflow.lp import HighsModel

    version = f"scipy {scipy.__version__}"
    # min -3x - 2y s.t. x + y <= 4, x <= 2, x, y >= 0; columns x, y in CSC.
    model = HighsModel(
        num_col=2,
        num_row=2,
        nnz=3,
        format=int(core.MatrixFormat.kColwise),
        sense=int(core.ObjSense.kMinimize),
        offset=0.0,
        col_cost=np.array([-3.0, -2.0]),
        col_lower=np.zeros(2),
        col_upper=np.full(2, core.kHighsInf),
        row_lower=np.full(2, -core.kHighsInf),
        row_upper=np.array([4.0, 2.0]),
        start=np.array([0, 2, 3], dtype=np.int32),
        index=np.array([0, 1, 0], dtype=np.int32),
        value=np.array([1.0, 1.0, 1.0]),
        integrality=np.zeros(2, dtype=np.int32),
    )
    highs = core._Highs()
    highs.setOptionValue("output_flag", False)
    try:
        status = highs.passModel(*model)
    except TypeError as e:
        pytest.fail(f"{version}: _Highs.passModel rejects the array overload: {e}")
    assert status == core.HighsStatus.kOk, f"{version}: passModel returned {status}"
    highs.run()
    assert highs.getModelStatus() == core.HighsModelStatus.kOptimal, version
    assert list(highs.getSolution().col_value) == [2.0, 2.0], version


def _large_lp() -> lp_module.LinearProgram:
    """A random bounded LP whose tableau is above ``_AUTO_TABLEAU_CELLS``:
    max c.x over 300 sparse nonnegative rows and a row sum(x) <= 50."""
    rng = np.random.default_rng(21)
    dense = rng.uniform(0.5, 2.0, (300, 400)) * (rng.random((300, 400)) < 0.02)
    dense = np.vstack((dense, np.ones(400)))
    rhs = np.append(rng.uniform(1.0, 10.0, 300), 50.0)
    prog = lp_module.LinearProgram(
        "max", rng.uniform(0.0, 1.0, 400), lp_module.CsrRows.from_dense(dense), ("<=",) * 301, rhs
    )
    assert (prog.num_rows + 1) * (prog.num_vars + 2 * prog.num_rows + 2) > (
        lp_module._AUTO_TABLEAU_CELLS
    )
    return prog


def _missing_file(tmp_path):
    """A binding-file lookup that finds no file."""

    def lookup():
        raise FileNotFoundError("no binding file")

    return lookup


def _raising_file(tmp_path):
    """A binding-file lookup whose file raises as it runs, after it is
    registered in ``sys.modules``."""
    path = tmp_path / "_core.py"
    path.write_text("raise RuntimeError('half loaded')\n")
    return lambda: path


@pytest.mark.parametrize("lookup", [_missing_file, _raising_file], ids=["no-file", "exec-fails"])
def test_failed_direct_load_falls_back_to_a_plain_import(tmp_path, monkeypatch, lookup):
    """When the binding cannot be loaded from its file, ``_highs`` imports
    it the usual way, with no half-loaded module left behind, and an LP
    above the tableau threshold gets the same x, bit for bit."""
    prog = _large_lp()
    expected = lp_module.solve_lp(prog)
    assert expected.status == "optimal"

    imported = []
    import_module = importlib.import_module

    def spy(name, *args):
        imported.append(name)
        return import_module(name, *args)

    monkeypatch.setattr(lp_module, "_binding_file", lookup(tmp_path))
    monkeypatch.setattr(importlib, "import_module", spy)
    monkeypatch.delitem(sys.modules, lp_module._BINDING, raising=False)
    lp_module._highs.cache_clear()
    try:
        got = lp_module.solve_lp(prog)
        assert imported == [lp_module._BINDING]
        assert sys.modules[lp_module._BINDING] is lp_module._highs()
    finally:
        lp_module._highs.cache_clear()
    assert got.status == "optimal"
    assert got.x.tobytes() == expected.x.tobytes()
    assert got.objective == expected.objective
