import itertools

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linprog
from scipy.optimize._highspy._core import HighsModelStatus

from delayflow import baselines
from delayflow import lp as lp_module
from delayflow.gen import random_problem
from delayflow.graph import Edge, Network
from delayflow.lp import (
    PIVOT_TOL,
    SOLUTION_TOL,
    CsrRows,
    LinearProgram,
    LpSolution,
    SolverError,
    _solve_highs,
    _solve_simplex,
    solve_lp,
)
from delayflow.problem import PLFunction, build_counterpart, make_dcum, make_tcdm


def test_simple_max():
    lp = LinearProgram("max", [3, 2], CsrRows.from_dense([[1, 1], [1, 0]]), ("<=", "<="), [4, 2])
    sol = _solve_simplex(lp)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(10.0)
    assert sol.x == pytest.approx([2.0, 2.0])


def test_simple_min_with_equality():
    lp = LinearProgram("min", [1, 2], CsrRows.from_dense([[1, 1]]), ("=",), [3])
    sol = _solve_simplex(lp)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(3.0)
    assert sol.x == pytest.approx([3.0, 0.0])


#: ``_solve_highs``'s message when HiGHS calls an LP unbounded.
UNBOUNDED = "an LP engine reported the LP unbounded"


def test_infeasible():
    """The tableau settles no infeasible LP; HiGHS calls it infeasible."""
    lp = LinearProgram("min", [1], CsrRows.from_dense([[1], [1]]), ("<=", ">="), [1, 2])
    assert _solve_simplex(lp) is None
    assert _solve_highs(lp).status == "infeasible"


def test_unbounded():
    """The tableau settles no unbounded LP; HiGHS calls it unbounded."""
    lp = LinearProgram("max", [1, 0], CsrRows.from_dense([[0, 1]]), ("<=",), [1])
    assert _solve_simplex(lp) is None
    with pytest.raises(SolverError, match=UNBOUNDED):
        _solve_highs(lp)


@pytest.mark.parametrize("cells", [lp_module._AUTO_TABLEAU_CELLS, 0], ids=["tableau", "highs"])
def test_solve_lp_raises_on_unbounded(monkeypatch, cells):
    """Every LP the package builds is bounded, so ``solve_lp`` returns only
    optimal or infeasible solutions and reports an unbounded one as a
    solver failure, whether or not the tableau saw the LP first."""
    monkeypatch.setattr(lp_module, "_AUTO_TABLEAU_CELLS", cells)
    lp = LinearProgram("max", [1, 0], CsrRows.from_dense([[0, 1]]), ("<=",), [1])
    with pytest.raises(SolverError, match=UNBOUNDED):
        solve_lp(lp)


def test_csr_rows_from_triplets_is_canonical():
    """Zero values and rows below 0 are dropped, each row's columns sorted;
    ``from_dense`` gives the same rows for the dense matrix."""
    rows = np.array([1, 0, -1, 1, 0, 2])
    cols = np.array([2, 1, 0, 0, 0, 1])
    vals = np.array([5.0, 0.0, 9.0, -3.0, 4.0, 7.0])
    csr = CsrRows.from_triplets(rows, cols, vals, (3, 3))
    assert csr.data.tolist() == [4.0, -3.0, 5.0, 7.0]
    assert csr.indices.tolist() == [0, 0, 2, 1]
    assert csr.indptr.tolist() == [0, 1, 3, 4]
    dense = CsrRows.from_dense(csr.toarray())
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(dense, name), getattr(csr, name))
        assert getattr(dense, name).dtype == getattr(csr, name).dtype


def test_validation_errors():
    with pytest.raises(ValueError):
        LinearProgram("maximize", [1], CsrRows.from_dense([[1]]), ("<=",), [1])
    with pytest.raises(ValueError):
        LinearProgram("max", [1], CsrRows.from_dense([[1]]), ("<",), [1])
    with pytest.raises(ValueError):
        LinearProgram("max", [1], CsrRows.from_dense([[1], [1]]), ("<=",), [1])
    with pytest.raises(TypeError, match="rows must be a CsrRows, not list"):
        LinearProgram("max", [1], [[1]], ("<=",), [1])


def test_determinism():
    rng = np.random.default_rng(5)
    lp = LinearProgram(
        "max",
        rng.integers(-3, 4, size=5).astype(float),
        CsrRows.from_dense(rng.integers(-3, 4, size=(5, 5)).astype(float)),
        ("<=", ">=", "=", "<=", "<="),
        rng.integers(0, 9, size=5).astype(float),
    )
    a = _solve_simplex(lp)
    b = _solve_simplex(lp)
    assert (a is None) == (b is None)
    if a is not None:
        assert np.array_equal(a.x, b.x)


def _enumerate_vertices(lp: LinearProgram):
    """All basic feasible points of {Ax rel b, x >= 0} by activating n
    constraints at a time."""
    n = lp.num_vars
    dense = lp.rows.toarray()
    planes = [(row, b) for row, b in zip(dense, lp.rhs)]
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        planes.append((e, 0.0))
    eq_idx = [i for i, r in enumerate(lp.relations) if r == "="]
    verts = []
    for combo in itertools.combinations(range(len(planes)), n):
        if any(i not in combo for i in eq_idx):
            continue
        a = np.array([planes[i][0] for i in combo])
        b = np.array([planes[i][1] for i in combo])
        try:
            x = np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            continue
        if np.any(x < -1e-7):
            continue
        ok = True
        for row, rel, rhs in zip(dense, lp.relations, lp.rhs):
            v = float(row @ x)
            if rel == "<=" and v > rhs + 1e-7:
                ok = False
            elif rel == ">=" and v < rhs - 1e-7:
                ok = False
            elif rel == "=" and abs(v - rhs) > 1e-7:
                ok = False
            if not ok:
                break
        if ok:
            verts.append(x)
    return verts


def test_against_vertex_enumeration():
    """Oracle check: with x >= 0 the feasible set is pointed, so it is
    nonempty iff it has a vertex, and any finite optimum is attained at one.
    """
    rng = np.random.default_rng(123)
    checked_optimal = 0
    for _ in range(100):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 7))
        lp = LinearProgram(
            "max" if rng.random() < 0.5 else "min",
            rng.integers(-5, 6, size=n).astype(float),
            CsrRows.from_dense(rng.integers(-5, 6, size=(m, n)).astype(float)),
            tuple(rng.choice(["<=", "=", ">="], size=m, p=[0.6, 0.2, 0.2])),
            rng.integers(0, 10, size=m).astype(float),
        )
        sol = _solve_simplex(lp)
        verts = _enumerate_vertices(lp)
        if not verts:
            assert sol is None
            assert solve_lp(lp).status == "infeasible"
            continue
        if sol is None:  # unbounded: HiGHS must say so
            with pytest.raises(SolverError, match=UNBOUNDED):
                solve_lp(lp)
            continue
        vals = [float(lp.objective @ v) for v in verts]
        best = max(vals) if lp.sense == "max" else min(vals)
        assert sol.objective == pytest.approx(best, abs=1e-6)
        checked_optimal += 1
    assert checked_optimal > 20


def test_engines_agree_on_random_lps():
    rng = np.random.default_rng(77)
    for _ in range(100):
        n = int(rng.integers(1, 8))
        m = int(rng.integers(1, 8))
        lp = LinearProgram(
            "max" if rng.random() < 0.5 else "min",
            rng.integers(-5, 6, size=n).astype(float),
            CsrRows.from_dense(rng.integers(-5, 6, size=(m, n)).astype(float)),
            tuple(rng.choice(["<=", "=", ">="], size=m)),
            rng.integers(0, 10, size=m).astype(float),
        )
        a = _solve_simplex(lp)
        b = _assert_same_as_linprog(lp)
        if a is None:
            assert b.status in ("infeasible", "unbounded")
        else:
            assert b.status == "optimal"
            assert a.objective == pytest.approx(b.objective, abs=1e-6)


def test_auto_engine_picks_simplex_for_small(monkeypatch):
    def no_highs(lp):
        raise AssertionError("small LP sent to HiGHS")

    monkeypatch.setattr(lp_module, "_solve_highs", no_highs)
    lp = LinearProgram("max", [1], CsrRows.from_dense([[1]]), ("<=",), [1])
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.x.tolist() == [1.0]


# -- reference engine ---------------------------------------------------------
# A scalar two-phase tableau simplex with one Python loop per row and per
# column, with its own status codes. Wherever the array engine settles an
# LP, it must reproduce the reference's x and objective bit for bit,
# because every tableau cell gets the same floating-point operations.

STATUS_OPTIMAL = 0
STATUS_UNBOUNDED = 1
STATUS_ITER_LIMIT = 2


def _reference_iterations(T, basis, n_enterable, max_iter):
    m = T.shape[0] - 1
    for _ in range(max_iter):
        enter = -1
        for j in range(n_enterable):
            if T[m, j] < -PIVOT_TOL:
                enter = j
                break
        if enter < 0:
            return STATUS_OPTIMAL
        leave = -1
        best = np.inf
        for i in range(m):
            a = T[i, enter]
            if a > PIVOT_TOL:
                r = T[i, -1] / a
                if r < best - PIVOT_TOL or (
                    r < best + PIVOT_TOL and (leave < 0 or basis[i] < basis[leave])
                ):
                    if r < best:
                        best = r
                    leave = i
        if leave < 0:
            return STATUS_UNBOUNDED
        piv = T[leave, enter]
        T[leave, :] /= piv
        for i in range(m + 1):
            if i != leave:
                f = T[i, enter]
                if f != 0.0:
                    T[i, :] -= f * T[leave, :]
        basis[leave] = enter
    return STATUS_ITER_LIMIT


def _reference_simplex(lp: LinearProgram):
    c_user = lp.objective
    c = c_user if lp.sense == "max" else -c_user
    n = lp.num_vars
    a = lp.rows.toarray()
    rels = list(lp.relations)
    m = a.shape[0]
    scale = np.abs(a).max(axis=1, initial=0.0)
    scale[scale < 1e-12] = 1.0
    a = a / scale[:, None]
    b = lp.rhs / scale
    flip = {"<=": ">=", ">=": "<=", "=": "="}
    for i in range(m):
        if b[i] < 0:
            a[i] = -a[i]
            b[i] = -b[i]
            rels[i] = flip[rels[i]]
    n_slack = sum(1 for r in rels if r != "=")
    n_art = sum(1 for r in rels if r != "<=")
    ncols = n + n_slack + n_art
    T = np.zeros((m + 1, ncols + 1))
    T[:m, :n] = a
    T[:m, -1] = b
    basis = np.empty(m, dtype=np.int64)
    art_col_of_row = np.full(m, -1, dtype=np.int64)
    slack_col_of_row = np.full(m, -1, dtype=np.int64)
    sc, ac = n, n + n_slack
    for i, rel in enumerate(rels):
        if rel != "=":
            T[i, sc] = 1.0 if rel == "<=" else -1.0
            slack_col_of_row[i] = sc
            sc += 1
        if rel != "<=":
            T[i, ac] = 1.0
            art_col_of_row[i] = ac
            basis[i] = ac
            ac += 1
        else:
            basis[i] = slack_col_of_row[i]
    if n_art:
        for i in range(m):
            if art_col_of_row[i] >= 0:
                T[m, :] -= T[i, :]
        status = _reference_iterations(T, basis, n + n_slack, 200_000)
        assert status == STATUS_OPTIMAL
        if T[m, -1] < -SOLUTION_TOL:
            return LpSolution("infeasible")
        art_set = set(range(n + n_slack, ncols))
        drop_rows = []
        for i in range(m):
            if basis[i] in art_set:
                pivot_j = -1
                for j in range(n + n_slack):
                    if abs(T[i, j]) > PIVOT_TOL:
                        pivot_j = j
                        break
                if pivot_j < 0:
                    drop_rows.append(i)
                    continue
                piv = T[i, pivot_j]
                T[i, :] /= piv
                for r in range(m + 1):
                    if r != i and T[r, pivot_j] != 0.0:
                        T[r, :] -= T[r, pivot_j] * T[i, :]
                basis[i] = pivot_j
        if drop_rows:
            keep = [i for i in range(m) if i not in set(drop_rows)]
            T = np.vstack([T[keep, :], T[m:, :]])
            basis = basis[np.array(keep, dtype=np.int64)]
            m = len(keep)
    c_ext = np.zeros(ncols + 1)
    c_ext[:n] = c
    cb = c_ext[basis]
    T[m, :] = cb @ T[:m, :] - c_ext
    status = _reference_iterations(T, basis, n + n_slack, 200_000)
    if status == STATUS_UNBOUNDED:
        return LpSolution("unbounded")
    assert status == STATUS_OPTIMAL
    x = np.zeros(n)
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = T[i, -1]
    return LpSolution("optimal", x, float(c_user @ x))


def _assert_same_as_reference(lp: LinearProgram) -> str:
    """The tableau settles an LP exactly when the reference finds an
    optimum whose x holds, and then returns the same x bit for bit."""
    ref = _reference_simplex(lp)
    got = _solve_simplex(lp)
    if ref.status == "optimal" and lp_module._holds(lp, ref.x):
        assert got.x.tobytes() == ref.x.tobytes()
        assert got.objective == ref.objective
    else:
        assert got is None
    return ref.status


def test_array_engine_matches_reference_on_random_feasible_lps():
    """Feasible by construction (rows evaluated at a point x0 >= 0), with
    upper bounds on some variables written as explicit "<=" rows."""
    rng = np.random.default_rng(2024)
    statuses = []
    for _ in range(150):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 9))
        a = rng.integers(-5, 6, size=(m, n)) * (rng.random((m, n)) < 0.7)
        x0 = rng.integers(0, 5, size=n)
        rels = rng.choice(["<=", "=", ">="], size=m)
        slack = rng.integers(0, 4, size=m)
        rhs = a @ x0 + np.select([rels == "<=", rels == ">="], [slack, -slack], 0)
        bounded = (rng.random(n) < 0.3).nonzero()[0]
        lp = LinearProgram(
            "max" if rng.random() < 0.5 else "min",
            rng.integers(-5, 6, size=n).astype(float),
            CsrRows.from_dense(np.vstack((a, np.eye(n)[bounded]))),
            tuple(rels) + ("<=",) * bounded.size,
            np.concatenate((rhs, x0[bounded] + rng.integers(0, 4, size=bounded.size))),
        )
        statuses.append(_assert_same_as_reference(lp))
    assert "infeasible" not in statuses
    assert statuses.count("optimal") > 100


def test_array_engine_matches_reference_on_ec2_counterparts(ec2_sweep_specs):
    """Also sends each counterpart through HiGHS: the x of ``linprog`` and
    the same optimum as the tableau."""
    statuses = []
    for spec in ec2_sweep_specs:
        lp = build_counterpart(spec)[0]
        statuses.append(_assert_same_as_reference(lp))
        highs = _assert_same_as_linprog(lp)
        assert highs.status == "optimal"
        assert highs.objective == pytest.approx(_solve_simplex(lp).objective, abs=1e-6)
    assert len(statuses) == 226
    assert statuses.count("optimal") == 226


# -- HiGHS reference ----------------------------------------------------------
# The call through scipy's ``linprog`` that ``_solve_highs`` replaced. The
# direct binding gets the same model and options, so it must return the same
# status and the same x bit for bit.


def _linprog_highs(lp: LinearProgram) -> LpSolution:
    c = lp.objective if lp.sense == "min" else -lp.objective
    rel = np.array(lp.relations, dtype=object)
    ub = np.flatnonzero(rel != "=")
    eq = np.flatnonzero(rel == "=")
    sign = np.where(rel[ub] == ">=", -1.0, 1.0)
    rows = sp.csr_array((lp.rows.data, lp.rows.indices, lp.rows.indptr), shape=lp.rows.shape)
    a_ub = rows[ub]
    a_ub.data *= np.repeat(sign, np.diff(a_ub.indptr))
    kwargs = dict(
        A_ub=a_ub if ub.size else None,
        b_ub=sign * lp.rhs[ub] if ub.size else None,
        A_eq=rows[eq] if eq.size else None,
        b_eq=lp.rhs[eq] if eq.size else None,
        method="highs",
    )
    res = linprog(c, **kwargs)
    if res.status == 2:
        res = linprog(c, options={"presolve": False}, **kwargs)
    if res.status == 2:
        return LpSolution("infeasible")
    if res.status == 3:
        return LpSolution("unbounded")
    assert res.status == 0, res.message
    x = np.asarray(res.x, dtype=np.float64)
    return LpSolution("optimal", x, float(lp.objective @ x))


def _assert_same_as_linprog(lp: LinearProgram) -> LpSolution:
    ref = _linprog_highs(lp)
    if ref.status == "unbounded":
        with pytest.raises(SolverError, match=UNBOUNDED):
            _solve_highs(lp)
        return ref
    got = _solve_highs(lp)
    assert got.status == ref.status
    if ref.status == "optimal":
        assert np.array_equal(got.x, ref.x)
        assert got.x.tobytes() == ref.x.tobytes()  # -0.0 too
        assert got.objective == ref.objective
    return got


def test_highs_matches_linprog_on_random_counterparts():
    """Generated problems of 15 to 20 nodes, straight to HiGHS."""
    statuses = []
    for seed in range(30):
        rng = np.random.default_rng(seed)
        spec = random_problem(rng, max_nodes=15 + seed % 6)
        statuses.append(_assert_same_as_linprog(build_counterpart(spec)[0]).status)
    assert statuses.count("optimal") == 30


_ITERATE = lp_module.simplex_iterations


def _ends_at(x):
    """Both phases pivot as usual, then phase 2 leaves every column of the
    LP basic at ``x``, as pivots that lost accuracy would."""

    def phase(number, T, basis, *args):
        if not _ITERATE(T, basis, *args):
            return False
        if number == 2:
            basis[:] = range(len(x))
            T[:-1, -1] = x
        return True

    return phase


def _stalls(number, T, basis, *args):
    """Every phase runs out of pivots."""
    return False


def _phase_1_residual(number, T, basis, *args):
    """Phase 1 stops where it starts, with its artificials at 0.5."""
    return number == 1 or _ITERATE(T, basis, *args)


def _unbounded_column(number, T, basis, n_enterable, max_iter):
    """Phase 2 starts with no leaving row for its first improving column."""
    if number == 2:
        enter = int((T[-1, :n_enterable] < -PIVOT_TOL).argmax())
        T[:-1, enter] = -1.0
    return _ITERATE(T, basis, n_enterable, max_iter)


@pytest.mark.parametrize(
    "tableau,highs_calls",
    [
        (_ends_at([1.0, 1.0, 1.0, 0.0]), 0),  # the optimum: the tableau's answer stands
        (_ends_at([1.5, 1.5, 1.0, 0.0]), 1),  # x0 + x1 <= 2 broken
        (_ends_at([1.0, 0.9, 1.0, 0.0]), 1),  # x0 - x1 = 0 broken
        (_ends_at([1.0, 1.0, 1.0, -0.01]), 1),  # x >= 0 broken
        (_stalls, 1),
        (_phase_1_residual, 1),
        (_unbounded_column, 1),
    ],
    ids=["holds", "le-row", "eq-row", "negative", "stall", "phase-1-residual", "unbounded-column"],
)
def test_tableau_x_that_breaks_a_row_goes_to_highs(monkeypatch, tableau, highs_calls):
    """A tableau whose pivots lost accuracy returns an x off its rows, and
    one that stalls, keeps a phase-1 residual or finds an improving column
    with no leaving row on a bounded feasible LP returns nothing. In each
    case HiGHS decides, and its optimum is the one ``solve_lp`` returns."""
    lp = LinearProgram(
        "max",
        [1, 1, 1, 0],
        CsrRows.from_dense([[1, 1, 0, 0], [1, -1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]),
        ("<=", "=", ">=", "<="),
        [2, 0, 0.5, 1],
    )
    phases = itertools.count(1)
    monkeypatch.setattr(lp_module, "simplex_iterations", lambda *a: tableau(next(phases), *a))
    calls = []
    highs = lp_module._solve_highs
    monkeypatch.setattr(lp_module, "_solve_highs", lambda lp: calls.append(lp) or highs(lp))
    assert solve_lp(lp).x.tolist() == [1.0, 1.0, 1.0, 0.0]
    assert len(calls) == highs_calls
def _optimal_runner(x):
    def runner(model, presolve):
        return HighsModelStatus.kOptimal, np.array(x, dtype=float)

    return runner


@pytest.mark.parametrize(
    "runner,message",
    [
        # Each x breaks one condition only.
        (_optimal_runner([1.5, 1.5, 1, 0]), "violates the constraints"),  # x0 + x1 <= 2
        (_optimal_runner([1, 0.9, 1, 0]), "violates the constraints"),  # x0 - x1 = 0
        (_optimal_runner([0.25, 0.25, 1, 0]), "violates the constraints"),  # x1 >= 0.5
        (_optimal_runner([1, 1, -0.01, 0]), "violates the constraints"),  # x >= 0
        (_optimal_runner([1, 1, 1, np.inf]), "violates the constraints"),  # x3 in no row
        (_optimal_runner([1 + 3e-4, 1, 1, 0]), None),  # within 10 * sqrt(1e-9)
        (lambda model, presolve: (HighsModelStatus.kSolveError, None),
         "HiGHS model status kSolveError"),
    ],
)
def test_highs_result_is_checked(monkeypatch, runner, message):
    lp = LinearProgram(
        "max",
        [1, 1, 1, 0],
        CsrRows.from_dense([[1, 1, 0, 0], [1, -1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]),
        ("<=", "=", ">=", "<="),
        [2, 0, 0.5, 1],
    )
    assert _solve_highs(lp).x.tolist() == [1.0, 1.0, 1.0, 0.0]
    monkeypatch.setattr(lp_module, "linprog", runner)
    if message is None:
        assert _solve_highs(lp).status == "optimal"
    else:
        with pytest.raises(SolverError, match=message):
            _solve_highs(lp)


def test_highs_retries_without_presolve(monkeypatch):
    calls = []
    runner = lp_module.linprog

    def spy(model, presolve):
        calls.append(presolve)
        return runner(model, presolve)

    monkeypatch.setattr(lp_module, "linprog", spy)
    # Unbounded: presolve reports infeasible, the plain solve unbounded (one
    # of the random LPs of test_engines_agree_on_random_lps).
    lp = LinearProgram(
        "max",
        [-4, 5, -1, 2],
        CsrRows.from_dense([[-1, 2, -2, 3], [0, 5, -4, -4], [-4, 3, -5, 4]]),
        (">=", "=", "<="),
        [2, 9, 7],
    )
    with pytest.raises(SolverError, match=UNBOUNDED):
        _solve_highs(lp)
    assert calls == [True, False]
    calls.clear()
    one = LinearProgram("max", [1], CsrRows.from_dense([[1]]), ("<=",), [1])
    assert _solve_highs(one).status == "optimal"
    assert calls == [True]


def _three_node_net():
    # a->b (delay 1, cap 10), b->c (2, 10), a->c (5, 4)
    return Network(
        ("a", "b", "c"),
        (Edge(0, 1, 1.0, 10.0), Edge(1, 2, 2.0, 10.0), Edge(0, 2, 5.0, 4.0)),
    )


def test_counterpart_matrix_tcdm():
    lp, _ = build_counterpart(make_tcdm(_three_node_net(), [("a", "c", 6.0, 2.0)]))
    # columns: edge flows x0 x1 x2, rate, aux
    expected = [
        [1, 0, 1, -1, 0],  # net outflow at a equals the rate
        [-1, 1, 0, 0, 0],  # conservation at b
        [0, 0, 0, 1, 0],  # rate = R
        [-2, -4, -10, 0, 6],  # R*aux - w*T >= 0
        [1, 0, 0, 0, 0],  # capacities
        [0, 1, 0, 0, 0],
        [0, 0, 1, 0, 0],
    ]
    assert np.array_equal(lp.rows.toarray(), expected)
    assert lp.relations == ("=", "=", "=", ">=", "<=", "<=", "<=")
    assert lp.rhs.tolist() == [0, 0, 6, 0, 10, 10, 4]
    assert lp.sense == "min" and lp.objective.tolist() == [0, 0, 0, 0, 1]


def test_counterpart_matrix_dcum():
    u = PLFunction(((0.0, 0.0), (3.0, 6.0), (5.0, 7.0)))  # slopes 2, 0.5
    lp, _ = build_counterpart(make_dcum(_three_node_net(), [("a", "c", 4.0, u)]))
    expected = [
        [1, 0, 1, -1, 0],  # net outflow at a equals the rate
        [-1, 1, 0, 0, 0],  # conservation at b
        [1, 2, 5, -4, 0],  # T <= D * rate
        [0, 0, 0, -2, 1],  # aux <= 2 * rate
        [0, 0, 0, -0.5, 1],  # aux <= 0.5 * rate + 4.5
        [1, 0, 0, 0, 0],  # capacities
        [0, 1, 0, 0, 0],
        [0, 0, 1, 0, 0],
    ]
    assert np.array_equal(lp.rows.toarray(), expected)
    assert lp.relations == ("=", "=", "<=", "<=", "<=", "<=", "<=", "<=")
    assert lp.rhs.tolist() == [0, 0, 0, 0, 4.5, 10, 10, 4]
    assert lp.sense == "max" and lp.objective.tolist() == [0, 0, 0, 0, 1]


def _exact_lps(spec, monkeypatch):
    """The LPs ``solve_exact(spec)`` solves, in order."""
    lps = []
    solve = baselines.solve_lp

    def record(lp):
        lps.append(lp)
        return solve(lp)

    monkeypatch.setattr(baselines, "solve_lp", record)
    baselines.solve_exact(spec)
    return lps


def test_exact_lp_matrix_dcum(monkeypatch):
    u = PLFunction(((0.0, 0.0), (3.0, 6.0), (5.0, 7.0)))  # slopes 2, 0.5
    (lp,) = _exact_lps(make_dcum(_three_node_net(), [("a", "c", 4.0, u)]), monkeypatch)
    # Within D=4 the one path is a->b->c; a->c is too slow.
    # columns: path rate p0 (a->b->c), rate, aux
    expected = [
        [1, -1, 0],  # the path rates sum to the rate
        [0, -2, 1],  # aux <= 2 * rate; no average-delay row
        [0, -0.5, 1],  # aux <= 0.5 * rate + 4.5
        [1, 0, 0],  # capacities of the edges some path uses
        [1, 0, 0],
    ]
    assert np.array_equal(lp.rows.toarray(), expected)
    assert lp.relations == ("=", "<=", "<=", "<=", "<=")
    assert lp.rhs.tolist() == [0, 0, 4.5, 10, 10]
    assert lp.sense == "max" and lp.objective.tolist() == [0, 0, 1]


def test_exact_lp_matrix_tcdm(monkeypatch):
    (lp,) = _exact_lps(make_tcdm(_three_node_net(), [("a", "c", 6.0, 2.0)]), monkeypatch)
    # The first deadline tried is the fastest path's delay, 3, which carries
    # 10 >= R. columns: p0 as above, rate, scale t
    expected = [
        [1, -1, 0],  # the path rates sum to the rate
        [0, 1, -1],  # rate >= t * R_i / max R
        [1, 0, 0],  # capacities
        [1, 0, 0],
    ]
    assert np.array_equal(lp.rows.toarray(), expected)
    assert lp.relations == ("=", ">=", "<=", "<=")
    assert lp.rhs.tolist() == [0, 0, 10, 10]
    assert lp.sense == "max" and lp.objective.tolist() == [0, 0, 1]
