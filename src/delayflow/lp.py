"""Self-contained linear-program solving.

Every LP has one form: optimise c.x subject to rows[i].x <rel_i> rhs[i]
and x >= 0, with <rel_i> one of <=, =, >=. Two engines behind one contract:
a from-scratch two-phase dense-tableau simplex (Bland's rule, deterministic,
each pivot one numpy rank-1 update), and scipy's HiGHS, given the sparse
constraint matrix, for instances too large for a dense tableau. ``solve_lp``
picks the engine by tableau size, so identical inputs always take the same
route and yield bit-identical solutions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

#: Pivot tolerance for the tableau simplex.
PIVOT_TOL = 1e-9

#: Absolute feasibility tolerance for solutions (after row scaling).
SOLUTION_TOL = 1e-7

#: Above this many tableau cells, ``solve_lp`` switches to HiGHS.
_AUTO_TABLEAU_CELLS = 250_000

_MAX_ITER = 200_000

STATUS_OPTIMAL = 0
STATUS_UNBOUNDED = 1
STATUS_ITER_LIMIT = 2


@dataclass
class LinearProgram:
    """``sense`` c.x subject to rows[i].x <relations[i]> rhs[i] and x >= 0
    (every variable is nonnegative). ``rows`` may be given dense or sparse;
    it is stored as a ``scipy.sparse.csr_array`` without explicit zeros."""

    sense: str  # "min" or "max"
    objective: np.ndarray
    rows: sp.csr_array
    relations: tuple[str, ...]
    rhs: np.ndarray

    def __post_init__(self):
        if self.sense not in ("min", "max"):
            raise ValueError("sense must be 'min' or 'max'")
        self.objective = np.asarray(self.objective, dtype=np.float64)
        n = self.objective.shape[0]
        if sp.issparse(self.rows):
            rows = self.rows
            if not (
                isinstance(rows, sp.csr_array)
                and rows.dtype == np.float64
                and rows.has_canonical_format
                and rows.data.all()
            ):
                rows = sp.csr_array(rows, dtype=np.float64, copy=True)
                rows.sum_duplicates()
                rows.eliminate_zeros()
            if rows.shape[1] != n:
                raise ValueError("row/objective dimension mismatch")
        else:
            dense = np.asarray(self.rows, dtype=np.float64).reshape(-1, n)
            rows = sp.csr_array(dense)
        self.rows = rows
        self.rhs = np.asarray(self.rhs, dtype=np.float64)
        self.relations = tuple(self.relations)
        m = self.rows.shape[0]
        if self.rhs.shape != (m,) or len(self.relations) != m:
            raise ValueError("row/relation/rhs dimension mismatch")
        if any(r not in ("<=", "=", ">=") for r in self.relations):
            raise ValueError("relations must be one of <=, =, >=")
        if not np.isfinite(self.rhs).all():
            raise ValueError("rhs must be finite")

    @property
    def num_vars(self) -> int:
        return self.objective.shape[0]

    @property
    def num_rows(self) -> int:
        return self.rows.shape[0]


class SparseRows:
    """Collects constraint rows as (row, column, value) triplets and
    assembles them into a LinearProgram; repeated entries are summed."""

    def __init__(self, num_vars: int):
        self._num_vars = num_vars
        self._relations: list[str] = []
        self._rhs: list[float] = []
        self._row_of: list[int] = []
        self._cols: list[int] = []
        self._vals: list[float] = []

    def add(self, cols: list[int], vals: list[float], rel: str, rhs: float) -> None:
        """Append one row with ``vals[k]`` in column ``cols[k]``."""
        self._row_of += [len(self._rhs)] * len(cols)
        self._cols += cols
        self._vals += vals
        self._relations.append(rel)
        self._rhs.append(rhs)

    def program(self, sense: str, objective: np.ndarray) -> LinearProgram:
        row_of = np.array(self._row_of, dtype=np.int64)
        cols = np.array(self._cols, dtype=np.int64)
        vals = np.array(self._vals, dtype=np.float64)
        keep = vals != 0.0
        if not keep.all():
            row_of, cols, vals = row_of[keep], cols[keep], vals[keep]
        # CSR built directly: entries sorted by (row, column).
        order = np.lexsort((cols, row_of))
        m = len(self._rhs)
        indptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(np.bincount(row_of, minlength=m), out=indptr[1:])
        rows = sp.csr_array((vals[order], cols[order], indptr), shape=(m, self._num_vars))
        return LinearProgram(sense, objective, rows, tuple(self._relations), np.array(self._rhs))


@dataclass
class LpSolution:
    status: str  # "optimal", "infeasible", "unbounded"
    x: np.ndarray | None = None
    objective: float | None = None


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Solve ``lp`` over x >= 0; when optimal, x is feasible within
    SOLUTION_TOL and the objective is within 1e-6 relative of the true
    optimum."""
    cells = (lp.num_rows + 1) * (lp.num_vars + 2 * lp.num_rows + 2)
    if cells <= _AUTO_TABLEAU_CELLS:
        return _solve_simplex(lp)
    return _solve_highs(lp)


def _solve_highs(lp: LinearProgram) -> LpSolution:
    c = lp.objective if lp.sense == "min" else -lp.objective
    rel = np.array(lp.relations, dtype=object)
    ub = np.flatnonzero(rel != "=")
    eq = np.flatnonzero(rel == "=")
    # ">=" rows enter A_ub negated; rows keep their relative order.
    sign = np.where(rel[ub] == ">=", -1.0, 1.0)
    a_ub = lp.rows[ub]  # row indexing copies, so negating in place is safe
    a_ub.data *= np.repeat(sign, np.diff(a_ub.indptr))
    kwargs = dict(
        A_ub=a_ub if ub.size else None,
        b_ub=sign * lp.rhs[ub] if ub.size else None,
        A_eq=lp.rows[eq] if eq.size else None,
        b_eq=lp.rhs[eq] if eq.size else None,
        method="highs",
    )
    res = linprog(c, **kwargs)
    if res.status == 2:
        # HiGHS presolve can report "infeasible" for unbounded problems;
        # re-check without presolve to tell them apart.
        res = linprog(c, options={"presolve": False}, **kwargs)
    if res.status == 2:
        return LpSolution("infeasible")
    if res.status == 3:
        return LpSolution("unbounded")
    if res.status != 0:
        raise RuntimeError(f"LP solver failure: {res.message}")
    x = np.asarray(res.x, dtype=np.float64)
    return LpSolution("optimal", x, float(lp.objective @ x))


def _pivot(T: np.ndarray, row: int, col: int) -> None:
    """Pivot T on (row, col): scale the row, then one rank-1 update of the
    rows whose entry in ``col`` is nonzero (rows with a zero there keep
    every cell untouched)."""
    T[row] /= T[row, col]
    f = T[:, col].copy()
    f[row] = 0.0
    hit = f.nonzero()[0]
    T[hit] -= f[hit, None] * T[row]


def simplex_iterations(T: np.ndarray, basis: np.ndarray, n_enterable: int, max_iter: int) -> int:
    """Run Bland-rule simplex pivots on tableau T in place.

    T has shape (m+1, n+1): m constraint rows plus the objective row last,
    n columns plus the rhs column last. The objective row holds reduced
    costs for a maximization; a column j with T[m, j] < -PIVOT_TOL can
    improve. Only columns < n_enterable may enter (artificials stay out
    in phase 2). Returns a status code.
    """
    m = T.shape[0] - 1
    reduced = T[m, :n_enterable]
    rhs = T[:m, -1]
    in_basis = basis.tolist()
    for _ in range(max_iter):
        improving = reduced < -PIVOT_TOL
        enter = int(improving.argmax())
        if not improving[enter]:
            return STATUS_OPTIMAL
        col = T[:m, enter]
        rows = (col > PIVOT_TOL).nonzero()[0]
        if not rows.size:
            return STATUS_UNBOUNDED
        # Ratio test; ties go to the smallest basis index (Bland).
        ratios = rhs[rows] / col[rows]
        leave = -1
        best = np.inf
        for i, r in zip(rows.tolist(), ratios.tolist()):
            if r < best - PIVOT_TOL or (
                r < best + PIVOT_TOL and (leave < 0 or in_basis[i] < in_basis[leave])
            ):
                if r < best:
                    best = r
                leave = i
        _pivot(T, leave, enter)
        basis[leave] = in_basis[leave] = enter
    return STATUS_ITER_LIMIT


#: Relation as the sign of its slack column: "<=" +1, "=" none, ">=" -1.
_SLACK_SIGN = {"<=": 1.0, "=": 0.0, ">=": -1.0}


def _solve_simplex(lp: LinearProgram) -> LpSolution:
    # Internally a maximization.
    c_user = lp.objective
    c = c_user if lp.sense == "max" else -c_user
    n = lp.num_vars
    m = lp.num_rows
    a = lp.rows.toarray()
    b = lp.rhs.copy()
    slack_sign = np.array([_SLACK_SIGN[r] for r in lp.relations])

    # Row scaling by max-abs coefficient, then orient rhs nonnegative
    # (multiplying by -1.0 negates exactly and flips the relation).
    scale = np.abs(a).max(axis=1, initial=0.0)
    scale[scale < 1e-12] = 1.0
    a /= scale[:, None]
    b /= scale
    orient = np.where(b < 0, -1.0, 1.0)
    a *= orient[:, None]
    b *= orient
    slack_sign *= orient

    # Slack columns (one per inequality) then artificials (one per row that
    # is not "<="), each numbered in row order. ``aux`` is each row's
    # starting basic column: its artificial if it has one, else its slack.
    slack_rows = slack_sign.nonzero()[0]
    art_rows = (slack_sign <= 0).nonzero()[0]
    n_slack, n_art = slack_rows.size, art_rows.size
    ncols = n + n_slack + n_art
    aux = np.empty(m, dtype=np.int64)
    aux[slack_rows] = n + np.arange(n_slack)
    aux[art_rows] = n + n_slack + np.arange(n_art)
    T = np.zeros((m + 1, ncols + 1))
    T[:m, :n] = a
    T[:m, -1] = b
    T[slack_rows, n + np.arange(n_slack)] = slack_sign[slack_rows]
    T[art_rows, aux[art_rows]] = 1.0
    basis = aux.copy()

    # Phase 1: maximize -(sum of artificials).
    if n_art:
        # Row by row in row order, as one sequential reduction.
        T[m] = np.subtract.reduce(T[np.concatenate(([m], art_rows))], axis=0)
        status = simplex_iterations(T, basis, n + n_slack, _MAX_ITER)
        if status != STATUS_OPTIMAL:
            raise RuntimeError("simplex iteration failure in phase 1")
        if T[m, -1] < -SOLUTION_TOL:
            return LpSolution("infeasible")
        # Drive remaining artificials out of the basis; a row with no
        # usable pivot is redundant and dropped.
        keep = np.ones(m + 1, dtype=bool)
        for i in (basis >= n + n_slack).nonzero()[0]:
            usable = (np.abs(T[i, : n + n_slack]) > PIVOT_TOL).nonzero()[0]
            if not usable.size:
                keep[i] = False
                continue
            _pivot(T, i, int(usable[0]))
            basis[i] = usable[0]
        if not keep.all():
            T = T[keep]
            basis = basis[keep[:m]]
            m = basis.size

    # Phase 2 with the real objective.
    c_ext = np.zeros(ncols + 1)
    c_ext[:n] = c
    cb = c_ext[basis]
    T[m, :] = cb @ T[:m, :] - c_ext
    status = simplex_iterations(T, basis, n + n_slack, _MAX_ITER)
    if status == STATUS_UNBOUNDED:
        return LpSolution("unbounded")
    if status != STATUS_OPTIMAL:
        raise RuntimeError("simplex iteration failure in phase 2")

    y = np.zeros(ncols)
    y[basis] = T[:m, -1]
    x = y[:n]
    return LpSolution("optimal", x, float(c_user @ x))
