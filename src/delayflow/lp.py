"""Self-contained linear-program solving.

Every LP has one form: optimise c.x subject to rows[i].x <rel_i> rhs[i]
and x >= 0, with <rel_i> one of <=, =, >=. The rows are a ``CsrRows``:
plain numpy arrays in compressed sparse row form. HiGHS's dual simplex
(Huangfu & Hall, Math. Prog. Comp. 10, 2018) is the one authority on an
LP's outcome. A from-scratch two-phase dense-tableau simplex (Bland's
rule, deterministic, each pivot one numpy rank-1 update) is its fast path
for small LPs, those whose dense tableau fits ``_AUTO_TABLEAU_CELLS``
(10,000 cells, about where HiGHS becomes the faster of the two): it
returns an optimum whose x holds on every row, or nothing, and then HiGHS
solves the LP. So identical inputs always take the same route and yield
bit-identical solutions, optimal or infeasible; only HiGHS calls an LP
infeasible, and when it calls one unbounded or fails, ``SolverError`` is
raised.

HiGHS is called through scipy's bundled binding
``scipy.optimize._highspy._core``, a private API (pyproject.toml pins the
scipy range it was verified on). It is loaded on the first LP that goes to
HiGHS, not with this module, and straight from its extension file, so
neither ``scipy`` nor ``scipy.optimize`` is imported: a process whose LPs
the tableau settles never loads scipy, and one that reaches HiGHS loads
only the binding (a plain import, if the direct load fails). A fresh HiGHS
instance per call gets the model and options that
``scipy.optimize.linprog`` would give it, so x is linprog's, without
linprog's input cleaning. The model goes in as plain arrays
(``HighsModel``, the array overload of ``_Highs.passModel``), not as a
``HighsLp`` filled field by field.
"""

from __future__ import annotations

import functools
import importlib
import importlib.util
import sys
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path
from typing import NamedTuple

import numpy as np

#: Pivot tolerance for the tableau simplex.
PIVOT_TOL = 1e-9

#: Phase-1 feasibility tolerance of the tableau simplex (after row scaling).
SOLUTION_TOL = 1e-7

#: Above this many tableau cells (``tableau_cells``), ``solve_lp`` goes
#: straight to HiGHS. Measured on generated counterparts: up to 7,426 cells
#: the tableau takes a median 0.8x HiGHS's time, at 7,427-10,000 cells
#: 0.95-1.1x, and above 10,000 cells 1.2-4x, up to 274x. It stays at or
#: above 7,426, the largest tableau of the four EC2 sweeps.
_AUTO_TABLEAU_CELLS = 10_000

#: Pivots per tableau row and column that a simplex phase may take before
#: the tableau hands the LP to HiGHS.
_PIVOTS_PER_LINE = 10


class SolverError(RuntimeError):
    """A solver failed on a well-formed input: HiGHS gave up, called an LP
    unbounded or returned a point that breaks its constraints, or a search
    ran out of its budget. Not a statement about the problem's feasibility."""


@dataclass(frozen=True, eq=False)
class CsrRows:
    """An m x n matrix in compressed sparse row form: row i holds the
    values ``data[indptr[i]:indptr[i+1]]`` in the columns
    ``indices[indptr[i]:indptr[i+1]]``. Canonical: each row's columns are
    ascending and distinct, and no stored value is zero."""

    data: np.ndarray  # float64
    indices: np.ndarray
    indptr: np.ndarray  # m + 1 offsets
    shape: tuple[int, int]

    @classmethod
    def from_triplets(cls, rows, cols, vals, shape: tuple[int, int]) -> CsrRows:
        """The (row, column, value) array triplets with a nonzero value and
        a row >= 0, in canonical order; (row, column) pairs must be distinct."""
        keep = (vals != 0.0) & (rows >= 0)
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
        order = np.lexsort((cols, rows))
        indptr = np.zeros(shape[0] + 1, dtype=np.intp)
        np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
        return cls(vals[order], cols[order], indptr, shape)

    @classmethod
    def from_dense(cls, dense) -> CsrRows:
        """The nonzeros of a 2-D array-like, as float64."""
        dense = np.asarray(dense, dtype=np.float64)
        r, c = np.nonzero(dense)
        return cls.from_triplets(r, c, dense[r, c], dense.shape)

    @property
    def nnz(self) -> int:
        return self.data.size

    def row_of(self) -> np.ndarray:
        """The row of each stored value."""
        return np.arange(self.shape[0]).repeat(self.indptr[1:] - self.indptr[:-1])

    def toarray(self, out: np.ndarray | None = None) -> np.ndarray:
        """The dense matrix; with ``out`` (zeros, shape ``shape``), the
        values are scattered into it."""
        if out is None:
            out = np.zeros(self.shape)
        out[self.row_of(), self.indices] = self.data
        return out


@dataclass
class LinearProgram:
    """``sense`` c.x subject to rows[i].x <relations[i]> rhs[i] and x >= 0
    (every variable is nonnegative). ``rows`` is a canonical ``CsrRows``;
    ``CsrRows.from_dense`` makes one of a dense matrix."""

    sense: str  # "min" or "max"
    objective: np.ndarray
    rows: CsrRows
    relations: tuple[str, ...]
    rhs: np.ndarray

    def __post_init__(self):
        if self.sense not in ("min", "max"):
            raise ValueError("sense must be 'min' or 'max'")
        self.objective = np.asarray(self.objective, dtype=np.float64)
        n = self.objective.shape[0]
        if not isinstance(self.rows, CsrRows):
            raise TypeError(f"rows must be a CsrRows, not {type(self.rows).__name__}")
        if self.rows.shape[1] != n:
            raise ValueError("row/objective dimension mismatch")
        self.rhs = np.asarray(self.rhs, dtype=np.float64)
        self.relations = tuple(self.relations)
        m = self.rows.shape[0]
        if self.rhs.shape != (m,) or len(self.relations) != m:
            raise ValueError("row/relation/rhs dimension mismatch")
        if not {"<=", "=", ">="}.issuperset(self.relations):
            raise ValueError("relations must be one of <=, =, >=")
        for name, values in (
            ("objective", self.objective), ("row values", self.rows.data), ("rhs", self.rhs)
        ):
            if not np.isfinite(values).all():
                raise ValueError(f"LP {name} must be finite")

    @property
    def num_vars(self) -> int:
        return self.objective.shape[0]

    @property
    def num_rows(self) -> int:
        return self.rows.shape[0]


@dataclass
class LpSolution:
    status: str  # "optimal" or "infeasible"
    x: np.ndarray | None = None
    objective: float | None = None


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Solve ``lp`` over x >= 0; the solution is optimal or infeasible.
    One rule: an LP whose ``tableau_cells`` fit ``_AUTO_TABLEAU_CELLS``
    (10,000, where HiGHS's dual simplex starts to win) goes to the
    tableau, and its optimum stands (its x ``_holds``). HiGHS solves every
    other LP: one too large for the tableau, and one the tableau gives up.
    The first of them loads scipy's HiGHS binding. HiGHS alone calls an LP
    infeasible, and its x too must ``_holds``. Raises ``SolverError`` when
    HiGHS fails or calls the LP unbounded (every LP this package builds is
    bounded by link capacities), or the binding cannot be imported."""
    sol = _solve_simplex(lp) if tableau_cells(lp) <= _AUTO_TABLEAU_CELLS else None
    return _solve_highs(lp) if sol is None else sol


def tableau_cells(lp: LinearProgram) -> int:
    """The dense-tableau size that ``solve_lp`` routes ``lp`` by: (m + 1) x
    (n + 2m + 2) for m rows and n variables, room for a slack and an
    artificial column per row."""
    return (lp.num_rows + 1) * (lp.num_vars + 2 * lp.num_rows + 2)


#: Slack of linprog's post-solve check on HiGHS's x: 10 * sqrt(1e-9).
HIGHS_CHECK_TOL = 10 * np.sqrt(1e-9)


def _holds(lp: LinearProgram, x: np.ndarray) -> bool:
    """linprog's check of a returned point: x is finite, x >= 0 and every
    row of ``lp`` holds, each within HIGHS_CHECK_TOL (about 3.16e-4, in the
    LP's own units)."""
    tol = HIGHS_CHECK_TOL
    if not (np.isfinite(x).all() and (x >= -tol).all()):
        return False
    rows = lp.rows
    # A product past the float range reads as an infinity of its sign
    # (a delay bound of 1e308 times a rate above 1.8, say).
    with np.errstate(over="ignore"):
        ax = np.bincount(rows.row_of(), weights=rows.data * x[rows.indices], minlength=lp.num_rows)
    return all(
        g <= tol if r == "<=" else g >= -tol if r == ">=" else abs(g) <= tol
        for g, r in zip((ax - lp.rhs).tolist(), lp.relations)
    )


#: scipy's HiGHS binding.
_BINDING = "scipy.optimize._highspy._core"


def _binding_file() -> Path:
    """The binding's extension file in scipy's ``optimize/_highspy``
    directory, found without importing scipy."""
    scipy_dir = importlib.util.find_spec("scipy").submodule_search_locations[0]
    files = (Path(scipy_dir, "optimize", "_highspy", f"_core{s}") for s in EXTENSION_SUFFIXES)
    return next(path for path in files if path.is_file())


def _load_binding():
    """The binding, loaded from ``_binding_file()`` and registered in
    ``sys.modules`` under ``_BINDING``, so that importing it runs none of
    ``scipy.optimize``; a later ``import scipy.optimize`` reuses it. Falls
    back to a plain import when ``sys.modules`` already has a ``_BINDING``
    entry (``None`` blocks the import) or the direct load fails."""
    if _BINDING not in sys.modules:
        try:
            spec = importlib.util.spec_from_file_location(_BINDING, _binding_file())
            core = importlib.util.module_from_spec(spec)
            sys.modules[_BINDING] = core
            spec.loader.exec_module(core)
            return core
        except Exception:  # whatever failed, the plain import below says what is wrong
            sys.modules.pop(_BINDING, None)
    return importlib.import_module(_BINDING)


@functools.cache
def _highs():
    """The HiGHS binding, loaded on first call by ``_load_binding``. Raises
    ``SolverError``, naming the installed scipy, when the binding cannot be
    imported."""
    try:
        core = _load_binding()
    except ImportError as e:
        try:
            found = "scipy " + importlib.import_module("scipy").__version__
        except ImportError:
            found = "no scipy installed"
        raise SolverError(f"cannot import HiGHS ({_BINDING}) with {found}: {e}") from e
    return core


class HighsModel(NamedTuple):
    """The arguments of the array overload of ``_Highs.passModel``, in its
    order: a minimisation in column-wise (CSC) form, with ``row_lower <=
    A x <= row_upper`` and ``col_lower <= x <= col_upper``."""

    num_col: int
    num_row: int
    nnz: int
    format: int
    sense: int
    offset: float
    col_cost: np.ndarray
    col_lower: np.ndarray
    col_upper: np.ndarray
    row_lower: np.ndarray
    row_upper: np.ndarray
    start: np.ndarray
    index: np.ndarray
    value: np.ndarray
    integrality: np.ndarray


def linprog(model: HighsModel, presolve: bool) -> tuple[object, np.ndarray | None]:
    """Run ``model`` on a fresh HiGHS instance with dual simplex and no
    output; returns the ``HighsModelStatus`` and, when optimal, x. Named
    after the scipy function whose HiGHS call it reproduces; ``_solve_highs``
    looks it up at call time, so the benchmark's tracer can wrap it."""
    core = _highs()
    highs = core._Highs()
    highs.setOptionValue("output_flag", False)
    highs.setOptionValue("log_to_console", False)
    highs.setOptionValue("simplex_strategy", 1)  # dual
    highs.setOptionValue("presolve", "on" if presolve else "off")
    if highs.passModel(*model) == core.HighsStatus.kError:
        return core.HighsModelStatus.kModelError, None
    highs.run()
    status = highs.getModelStatus()
    if status != core.HighsModelStatus.kOptimal:
        return status, None
    return status, np.array(highs.getSolution().col_value)


def _highs_model(lp: LinearProgram) -> HighsModel:
    """``lp`` as HiGHS gets it: a minimisation over x >= 0 whose rows are
    the inequality rows, ">=" rows negated, then the "=" rows, each group in
    row order; the matrix goes column-wise, each column's entries in row
    order."""
    core = _highs()
    rows = lp.rows
    m, n = rows.shape
    rel = np.array(lp.relations, dtype=object)
    ub = np.flatnonzero(rel != "=")
    eq = np.flatnonzero(rel == "=")
    sign = np.ones(m)
    sign[ub[rel[ub] == ">="]] = -1.0
    new_row = np.empty(m, dtype=np.intp)
    new_row[np.concatenate((ub, eq))] = np.arange(m)
    row_of = rows.row_of()
    index = new_row[row_of]
    # Column by column, each column's entries by their new row.
    order = np.lexsort((index, rows.indices))
    start = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows.indices, minlength=n), out=start[1:])
    b_eq = lp.rhs[eq]
    return HighsModel(
        num_col=n,
        num_row=m,
        nnz=rows.nnz,
        format=int(core.MatrixFormat.kColwise),
        sense=int(core.ObjSense.kMinimize),
        offset=0.0,
        col_cost=lp.objective if lp.sense == "min" else -lp.objective,
        col_lower=np.zeros(n),
        col_upper=np.full(n, core.kHighsInf),
        row_lower=np.concatenate((np.full(ub.size, -core.kHighsInf), b_eq)),
        row_upper=np.concatenate((sign[ub] * lp.rhs[ub], b_eq)),
        start=start,
        index=index[order].astype(np.int32),
        value=(rows.data * sign[row_of])[order],
        # An empty integrality array is a model error; zeros are continuous.
        integrality=np.zeros(n, dtype=np.int32),
    )


def _solve_highs(lp: LinearProgram) -> LpSolution:
    """HiGHS's verdict on ``lp``: optimal, with an x that ``_holds``, or
    infeasible. Raises ``SolverError`` on any other model status,
    unbounded included."""
    core = _highs()
    # HiGHS presolve can report "infeasible" for unbounded problems, so
    # these statuses get a second solve with presolve off.
    retry = (core.HighsModelStatus.kInfeasible, core.HighsModelStatus.kModelError)
    model = _highs_model(lp)
    status, x = linprog(model, presolve=True)
    if status in retry:
        status, x = linprog(model, presolve=False)
    if status in retry:
        return LpSolution("infeasible")
    if status == core.HighsModelStatus.kUnbounded:
        raise SolverError("LP solver failure: an LP engine reported the LP unbounded")
    if status != core.HighsModelStatus.kOptimal:
        raise SolverError(f"LP solver failure: HiGHS model status {status.name}")
    if not _holds(lp, x):
        raise SolverError(
            f"LP solver failure: HiGHS solution violates the constraints by more than "
            f"{HIGHS_CHECK_TOL:.2e}"
        )
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


def simplex_iterations(T: np.ndarray, basis: np.ndarray, n_enterable: int, max_iter: int) -> bool:
    """Run Bland-rule simplex pivots on tableau T in place.

    T has shape (m+1, n+1): m constraint rows plus the objective row last,
    n columns plus the rhs column last. The objective row holds reduced
    costs for a maximization; a column j with T[m, j] < -PIVOT_TOL can
    improve. Only columns < n_enterable may enter. Returns True at an
    optimum, and False when an improving column has no leaving row or
    ``max_iter`` pivots reach no optimum.
    """
    m = T.shape[0] - 1
    reduced = T[m, :n_enterable]
    rhs = T[:m, -1]
    in_basis = basis.tolist()
    for _ in range(max_iter):
        improving = reduced < -PIVOT_TOL
        enter = int(improving.argmax())
        if not improving[enter]:
            return True
        col = T[:m, enter]
        rows = (col > PIVOT_TOL).nonzero()[0]
        if not rows.size:
            return False
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
    return False


#: Relation as the sign of its slack column: "<=" +1, "=" none, ">=" -1.
_SLACK_SIGN = {"<=": 1.0, "=": 0.0, ">=": -1.0}


def _tableau(lp: LinearProgram) -> tuple[np.ndarray, np.ndarray, int, np.ndarray]:
    """The phase-1 tableau of ``lp`` before its objective row: returns T,
    the starting basis, the number of slack columns and the rows that have
    an artificial variable. An artificial never enters, so it has no
    column: it is only a basis label, numbered past the slacks."""
    n = lp.num_vars
    m = lp.num_rows
    rows = lp.rows
    b = lp.rhs.copy()
    slack_sign = np.array([_SLACK_SIGN[r] for r in lp.relations])

    # Row scaling by max-abs coefficient, then orient rhs nonnegative
    # (multiplying by -1.0 negates exactly and flips the relation).
    # (reduceat gives an empty row the value at its offset, so a 0 is
    # appended for the offset nnz, and empty rows get scale 1 like zero rows).
    start = rows.indptr[:-1]
    scale = np.maximum.reduceat(np.append(np.abs(rows.data), 0.0), start)
    scale[(start == rows.indptr[1:]) | (scale < 1e-12)] = 1.0
    b /= scale
    orient = np.where(b < 0, -1.0, 1.0)
    b *= orient
    slack_sign *= orient

    # Slack columns (one per inequality) then artificials (one per row that
    # is not "<="), each numbered in row order. ``aux`` is each row's
    # starting basic variable: its artificial if it has one, else its slack.
    slack_rows = slack_sign.nonzero()[0]
    art_rows = (slack_sign <= 0).nonzero()[0]
    n_slack = slack_rows.size
    aux = np.empty(m, dtype=np.int64)
    aux[slack_rows] = n + np.arange(n_slack)
    aux[art_rows] = n + n_slack + np.arange(art_rows.size)
    T = np.zeros((m + 1, n + n_slack + 1))
    a = rows.toarray(out=T[:m, :n])
    a /= scale[:, None]
    a *= orient[:, None]
    T[:m, -1] = b
    T[slack_rows, n + np.arange(n_slack)] = slack_sign[slack_rows]
    return T, aux, n_slack, art_rows


def _solve_simplex(lp: LinearProgram) -> LpSolution | None:
    """The tableau's optimum of ``lp``, whose x ``_holds``. None, for HiGHS
    to decide, when phase 1 ends with artificials summing above
    SOLUTION_TOL (on rows scaled to max-abs coefficient 1), an improving
    column has no leaving row, a phase runs out of pivots, or x breaks a
    row (the pivots lost accuracy)."""
    # Internally a maximization.
    c_user = lp.objective
    c = c_user if lp.sense == "max" else -c_user
    n = lp.num_vars
    m = lp.num_rows
    T, basis, n_slack, art_rows = _tableau(lp)
    ncols = T.shape[1] - 1
    max_iter = _PIVOTS_PER_LINE * (sum(T.shape) + art_rows.size)  # as if with artificials

    # Phase 1: maximize -(sum of artificials).
    if art_rows.size:
        # Row by row in row order, as one sequential reduction.
        T[m] = np.subtract.reduce(T[np.concatenate(([m], art_rows))], axis=0)
        if not simplex_iterations(T, basis, n + n_slack, max_iter) or T[m, -1] < -SOLUTION_TOL:
            return None
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
    if not simplex_iterations(T, basis, n + n_slack, max_iter):
        return None

    y = np.zeros(ncols)
    y[basis] = T[:m, -1]
    x = y[:n]
    return LpSolution("optimal", x, float(c_user @ x)) if _holds(lp, x) else None
