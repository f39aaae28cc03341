"""Oracle tests of the array-built counterpart LP and the list-walk
decomposition.

The references below are the row-at-a-time builder (with its triplet
collector ``_Rows``) and the numpy-scalar ``cancel_cycles``/``decompose``
that the block builder and the list walk replaced. Both must give the same
canonical CSR, relations, rhs and objective, and the same paths with the
same rates bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from delayflow import baselines
from delayflow.algorithms import solve_pass
from delayflow.baselines import solve_exact
from delayflow.decompose import cancel_cycles, decompose
from delayflow.gen import random_problem
from delayflow.graph import Edge, Network, Path
from delayflow.lp import LinearProgram, solve_lp
from delayflow.problem import IDENTITY, Objective, build_counterpart, make_dcum

from conftest import CORPUS_SIZE

# -- reference builder ---------------------------------------------------------


class _Rows:
    """Constraint rows as (row, column, value) triplets, one ``add`` per row."""

    def __init__(self, num_vars: int):
        self._num_vars = num_vars
        self._relations: list[str] = []
        self._rhs: list[float] = []
        self._row_of: list[int] = []
        self._cols: list[int] = []
        self._vals: list[float] = []

    def add(self, cols, vals, rel, rhs) -> None:
        self._row_of += [len(self._rhs)] * len(cols)
        self._cols += cols
        self._vals += vals
        self._relations.append(rel)
        self._rhs.append(rhs)

    def program(self, sense: str, objective: np.ndarray) -> LinearProgram:
        import scipy.sparse as sp

        row_of = np.array(self._row_of, dtype=np.int64)
        cols = np.array(self._cols, dtype=np.int64)
        vals = np.array(self._vals, dtype=np.float64)
        keep = vals != 0.0
        if not keep.all():
            row_of, cols, vals = row_of[keep], cols[keep], vals[keep]
        order = np.lexsort((cols, row_of))
        m = len(self._rhs)
        indptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(np.bincount(row_of, minlength=m), out=indptr[1:])
        rows = sp.csr_array((vals[order], cols[order], indptr), shape=(m, self._num_vars))
        return LinearProgram(sense, objective, rows, tuple(self._relations), np.array(self._rhs))


def _reference_build(spec, graphs=None, profile=None) -> LinearProgram:
    net = spec.network
    comms = spec.commodities
    K = len(comms)
    if graphs is None:
        every_edge = range(len(net.edges))
        shapes = [
            (net, net.index_of(c.source), net.index_of(c.sink), every_edge)
            for c in comms
        ]
    else:
        shapes = [(g, g.source, g.sink, g.edge_of) for g in graphs]
    arc_base = [0]
    for *_, edge_of in shapes:
        arc_base.append(arc_base[-1] + len(edge_of))
    rate_var = [arc_base[-1] + i for i in range(K)]
    nvars = arc_base[-1] + K
    if profile is not None:
        scale_var = nvars
        nvars += 1
    else:
        aux_var = [nvars + i for i in range(K)]
        nvars += K
        bound_var = None
        if spec.objective in (Objective.MIN_THROUGHPUT_UTILITY, Objective.MAX_DELAY_PENALTY):
            bound_var = nvars
            nvars += 1

    lp_rows = _Rows(nvars)
    is_delay = spec.objective.is_delay
    for i, (c, (g, s, t, edge_of)) in enumerate(zip(comms, shapes)):
        base = arc_base[i]
        if s is None:
            lp_rows.add([rate_var[i]], [-1.0], "=", 0.0)
        interior = [v for v in range(len(g.nodes)) if v != s and v != t]
        for v in interior if s is None else [s] + interior:
            outs, ins = list(g.out_edges[v]), list(g.in_edges[v])
            cols = [base + j for j in outs + ins]
            vals = [1.0] * len(outs) + [-1.0] * len(ins)
            if v == s:
                cols.append(rate_var[i])
                vals.append(-1.0)
            lp_rows.add(cols, vals, "=", 0.0)
        if profile is not None:
            lp_rows.add([rate_var[i], scale_var], [1.0, -profile[i]], ">=", 0.0)
            continue
        if is_delay:
            lp_rows.add([rate_var[i]], [1.0], "=", c.R)
        elif c.R > 0:
            lp_rows.add([rate_var[i]], [1.0], ">=", c.R)
        bounded = graphs is None and math.isfinite(c.D)
        if bounded or is_delay:
            arc_cols = list(range(base, arc_base[i + 1]))
            delays = [net.edges[k].delay for k in edge_of]
        if bounded:
            if is_delay:
                lp_rows.add(arc_cols, delays, "<=", c.D * c.R)
            else:
                lp_rows.add(arc_cols + [rate_var[i]], delays + [-c.D], "<=", 0.0)
        if is_delay:
            for slope, intercept in c.utility_d.segments():
                lp_rows.add(
                    arc_cols + [aux_var[i]],
                    [-slope * d for d in delays] + [c.R],
                    ">=",
                    intercept * c.R,
                )
        else:
            for slope, intercept in c.utility_t.segments():
                lp_rows.add([aux_var[i], rate_var[i]], [1.0, -slope], "<=", intercept)

    arcs_of_edge: list[list[int]] = [[] for _ in net.edges]
    for base, (*_, edge_of) in zip(arc_base, shapes):
        for j, k in enumerate(edge_of, base):
            arcs_of_edge[k].append(j)
    for k, cols in enumerate(arcs_of_edge):
        if cols:
            lp_rows.add(cols, [1.0] * len(cols), "<=", net.edges[k].capacity)

    objective = np.zeros(nvars)
    sense = "min" if is_delay and profile is None else "max"
    if profile is not None:
        objective[scale_var] = 1.0
    elif bound_var is None:
        objective[aux_var] = 1.0
    else:
        objective[bound_var] = 1.0
        rel = ">=" if is_delay else "<="
        for i in range(K):
            lp_rows.add([bound_var, aux_var[i]], [1.0, -1.0], rel, 0.0)
    return lp_rows.program(sense, objective)


def _assert_same_lp(got: LinearProgram, ref: LinearProgram) -> None:
    assert got.sense == ref.sense
    assert got.rows.shape == ref.rows.shape
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got.rows, name), getattr(ref.rows, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name
    assert got.relations == ref.relations
    assert got.rhs.tobytes() == ref.rhs.tobytes()
    assert got.objective.tobytes() == ref.objective.tobytes()


# -- reference decomposition ---------------------------------------------------


def _ref_check_conservation(net, x, s, t):
    for v in range(len(net.nodes)):
        if v in (s, t):
            continue
        imbalance = sum(x[k] for k in net.out_edges[v]) - sum(x[k] for k in net.in_edges[v])
        if abs(imbalance) > net.check_tol:
            raise ValueError(
                f"flow conservation violated at node {net.nodes[v]} (imbalance {imbalance})"
            )


def _ref_find_cycle(net, x):
    n = len(net.nodes)
    color = [0] * n
    for start in range(n):
        if color[start]:
            continue
        stack = [(start, iter(net.out_edges[start]))]
        color[start] = 1
        via: dict[int, int] = {}
        while stack:
            u, it = stack[-1]
            advanced = False
            for k in it:
                if x[k] <= net.zero_tol:
                    continue
                v = net.edges[k].v
                if color[v] == 1:
                    cycle = [k]
                    w = u
                    while w != v:
                        ke = via[w]
                        cycle.append(ke)
                        w = net.edges[ke].u
                    cycle.reverse()
                    return cycle
                if color[v] == 0:
                    color[v] = 1
                    via[v] = k
                    stack.append((v, iter(net.out_edges[v])))
                    advanced = True
                    break
            if not advanced:
                color[u] = 2
                stack.pop()
    return None


def _ref_cancel_cycles(net, edge_flow, s, t):
    x = np.array(edge_flow, dtype=np.float64)
    x[(x < 0) & (x > -net.zero_tol)] = 0.0
    if np.any(x < 0):
        raise ValueError("edge flow must be nonnegative")
    _ref_check_conservation(net, x, net.index_of(s), net.index_of(t))
    while True:
        cycle = _ref_find_cycle(net, x)
        if cycle is None:
            return x
        reduce = min(x[k] for k in cycle)
        for k in cycle:
            x[k] -= reduce
            if x[k] < net.zero_tol:
                x[k] = 0.0


def _ref_decompose(net, s, t, edge_flow):
    si, ti = net.index_of(s), net.index_of(t)
    x = np.array(edge_flow, dtype=np.float64)
    if np.any(x < -net.zero_tol):
        raise ValueError("edge flow must be nonnegative")
    _ref_check_conservation(net, x, si, ti)
    zero = net.zero_tol
    paths = []
    while True:
        out_rate = sum(x[k] for k in net.out_edges[si]) - sum(x[k] for k in net.in_edges[si])
        if out_rate <= zero:
            break
        edges = []
        u = si
        while u != ti:
            nxt = next(k for k in net.out_edges[u] if x[k] > zero)
            edges.append(nxt)
            u = net.heads[nxt]
        bottleneck = min(x[k] for k in edges)
        for k in edges:
            x[k] -= bottleneck
            if x[k] < zero:
                x[k] = 0.0
        if bottleneck > zero:
            paths.append((Path(tuple(edges)), bottleneck))
    return paths


def _path_key(flow):
    return [(p.edges, type(r).__name__, float(r).hex()) for p, r in flow]


# -- the specs -----------------------------------------------------------------


def _corpus_specs():
    for seed in range(CORPUS_SIZE):
        rng = np.random.default_rng(seed)
        spec = random_problem(rng)
        yield spec, float(rng.uniform(0.05, 0.9))


def _random_specs():
    for seed in range(30):
        rng = np.random.default_rng(seed)
        yield random_problem(rng, max_nodes=15 + seed % 6)


def _check_counterpart(spec) -> int:
    """Builder and decomposition against the references; returns the
    number of paths compared."""
    lp, cmap = build_counterpart(spec)
    ref = _reference_build(spec)
    _assert_same_lp(lp, ref)
    sol = solve_lp(lp)
    if sol.status != "optimal":
        return 0
    net = spec.network
    count = 0
    for c, x in zip(spec.commodities, cmap.edge_flows(sol.x)):
        got_x = cancel_cycles(net, x, c.source, c.sink)
        ref_x = _ref_cancel_cycles(net, x, c.source, c.sink)
        assert got_x.dtype == ref_x.dtype
        assert got_x.tobytes() == ref_x.tobytes()
        got = decompose(net, c.source, c.sink, got_x)
        assert _path_key(got) == _path_key(_ref_decompose(net, c.source, c.sink, ref_x))
        count += len(got)
    return count


def test_counterparts_match_reference_on_corpus():
    assert sum(_check_counterpart(spec) for spec, _ in _corpus_specs()) > 0


def test_counterparts_match_reference_on_ec2_sweeps(ec2_sweep_specs):
    assert len(ec2_sweep_specs) == 226
    assert sum(_check_counterpart(spec) for spec in ec2_sweep_specs) > 0


def test_counterparts_match_reference_on_random_problems():
    assert sum(_check_counterpart(spec) for spec in _random_specs()) > 0


def _spy_exact_builds(monkeypatch) -> list[int]:
    """Compare every LP that ``solve_exact`` builds with the reference."""
    built = []
    builder = baselines.build_counterpart

    def spy(spec, graphs=None, profile=None):
        out = builder(spec, graphs, profile)
        _assert_same_lp(out[0], _reference_build(spec, graphs, profile))
        built.append(out[0].num_rows)
        return out

    monkeypatch.setattr(baselines, "build_counterpart", spy)
    return built


def test_exact_lps_match_reference_on_corpus(monkeypatch):
    built = _spy_exact_builds(monkeypatch)
    for spec, _ in _corpus_specs():
        solve_exact(spec)
    assert len(built) > CORPUS_SIZE


def test_exact_lps_match_reference_on_ec2_sweeps(monkeypatch, ec2_sweep_specs):
    built = _spy_exact_builds(monkeypatch)
    cache: dict = {}
    for spec in ec2_sweep_specs:
        solve_exact(spec, cache=cache, deadline_cap=900.0)
    assert len(built) > len(ec2_sweep_specs)


def test_pass_paths_match_reference_on_corpus():
    """The whole PASS report's counterpart paths, not just decompose's."""
    for spec, eps in list(_corpus_specs())[:50]:
        rep = solve_pass(spec, eps)
        lp, cmap = build_counterpart(spec)
        x = solve_lp(lp).x
        net = spec.network
        for c, flow, xi in zip(spec.commodities, rep.counterpart.flows, cmap.edge_flows(x)):
            ref = _ref_decompose(
                net, c.source, c.sink, _ref_cancel_cycles(net, xi, c.source, c.sink)
            )
            assert _path_key(flow) == _path_key(ref)


def test_exact_lp_without_any_arc_matches_reference(monkeypatch):
    """No commodity has a walk within its deadline, so no graph has an arc
    and the LP has no capacity row."""
    built = _spy_exact_builds(monkeypatch)
    net = Network(("s", "a", "t"), (Edge(0, 1, 5.0, 1.0), Edge(1, 2, 5.0, 1.0)))
    spec = make_dcum(net, [("s", "t", 3.0, IDENTITY), ("s", "t", 2.0, IDENTITY)])
    assert solve_exact(spec).objective == 0.0
    assert built == [4]  # per commodity: -|f_i| = 0 and one epigraph row
