"""Comparison solvers: a greedy shortest-path heuristic and the exact
optimum via per-commodity time-expanded networks (integer delays only).
"""

from __future__ import annotations

import heapq
import math
import time

import numpy as np

from delayflow.algorithms import (
    InfeasibleError,
    SolveReport,
    build_report,
    delete_slowest,
)
from delayflow.decompose import _strip_paths
from delayflow.graph import FEAS_TOL, Network, Path, shortest_path_by_delay
from delayflow.lp import SolverError, SparseRows, solve_lp
from delayflow.problem import FlowSolution, Objective, ProblemSpec

_MAX_ENUM_NODES = 12


def solve_greedy(spec: ProblemSpec) -> SolveReport:
    """Process commodities in order, repeatedly pushing rate onto the
    minimum-delay residual path (that also meets the delay bound, when one
    is set) until the throughput requirement is met or no path remains.

    An unmet requirement yields a partial solution flagged infeasible.
    """
    spec.validate()
    t0 = time.perf_counter()
    net = spec.network
    residual = net.capacities()
    flows = []
    feasible = True
    for c in spec.commodities:
        target = c.R if c.R > 0 else math.inf
        pushed = 0.0
        paths: list[tuple[Path, float]] = []
        while pushed < target - FEAS_TOL:
            p = shortest_path_by_delay(net, residual, c.source, c.sink)
            if p is None or p.delay(net) > c.D:
                break
            room = min(residual[k] for k in p.edges)
            take = min(room, target - pushed)
            if take <= FEAS_TOL:
                break
            for k in p.edges:
                residual[k] -= take
            paths.append((p, take))
            pushed += take
        if c.R > 0 and pushed < c.R - 1e-6:
            feasible = False
        flows.append(paths)
    return build_report(spec, "GREEDY", FlowSolution(flows), t0, feasible=feasible)


def simple_path_delays(net: Network, s: str, t: str) -> list[float]:
    """Sorted distinct delays of all simple s->t paths."""
    if len(net.nodes) > _MAX_ENUM_NODES:
        raise ValueError(
            f"path enumeration limited to {_MAX_ENUM_NODES} nodes "
            f"(graph has {len(net.nodes)})"
        )
    si, ti = net.index_of(s), net.index_of(t)
    delays: set[float] = set()

    def rec(u: int, seen: set[int], acc: float) -> None:
        if u == ti:
            delays.add(acc)
            return
        for k in net.out_edges[u]:
            v = net.edges[k].v
            if v not in seen:
                rec(v, seen | {v}, acc + net.edges[k].delay)

    rec(si, {si}, 0.0)
    return sorted(delays)


class _TimeExpanded:
    """Per-commodity layered graph over states (v, elapsed delay tau),
    pruned to those on some source-to-sink walk with tau <= deadline.

    It has the integer graph shape that ``decompose`` reads: ``nodes`` are
    the sorted non-sink states followed by one node, ``(t, None)``, that
    stands for every sink state (t, tau), since sink states absorb; arc j
    runs along physical edge ``edge_of[j]`` into node ``heads[j]``; and
    ``out_edges``/``in_edges`` list each node's arcs. Arcs are ordered by
    (tail state, physical edge). ``source`` is the node of (s, 0), or None
    when no walk meets the deadline.
    """

    def __init__(self, net: Network, s: int, t: int, deadline: float):
        # Forward reachability from (s, 0), collecting every arc between
        # reached states; sink states absorb.
        reach: set[tuple[int, float]] = {(s, 0.0)}
        frontier = [(s, 0.0)]
        arcs: list[tuple[tuple[int, float], int, tuple[int, float]]] = []
        preds: dict[tuple[int, float], list[tuple[int, float]]] = {}
        while frontier:
            st = frontier.pop()
            u, tau = st
            if u == t:
                continue
            for k in net.out_edges[u]:
                e = net.edges[k]
                nxt = (e.v, tau + e.delay)
                if nxt[1] > deadline:
                    continue
                arcs.append((st, k, nxt))
                preds.setdefault(nxt, []).append(st)
                if nxt not in reach:
                    reach.add(nxt)
                    frontier.append(nxt)
        # Reverse BFS from the sink states: keep states that reach one.
        useful = {st for st in reach if st[0] == t}
        frontier = list(useful)
        while frontier:
            for p in preds.get(frontier.pop(), ()):
                if p not in useful:
                    useful.add(p)
                    frontier.append(p)
        states = sorted(st for st in useful if st[0] != t)
        sink = len(states)
        index = {st: i for i, st in enumerate(states)}
        index.update((st, sink) for st in useful if st[0] == t)
        # An arc into a useful state leaves a useful one.
        kept = sorted((index[a], k, index[b]) for a, k, b in arcs if b in index)
        self.nodes = states + [(t, None)]
        self.edge_of = [k for _, k, _ in kept]
        self.heads = [v for _, _, v in kept]
        self.out_edges: list[list[int]] = [[] for _ in self.nodes]
        self.in_edges: list[list[int]] = [[] for _ in self.nodes]
        for j, (u, _, v) in enumerate(kept):
            self.out_edges[u].append(j)
            self.in_edges[v].append(j)
        self.source = index.get((s, 0.0))
        self.sink = sink


def _exact_lp(
    spec: ProblemSpec,
    deadlines: list[float],
    mode: str,
    profile: list[float] | None = None,
):
    """Build and solve the coupled time-expanded LP.

    mode "utility": maximize the spec's throughput objective subject to
    |f_i| >= R_i. mode "scale": maximize t subject to |f_i| >= t*profile_i.
    Returns (LpSolution, time-expanded graphs, first column of each
    commodity's arcs), or (None, graphs) when a graph has no path.
    """
    net = spec.network
    comms = spec.commodities
    K = len(comms)
    tes = []
    for c, delta in zip(comms, deadlines):
        te = _TimeExpanded(net, net.index_of(c.source), net.index_of(c.sink), delta)
        tes.append(te)
        if te.source is None and (mode == "scale" or c.R > 0):
            return None, tes

    arc_base: list[int] = []  # first column of each commodity's arcs
    nvars = 0
    for te in tes:
        arc_base.append(nvars)
        nvars += len(te.heads)
    rate_var = [nvars + i for i in range(K)]
    nvars += K
    aux_var = None
    scale_var = None
    bound_var = None
    if mode == "utility":
        aux_var = [nvars + i for i in range(K)]
        nvars += K
        if spec.objective is Objective.MIN_THROUGHPUT_UTILITY:
            bound_var = nvars
            nvars += 1
    else:
        scale_var = nvars
        nvars += 1

    lp_rows = SparseRows(nvars)
    for i, te in enumerate(tes):
        base = arc_base[i]
        # Conservation at every non-sink state; the rate leaves the source.
        for v in range(te.sink):
            outs, ins = te.out_edges[v], te.in_edges[v]
            cols = [base + j for j in outs + ins]
            vals = [1.0] * len(outs) + [-1.0] * len(ins)
            if v == te.source:
                cols.append(rate_var[i])
                vals.append(-1.0)
            lp_rows.add(cols, vals, "=", 0.0)
        # Rate also equals total inflow into sink states.
        sink_in = te.in_edges[te.sink]
        lp_rows.add([base + j for j in sink_in] + [rate_var[i]],
                    [1.0] * len(sink_in) + [-1.0], "=", 0.0)

    # Capacity coupling across commodities and layers: one row per edge
    # that some arc uses, in edge order.
    arcs_of_edge: dict[int, list[int]] = {}
    for base, te in zip(arc_base, tes):
        for j, k in enumerate(te.edge_of):
            arcs_of_edge.setdefault(k, []).append(base + j)
    for k in sorted(arcs_of_edge):
        cols = arcs_of_edge[k]
        lp_rows.add(cols, [1.0] * len(cols), "<=", net.edges[k].capacity)

    objective = np.zeros(nvars)
    if mode == "utility":
        for i, c in enumerate(comms):
            if c.R > 0:
                lp_rows.add([rate_var[i]], [1.0], ">=", c.R)
            for slope, intercept in c.utility_t.segments():
                lp_rows.add([aux_var[i], rate_var[i]], [1.0, -slope], "<=", intercept)
        if bound_var is None:
            for i in range(K):
                objective[aux_var[i]] = 1.0
        else:
            objective[bound_var] = 1.0
            for i in range(K):
                lp_rows.add([bound_var, aux_var[i]], [1.0, -1.0], "<=", 0.0)
    else:
        for i in range(K):
            lp_rows.add([rate_var[i], scale_var], [1.0, -profile[i]], ">=", 0.0)
        objective[scale_var] = 1.0

    lp = lp_rows.program("max", objective)
    sol = solve_lp(lp)
    return (sol, tes, arc_base)


def _extract_paths(
    net: Network, te: _TimeExpanded, arc_flow: np.ndarray
) -> list[tuple[Path, float]]:
    """Decompose a time-expanded arc flow and project to physical paths.

    The layered graph is a DAG in tau except for zero-delay cycles, on
    which, as on stranded flow, decomposition raises ValueError. Projected
    walks that revisit a physical node have the enclosed cycle excised,
    which only shortens them; equal projections are merged.
    """
    if te.source is None:  # no walk meets the deadline, so no arcs
        return []
    raw: dict[tuple[int, ...], float] = {}
    for arcs, rate in _strip_paths(te, arc_flow.copy(), te.source, te.sink):
        phys = tuple(_simplify_walk(net, [te.edge_of[j] for j in arcs]))
        raw[phys] = raw.get(phys, 0.0) + rate
    return [(Path(p), r) for p, r in sorted(raw.items())]


def _simplify_walk(net: Network, edges: list[int]) -> list[int]:
    """Drop cycles from a physical walk so it becomes a simple path."""
    while True:
        seq = [net.edges[edges[0]].u] + [net.edges[k].v for k in edges]
        seen: dict[int, int] = {}
        cut = None
        for pos, v in enumerate(seq):
            if v in seen:
                cut = (seen[v], pos)
                break
            seen[v] = pos
        if cut is None:
            return edges
        a, b = cut
        edges = edges[:a] + edges[b:]


def solve_exact(
    spec: ProblemSpec,
    cache: dict | None = None,
    deadline_cap: float | None = None,
) -> SolveReport:
    """True optimum of the delay-constrained problem via time-expanded
    networks; requires integer edge delays.

    Throughput objectives need one LP (larger deadlines never hurt). Delay
    objectives enumerate candidate deadline vectors drawn from achievable
    simple-path delays, best-first by objective value, with monotone
    dominance pruning; the first feasible vector is optimal. ``cache`` may
    be shared across calls with the same network, endpoints, and relative
    requirement profile to reuse feasibility LPs.
    """
    spec.validate()
    if not spec.network.has_integer_delays():
        raise ValueError("integer delays required for the exact solver")
    t0 = time.perf_counter()
    net = spec.network
    comms = spec.commodities

    caps = []
    for c in comms:
        cap = c.D
        if not math.isfinite(cap):
            cap = deadline_cap
        if cap is None or not math.isfinite(cap):
            all_delays = simple_path_delays(net, c.source, c.sink)
            if not all_delays:
                raise InfeasibleError(f"no path from {c.source} to {c.sink}")
            cap = all_delays[-1]
        caps.append(cap)

    if not spec.objective.is_delay:
        out = _exact_lp(spec, caps, "utility")
        sol, tes = out[0], out[1]
        if sol is None or sol.status == "infeasible":
            raise InfeasibleError("no feasible flow within the delay bounds")
        if sol.status != "optimal":
            raise SolverError(f"exact LP status {sol.status}")
        flows = _flows_from_arcs(net, tes, out[2], sol.x)
        return build_report(spec, "EXACT", FlowSolution(flows), t0)

    # Delay objective: best-first over candidate deadline vectors.
    cands = []
    for c, cap in zip(comms, caps):
        ds = [d for d in simple_path_delays(net, c.source, c.sink) if d <= cap]
        if not ds:
            raise InfeasibleError(
                f"no {c.source}->{c.sink} path within delay bound {cap}"
            )
        cands.append(ds)

    max_r = max(c.R for c in comms)
    profile = [c.R / max_r for c in comms]
    if cache is None:
        cache = {}

    def value(idx: tuple[int, ...]) -> float:
        vals = [
            c.utility_d.value(cands[i][idx[i]]) for i, c in enumerate(comms)
        ]
        if spec.objective is Objective.MAX_DELAY_PENALTY:
            return max(vals)
        return sum(vals)

    def max_scale(idx: tuple[int, ...]) -> tuple[float, object]:
        deltas = tuple(cands[i][idx[i]] for i in range(len(comms)))
        key = (deltas, tuple(profile))
        if key in cache:
            return cache[key], None
        # Monotone dominance against exact cached values: h only grows with
        # the deadline vector, so a large infeasible vector or a small
        # feasible one settles this vector without an LP. The borrowed h is
        # one-sided, so it is not written back into the cache.
        for (other, prof), h in cache.items():
            if prof != tuple(profile):
                continue
            if all(o >= d for o, d in zip(other, deltas)) and h < max_r - 1e-6:
                return h, None
            if all(o <= d for o, d in zip(other, deltas)) and h >= max_r - 1e-6:
                return h, None
        out = _exact_lp(spec, list(deltas), "scale", profile)
        sol = out[0]
        if sol is None or sol.status == "infeasible":
            h = 0.0
        elif sol.status == "unbounded":
            h = math.inf
        else:
            h = sol.objective
        cache[key] = h
        return h, out

    start = tuple(0 for _ in comms)
    heap = [(value(start), start)]
    visited = {start}
    budget = 200_000
    while heap:
        budget -= 1
        if budget < 0:
            raise SolverError("deadline enumeration budget exceeded")
        _, idx = heapq.heappop(heap)
        h, out = max_scale(idx)
        if h >= max_r - 1e-6:
            if out is None:
                out = _exact_lp(
                    spec, [cands[i][idx[i]] for i in range(len(comms))],
                    "scale", profile,
                )
            sol, tes, arc_base = out
            flows = _flows_from_arcs(net, tes, arc_base, sol.x)
            # Trim surplus rate from the slowest paths so |f_i| = R_i.
            trimmed = []
            for pf, c in zip(flows, comms):
                rate = sum(r for _, r in pf)
                if rate > c.R + FEAS_TOL:
                    pf = delete_slowest(net, pf, rate - c.R)
                trimmed.append(pf)
            return build_report(spec, "EXACT", FlowSolution(trimmed), t0)
        for i in range(len(comms)):
            if idx[i] + 1 < len(cands[i]):
                nxt = idx[:i] + (idx[i] + 1,) + idx[i + 1 :]
                if nxt not in visited:
                    visited.add(nxt)
                    heapq.heappush(heap, (value(nxt), nxt))
    raise InfeasibleError("throughput requirements cannot be met")


def _flows_from_arcs(net, tes, arc_base, x):
    flows = []
    for i, te in enumerate(tes):
        arc_flow = x[arc_base[i] : arc_base[i] + len(te.heads)]
        flows.append(_extract_paths(net, te, arc_flow))
    return flows
