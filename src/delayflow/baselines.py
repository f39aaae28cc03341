"""Comparison solvers: a greedy shortest-path heuristic and the exact
optimum via per-commodity time-expanded networks (integer delays only).
"""

from __future__ import annotations

import bisect
import heapq
import math
import time

import numpy as np

from delayflow.algorithms import (
    InfeasibleError,
    SolveReport,
    build_report,
    delete_slowest,
    missed_guarantees,
)
from delayflow.decompose import _cancel, _strip_paths
from delayflow.graph import Network, Path, adjacency, shortest_path_by_delay
from delayflow.lp import SolverError, solve_lp
from delayflow.problem import FlowSolution, ProblemSpec, build_counterpart

_MAX_ENUM_NODES = 12


def push_shortest(
    net: Network, residual: np.ndarray, s: str, t: str, target=math.inf, deadline=math.inf
) -> tuple[list[tuple[Path, float]], float]:
    """Push s->t rate onto minimum-delay residual paths within ``deadline``
    until ``target`` is pushed or none remains; mutates ``residual``.
    Returns the (path, rate) pairs and their total rate."""
    pushed = 0.0
    paths = []
    while pushed < target - net.zero_tol:
        p = shortest_path_by_delay(net, residual, s, t)
        if p is None or p.delay(net) > deadline:
            break
        room = min(residual[k] for k in p.edges)
        take = min(room, target - pushed)
        if take <= net.zero_tol:
            break
        for k in p.edges:
            residual[k] -= take
        paths.append((p, take))
        pushed += take
    return paths, pushed


def solve_greedy(spec: ProblemSpec) -> SolveReport:
    """Process commodities in order, pushing each onto minimum-delay
    residual paths that meet its delay bound (``push_shortest``) until its
    throughput requirement is met or no path remains.

    An unmet requirement yields a partial solution flagged infeasible
    (``missed_guarantees``).
    """
    t0 = time.perf_counter()
    net = spec.network
    residual = net.capacities()
    flows = []
    for c in spec.commodities:
        target = c.R if c.R > 0 else math.inf
        flows.append(push_shortest(net, residual, c.source, c.sink, target, c.D)[0])
    report = build_report(spec, "GREEDY", FlowSolution(flows), t0)
    report.feasible = not missed_guarantees(spec, "GREEDY", report.metrics)
    return report


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

    A reached state lies on such a walk exactly when tau + d(v) <=
    deadline, d(v) = ``net.least_delays[v, t]`` being v's least delay to
    t: a least-delay v->t path ends at its first visit to t, and each
    state on it passes the same test. So one forward search that expands
    only passing states reaches the pruned graph and nothing else (integer
    delays keep the sums exact).

    It has the integer graph shape that ``decompose`` and
    ``build_counterpart`` read: ``nodes`` are the sorted non-sink states
    followed by one node, ``(t, None)``, that stands for every sink state
    (t, tau), since sink states absorb; arc j runs along physical edge
    ``edge_of[j]`` into node ``heads[j]``; and ``out_edges``/``in_edges``
    list each node's arcs, whose tail and head nodes the integer arrays
    ``arc_tail`` and ``arc_head`` hold. Arcs are ordered by (tail state,
    physical edge).
    ``source`` is the node of (s, 0), or None when no walk meets the
    deadline. Rates are physical, so ``zero_tol`` is the network's.
    """

    def __init__(self, net: Network, s: int, t: int, deadline: float):
        dist = net.least_delays[:, t].tolist()
        reach = {(s, 0.0)} if dist[s] <= deadline else set()
        frontier = list(reach)
        arcs: list[tuple[tuple[int, float], int, tuple[int, float]]] = []
        while frontier:
            st = frontier.pop()
            u, tau = st
            if u == t:  # sink states absorb
                continue
            for k in net.out_edges[u]:
                e = net.edges[k]
                nxt = (e.v, tau + e.delay)
                if nxt[1] + dist[e.v] > deadline:
                    continue
                arcs.append((st, k, nxt))
                if nxt not in reach:
                    reach.add(nxt)
                    frontier.append(nxt)
        states = sorted(st for st in reach if st[0] != t)
        sink = len(states)
        index = {st: i for i, st in enumerate(states)}
        index.update((st, sink) for st in reach if st[0] == t)
        kept = sorted((index[a], k, index[b]) for a, k, b in arcs)
        self.nodes = states + [(t, None)]
        tails, edge_of, heads = zip(*kept) if kept else ((), (), ())
        self.edge_of = list(edge_of)
        self.heads = list(heads)
        self.arc_tail = np.array(tails, dtype=np.intp)
        self.arc_head = np.array(heads, dtype=np.intp)
        self.out_edges, self.in_edges = adjacency(len(self.nodes), tails, heads)
        self.source = index.get((s, 0.0))
        self.sink = sink
        self.zero_tol = net.zero_tol


def _exact_lp(
    spec: ProblemSpec,
    deadlines: list[float],
    profile: list[float] | None,
    graphs: dict,
):
    """Solve the counterpart LP over per-commodity time-expanded graphs;
    ``profile`` is ``build_counterpart``'s. ``graphs`` maps (source, sink,
    deadline) to a graph already built and takes each one built here.
    Returns (LpSolution, graphs, CounterpartMap); the solution is optimal
    or infeasible. A commodity with no walk gets the row -|f_i| = 0, so its
    rate is 0.
    """
    net = spec.network
    tes = []
    for c, delta in zip(spec.commodities, deadlines):
        key = (c.source, c.sink, delta)
        te = graphs.get(key)
        if te is None:
            te = graphs[key] = _TimeExpanded(
                net, net.index_of(c.source), net.index_of(c.sink), delta
            )
        tes.append(te)
    lp, cmap = build_counterpart(spec, tes, profile)
    return solve_lp(lp), tes, cmap


def _extract_paths(
    net: Network, te: _TimeExpanded, arc_flow: np.ndarray
) -> list[tuple[Path, float]]:
    """Decompose a time-expanded arc flow and project to physical paths.

    Every arc raises tau except along a zero-delay edge, so only a network
    with one can give the layered graph cycles; those are cancelled first.
    Stranded flow raises ValueError. Projected walks that revisit a
    physical node have the enclosed cycle excised, which only shortens
    them; equal projections are merged.
    """
    if te.source is None:  # no walk meets the deadline, so no arcs
        return []
    x = arc_flow.tolist()
    if not net.delay_array.all():
        _cancel(te, x)
    raw: dict[tuple[int, ...], float] = {}
    for arcs, rate in _strip_paths(te, x, te.source, te.sink):
        phys = tuple(_simplify_walk(net, [te.edge_of[j] for j in arcs]))
        raw[phys] = raw.get(phys, 0.0) + rate
    return [(Path(p), r) for p, r in sorted(raw.items())]


def _simplify_walk(net: Network, edges: list[int]) -> list[int]:
    """Erase cycles from a physical walk in the order they close, so it
    becomes a simple path: on reaching a node already on the kept prefix,
    truncate back to it."""
    kept: list[int] = []
    at = {net.edges[edges[0]].u: 0}  # node -> number of kept edges before it
    for k in edges:
        v = net.edges[k].v
        if v in at:
            for j in kept[at[v] :]:
                del at[net.edges[j].v]
            del kept[at[v] :]
        else:
            kept.append(k)
            at[v] = len(kept)
    return kept


def _bind_cache(cache: dict | None, net: Network) -> dict:
    """``cache``, or a fresh dict, bound to ``net`` on first use."""
    if cache is None:
        cache = {}
    bound = cache.setdefault("network", net)
    if bound is not net and bound != net:
        raise ValueError(
            "this exact-solver cache holds results for another network; "
            "use one cache per network"
        )
    return cache


def solve_exact(
    spec: ProblemSpec,
    cache: dict | None = None,
    deadline_cap: float | None = None,
) -> SolveReport:
    """True optimum of the delay-constrained problem via time-expanded
    networks; requires integer edge delays.

    Each commodity's deadline is its D, or ``deadline_cap`` in place of an
    infinite D, clamped to ``net.max_path_delay``: no simple path is
    slower, and a longer walk projects to no new path. Throughput
    objectives need one LP at those deadlines (larger deadlines never
    hurt). Delay objectives enumerate candidate deadline vectors drawn from
    achievable simple-path delays, best-first by objective value; the first
    feasible vector is optimal.

    ``cache`` is a dict the caller owns, empty at first; without one each
    call uses a fresh dict. It is bound to the first call's network and
    holds that network's work: each (source, sink)'s simple-path delays,
    each (source, sink, deadline) time-expanded graph and, per deadline
    vector tried, the largest common scale h of the relative requirement
    profile with the LP result it came from, keyed by the commodities'
    endpoints, the deadlines and the profile. So one cache may be shared by
    any specs on one network, whatever their endpoints, rates and
    objectives; a spec on another network (compared with ``is``, then
    ``==``) raises ValueError. Raises InfeasibleError when no flow meets
    the requirements, before any LP when the R's of the commodities that
    leave a source (enter a sink), one or several, sum past its
    out-capacity (in-capacity) plus ``check_tol``; and SolverError when an
    LP fails or the search exceeds its budget.
    """
    if not spec.network.has_integer_delays():
        raise ValueError("integer delays required for the exact solver")
    t0 = time.perf_counter()
    net = spec.network
    comms = spec.commodities
    # The flows out of a source (into a sink), one or several, together fit
    # its out-capacity (in-capacity).
    for side, capacity, ends in (
        ("out of", net.out_capacity, [c.source for c in comms]),
        ("into", net.in_capacity, [c.sink for c in comms]),
    ):
        for v in dict.fromkeys(ends):
            group = [c for c, u in zip(comms, ends) if u == v]
            need = sum(c.R for c in group)
            most = capacity[net.index_of(v)]
            if need > most + net.check_tol:
                names = ", ".join(f"{c.source}->{c.sink}" for c in group)
                raise InfeasibleError(
                    f"requirements of {names} total {need}, above the capacity {side} "
                    f"{v} ({float(most)})"
                )
    cache = _bind_cache(cache, net)
    graphs = cache.setdefault("graphs", {})
    d_inf = math.inf if deadline_cap is None else deadline_cap
    caps = [min(c.D if c.D < math.inf else d_inf, net.max_path_delay) for c in comms]

    if not spec.objective.is_delay:
        sol, tes, cmap = _exact_lp(spec, caps, None, graphs)
        if sol.status == "infeasible":
            raise InfeasibleError("no feasible flow within the delay bounds")
        flows = _flows_from_arcs(net, tes, cmap, sol.x)
        return build_report(spec, "EXACT", FlowSolution(flows), t0)

    # Delay objective: best-first over candidate deadline vectors.
    path_delays = cache.setdefault("path_delays", {})
    cands = []
    for c, cap in zip(comms, caps):
        ends = (c.source, c.sink)
        if ends not in path_delays:
            path_delays[ends] = simple_path_delays(net, c.source, c.sink)
        ds = path_delays[ends]
        ds = ds[: bisect.bisect_right(ds, cap)]
        if not ds:
            raise InfeasibleError(f"no {c.source}->{c.sink} path within delay bound {c.D}")
        cands.append(ds)

    max_r = max(c.R for c in comms)
    # h is the largest common scale of the rate profile, so it is a rate.
    needed = max_r - net.check_tol
    profile = [c.R / max_r for c in comms]
    # h of each deadline vector tried for these endpoints and this profile.
    ends = tuple((c.source, c.sink) for c in comms)
    scales = cache.setdefault("scales", {}).setdefault((ends, tuple(profile)), {})

    costs: list[dict[int, float]] = [{} for _ in comms]
    combine = spec.objective.combine

    def value(idx: tuple[int, ...]) -> float:
        vals = []
        for i, j in enumerate(idx):
            if j not in costs[i]:
                costs[i][j] = comms[i].utility_d.value(cands[i][j])
            vals.append(costs[i][j])
        return combine(vals)

    def feasible(deltas: tuple[float, ...]) -> bool:
        """Whether h of ``deltas`` reaches ``needed``; one LP per vector,
        cached."""
        if deltas not in scales:
            out = _exact_lp(spec, list(deltas), profile, graphs)
            scales[deltas] = (out[0].objective if out[0].status == "optimal" else 0.0, out)
        return scales[deltas][0] >= needed

    start = tuple(0 for _ in comms)
    heap = [(value(start), start)]
    visited = {start}
    budget = 200_000
    while heap:
        budget -= 1
        if budget < 0:
            raise SolverError("deadline enumeration budget exceeded")
        _, idx = heapq.heappop(heap)
        deltas = tuple(cands[i][j] for i, j in enumerate(idx))
        if feasible(deltas):
            sol, tes, cmap = scales[deltas][1]
            flows = _flows_from_arcs(net, tes, cmap, sol.x)
            # Trim surplus rate from the slowest paths so |f_i| = R_i.
            trimmed = []
            for pf, c in zip(flows, comms):
                rate = sum(r for _, r in pf)
                if rate > c.R + net.zero_tol:
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


def _flows_from_arcs(net, tes, cmap, x):
    return [_extract_paths(net, te, f) for te, f in zip(tes, cmap.edge_flows(x))]
