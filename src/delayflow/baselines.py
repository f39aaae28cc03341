"""Comparison solvers: a greedy shortest-path heuristic and the exact
optimum via a path LP over each commodity's simple paths within its
deadline (integer delays only).
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
    check_endpoint_capacities,
    delete_slowest,
    missed_guarantees,
)
from delayflow.graph import Network, Path, shortest_path_by_delay
from delayflow.lp import SolverError, solve_lp
from delayflow.problem import FlowSolution, PathSet, ProblemSpec, build_counterpart

#: The most simple paths the exact solver enumerates for one endpoint pair
#: within its deadline.
PATH_BUDGET = 100_000

#: The most deadline vectors a delay-objective exact search pops.
DEADLINE_BUDGET = 200_000

#: The popped vectors after which a delay-objective exact search solves the
#: cap vector's LP, so that an infeasible search ends early.
CAP_CHECK_POPS = 256


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


def _enumerate_paths(net: Network, s: int, t: int, cap: float) -> PathSet:
    """Every simple s->t path of delay at most ``cap``, sorted by (delay,
    edge tuple), by one depth-first search. A prefix ending at v is dropped
    once its delay plus ``net.least_delays[v, t]`` passes ``cap``. Raises
    SolverError as soon as more than ``PATH_BUDGET`` paths are found."""
    dist = net.least_delays[:, t].tolist()
    delay = net.delay_array.tolist()
    heads = net.heads
    on_path = [False] * len(net.nodes)
    on_path[s] = True
    edges: list[int] = []
    found: list[tuple[float, tuple[int, ...]]] = []

    def extend(u: int, acc: float) -> None:
        for k in net.out_edges[u]:
            v = heads[k]
            d = acc + delay[k]
            if on_path[v] or d + dist[v] > cap:
                continue
            edges.append(k)
            if v == t:
                found.append((d, tuple(edges)))
                if len(found) > PATH_BUDGET:
                    raise SolverError(
                        f"more than {PATH_BUDGET} simple {net.nodes[s]}->{net.nodes[t]} "
                        f"paths within delay {cap}, the exact solver's path budget"
                    )
            else:
                on_path[v] = True
                extend(v, d)
                on_path[v] = False
            edges.pop()

    if dist[s] <= cap:
        extend(s, 0.0)
    found.sort()
    lengths = [len(p) for _, p in found]
    return PathSet(
        tuple(Path(p) for _, p in found),
        np.array([d for d, _ in found]),
        np.array([k for _, p in found for k in p], dtype=np.intp),
        np.repeat(np.arange(len(found)), lengths),
    )


def _within(ps: PathSet, deadline: float) -> PathSet:
    """The prefix of ``ps`` (sorted by delay) of delay at most ``deadline``;
    ``owner`` never decreases, so its edges are a prefix too."""
    m = int(ps.delays.searchsorted(deadline, "right"))
    e = int(ps.owner.searchsorted(m))
    return PathSet(ps.paths[:m], ps.delays[:m], ps.edges[:e], ps.owner[:e])


def _pair_paths(net: Network, cache: dict, c, cap: float) -> PathSet:
    """``c``'s simple paths within ``cap``, sliced from its endpoints'
    cached (cap, PathSet) entry, which is enumerated anew only when ``cap``
    passes the cap it was enumerated at."""
    pairs = cache.setdefault("paths", {})
    ends = (c.source, c.sink)
    entry = pairs.get(ends)
    if entry is None or entry[0] < cap:
        s, t = net.index_of(c.source), net.index_of(c.sink)
        entry = pairs[ends] = (cap, _enumerate_paths(net, s, t, cap))
    return _within(entry[1], cap)


def _path_flows(
    net: Network, sets: list[PathSet], cmap, x: np.ndarray
) -> list[list[tuple[Path, float]]]:
    """Each commodity's paths with a rate above ``zero_tol``, in column
    order."""
    zero = net.zero_tol
    return [
        [(ps.paths[j], r) for j, r in enumerate(rates) if r > zero]
        for ps, rates in zip(sets, cmap.columns(x))
    ]


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
    """True optimum of the delay-constrained problem via a path LP over the
    simple paths that meet each commodity's deadline; requires integer edge
    delays.

    A walk within a deadline projects, after loop erasure, to a simple path
    that is no slower and uses no edge more often, so these paths lose
    nothing, and the LP's x is already a path flow. Each commodity's
    deadline is its D, or ``deadline_cap`` in place of an infinite D,
    clamped to ``net.max_path_delay``, which no simple path passes.
    Throughput objectives need one LP at those deadlines (larger deadlines
    never hurt). Delay objectives enumerate candidate deadline vectors
    drawn from the paths' delays, best-first by objective value; the first
    feasible vector is optimal.

    ``cache`` is a dict the caller owns, empty at first; without one each
    call uses a fresh dict. It is bound to the first call's network and
    holds that network's work: each (source, sink)'s simple paths within
    the largest deadline asked of it, as (that deadline, one ``PathSet``
    sorted by delay) whose prefixes are the columns of smaller deadlines,
    and, per deadline vector tried, the largest common scale h of the
    relative requirement profile with the LP result it came from, keyed by
    the commodities' endpoints, the deadlines and the profile. So one cache
    may be shared by any specs on one network, whatever their endpoints,
    rates and objectives; a spec on another network (compared with ``is``,
    then ``==``) raises ValueError. Raises InfeasibleError when no flow
    meets the requirements, before any LP when ``check_endpoint_capacities``
    finds an endpoint short, or when the search pops more than
    ``CAP_CHECK_POPS`` vectors (or ``DEADLINE_BUDGET``, if fewer) and the
    cap vector's LP (every column) falls short too; and SolverError when
    an LP fails, an endpoint pair has more than ``PATH_BUDGET`` paths within
    its deadline, or the search passes its budget while the cap vector's LP
    meets the requirements.
    """
    if not spec.network.has_integer_delays():
        raise ValueError("integer delays required for the exact solver")
    check_endpoint_capacities(spec)
    t0 = time.perf_counter()
    net = spec.network
    comms = spec.commodities
    cache = _bind_cache(cache, net)
    d_inf = math.inf if deadline_cap is None else deadline_cap
    caps = [min(c.D if c.D < math.inf else d_inf, net.max_path_delay) for c in comms]
    pairs = [_pair_paths(net, cache, c, cap) for c, cap in zip(comms, caps)]

    if not spec.objective.is_delay:
        # A commodity with no path gets the row -|f_i| = 0, so its rate is 0.
        lp, cmap = build_counterpart(spec, pairs)
        sol = solve_lp(lp)
        if sol.status == "infeasible":
            raise InfeasibleError("no feasible flow within the delay bounds")
        flows = _path_flows(net, pairs, cmap, sol.x)
        return build_report(spec, "EXACT", FlowSolution(flows), t0)

    # Delay objective: best-first over candidate deadline vectors.
    cands = []
    for c, ps in zip(comms, pairs):
        ds = sorted(set(ps.delays.tolist()))
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
            sets = [_within(ps, d) for ps, d in zip(pairs, deltas)]
            lp, cmap = build_counterpart(spec, sets, profile)
            sol = solve_lp(lp)
            h = sol.objective if sol.status == "optimal" else 0.0
            scales[deltas] = (h, sol, sets, cmap)
        return scales[deltas][0] >= needed

    start = tuple(0 for _ in comms)
    heap = [(value(start), start)]
    visited = {start}
    top = tuple(ds[-1] for ds in cands)
    pops = 0
    while heap:
        pops += 1
        # No vector's h passes the cap vector's, which has every column.
        if pops > min(CAP_CHECK_POPS, DEADLINE_BUDGET) and not feasible(top):
            break
        if pops > DEADLINE_BUDGET:
            raise SolverError("deadline enumeration budget exceeded")
        _, idx = heapq.heappop(heap)
        deltas = tuple(cands[i][j] for i, j in enumerate(idx))
        if feasible(deltas):
            _, sol, sets, cmap = scales[deltas]
            # Trim surplus rate from the slowest paths so |f_i| = R_i.
            trimmed = []
            for pf, c in zip(_path_flows(net, sets, cmap, sol.x), comms):
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
