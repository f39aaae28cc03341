"""Flow decomposition: cycle cancellation plus path extraction."""

from __future__ import annotations

import functools
import operator

import numpy as np

from delayflow.graph import Network, Path, unbalanced_nodes
from delayflow.lp import SolverError


def _checked_flow(net: Network, edge_flow: np.ndarray, s: str, t: str) -> list[float]:
    """One commodity's s->t edge flow as a list of floats, which the walks
    read in place of numpy scalars; a rate in (-check_tol, 0), an LP's
    rounding, reads 0. Raises ValueError when a rate is more negative or a
    node other than s and t is unbalanced by more than ``check_tol``."""
    x = np.array(edge_flow, dtype=np.float64)
    x[(x < 0) & (x > -net.check_tol)] = 0.0
    if np.any(x < 0):
        raise ValueError("edge flow must be nonnegative")
    si, ti = net.index_of(s), net.index_of(t)
    bad, out, inflow = unbalanced_nodes(net, x, si, ti, net.check_tol)
    if bad:
        v = bad[0]
        raise ValueError(
            f"flow conservation violated at node {net.nodes[v]} "
            f"(imbalance {out[v] - inflow[v]})"
        )
    return x.tolist()


def _find_cycle(net: Network, x: list[float]) -> list[int] | None:
    """A directed cycle (edge indices) in the support of ``x``, or None."""
    n = len(net.nodes)
    heads = net.heads
    zero = net.zero_tol
    color = [0] * n  # 0 unvisited, 1 on stack, 2 done
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
                if x[k] <= zero:
                    continue
                v = heads[k]
                if color[v] == 1:
                    # The stack is the DFS path; the cycle is its part from v.
                    path = [w for w, _ in stack]
                    return [via[w] for w in path[path.index(v) + 1 :]] + [k]
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


def cancel_cycles(net: Network, edge_flow: np.ndarray, s: str, t: str) -> np.ndarray:
    """Remove flow cycles from one commodity's edge flow.

    The result has an acyclic support, the same source throughput, and is
    pointwise <= the input; total delay never increases.
    """
    flow = _checked_flow(net, edge_flow, s, t)
    while (cycle := _find_cycle(net, flow)) is not None:
        reduce = min(flow[k] for k in cycle)
        for k in cycle:
            flow[k] -= reduce
            if flow[k] < net.zero_tol:
                flow[k] = 0.0
    return np.array(flow, dtype=np.float64)


def decompose(
    net: Network, s: str, t: str, edge_flow: np.ndarray
) -> list[tuple[Path, float]]:
    """Split an acyclic-supported conserving edge flow into at most |E|
    (Path, rate) pairs whose superposition reproduces it.

    Extraction is deterministic: from the source, always follow the
    positive-flow outgoing edge with the smallest index, then strip the
    bottleneck rate.
    """
    flow = _checked_flow(net, edge_flow, s, t)
    return [
        (Path(tuple(edges)), rate)
        for edges, rate in _strip_paths(net, flow, net.index_of(s), net.index_of(t))
    ]


def _fold(x: list[float], edges) -> float:
    """Left-to-right sum of ``x`` over ``edges``; unlike ``sum``, which
    compensates plain floats on Python >= 3.12, the same on every version."""
    return functools.reduce(operator.add, (x[k] for k in edges), 0.0)


def _strip_paths(
    net: Network, x: list[float], s: int, t: int
) -> list[tuple[list[int], np.float64]]:
    """Strip s->t paths off the edge flow ``x``, a list of floats modified
    in place, until the net outflow of ``s`` is at most ``net.zero_tol``;
    see ``decompose``. Rates are returned as ``np.float64``. A walk that
    strands with a bottleneck of at most ``net.check_tol`` is an LP's
    rounding: it is dropped, not returned.
    """
    zero = net.zero_tol
    heads = net.heads
    paths: list[tuple[list[int], np.float64]] = []
    while True:
        out_rate = _fold(x, net.out_edges[s]) - _fold(x, net.in_edges[s])
        if out_rate <= zero:
            break
        edges: list[int] = []
        u = s
        seen = {s}
        while u != t:
            nxt = -1
            for k in net.out_edges[u]:
                if x[k] > zero:
                    nxt = k
                    break
            if nxt < 0:
                if min((x[k] for k in edges), default=out_rate) > net.check_tol:
                    raise ValueError(
                        f"flow stranded at node {net.nodes[u]}: cannot reach sink"
                    )
                break
            edges.append(nxt)
            u = heads[nxt]
            if u in seen:
                raise ValueError("cycle encountered; cancel cycles first")
            seen.add(u)
        if not edges:  # what leaves s is rounding on edges that read 0
            break
        bottleneck = min(x[k] for k in edges)
        for k in edges:
            x[k] -= bottleneck
            if x[k] < zero:
                x[k] = 0.0
        if u == t and bottleneck > zero:
            paths.append((edges, np.float64(bottleneck)))
        if len(paths) > len(heads):
            raise SolverError("decomposition exceeded |E| paths")
    return paths
