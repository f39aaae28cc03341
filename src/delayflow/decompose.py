"""Flow decomposition: cycle cancellation plus path extraction."""

from __future__ import annotations

import numpy as np

from delayflow.graph import FEAS_TOL, Network, Path
from delayflow.lp import SolverError

#: Path rates below this are pruned from decompositions.
PRUNE_TOL = 1e-9


def _check_conservation(net: Network, x: np.ndarray, s: int, t: int) -> None:
    for v in range(len(net.nodes)):
        if v in (s, t):
            continue
        imbalance = sum(x[k] for k in net.out_edges[v]) - sum(
            x[k] for k in net.in_edges[v]
        )
        if abs(imbalance) > 1e-6:
            raise ValueError(
                f"flow conservation violated at node {net.nodes[v]} "
                f"(imbalance {imbalance})"
            )


def _find_cycle(net: Network, x: np.ndarray) -> list[int] | None:
    """A directed cycle (edge indices) in the support graph, or None."""
    n = len(net.nodes)
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
                if x[k] <= FEAS_TOL:
                    continue
                v = net.edges[k].v
                if color[v] == 1:
                    # Walk back from u to v along the stack.
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


def cancel_cycles(net: Network, edge_flow: np.ndarray, s: str, t: str) -> np.ndarray:
    """Remove flow cycles from one commodity's edge flow.

    The result has an acyclic support, the same source throughput, and is
    pointwise <= the input; total delay never increases.
    """
    x = np.array(edge_flow, dtype=np.float64)
    x[(x < 0) & (x > -FEAS_TOL)] = 0.0
    if np.any(x < 0):
        raise ValueError("edge flow must be nonnegative")
    _check_conservation(net, x, net.index_of(s), net.index_of(t))
    while True:
        cycle = _find_cycle(net, x)
        if cycle is None:
            return x
        reduce = min(x[k] for k in cycle)
        for k in cycle:
            x[k] -= reduce
            if x[k] < FEAS_TOL:
                x[k] = 0.0


def decompose(
    net: Network, s: str, t: str, edge_flow: np.ndarray
) -> list[tuple[Path, float]]:
    """Split an acyclic-supported conserving edge flow into at most |E|
    (Path, rate) pairs whose superposition reproduces it.

    Extraction is deterministic: from the source, always follow the
    positive-flow outgoing edge with the smallest index, then strip the
    bottleneck rate.
    """
    si, ti = net.index_of(s), net.index_of(t)
    x = np.array(edge_flow, dtype=np.float64)
    if np.any(x < -FEAS_TOL):
        raise ValueError("edge flow must be nonnegative")
    _check_conservation(net, x, si, ti)
    return [(Path(tuple(edges)), rate) for edges, rate in _strip_paths(net, x, si, ti)]


def _strip_paths(graph, x: np.ndarray, s: int, t: int) -> list[tuple[list[int], float]]:
    """Strip s->t paths off the edge flow ``x`` (modified in place) until
    the net outflow of ``s`` is at most PRUNE_TOL; see ``decompose``.

    ``graph`` is a ``Network`` or any graph with the same integer shape:
    ``nodes`` (names for messages), ``heads`` (head node of each edge), and
    node-indexed ``out_edges``/``in_edges`` (edge indices, ascending).
    """
    paths: list[tuple[list[int], float]] = []
    while True:
        out_rate = sum(x[k] for k in graph.out_edges[s]) - sum(
            x[k] for k in graph.in_edges[s]
        )
        if out_rate <= PRUNE_TOL:
            break
        edges: list[int] = []
        u = s
        seen = {s}
        while u != t:
            nxt = -1
            for k in graph.out_edges[u]:
                if x[k] > PRUNE_TOL:
                    nxt = k
                    break
            if nxt < 0:
                raise ValueError(
                    f"flow stranded at node {graph.nodes[u]}: cannot reach sink"
                )
            edges.append(nxt)
            u = graph.heads[nxt]
            if u in seen:
                raise ValueError("cycle encountered; cancel cycles first")
            seen.add(u)
        bottleneck = min(x[k] for k in edges)
        for k in edges:
            x[k] -= bottleneck
            if x[k] < PRUNE_TOL:
                x[k] = 0.0
        if bottleneck > PRUNE_TOL:
            paths.append((edges, bottleneck))
        if len(paths) > len(graph.heads):
            raise SolverError("decomposition exceeded |E| paths")
    return paths
