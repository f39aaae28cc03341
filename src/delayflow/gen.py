"""Seeded random instance generator for property tests and the CLI.

Instances are feasible by construction: throughput requirements are set to a
fraction of what the greedy pusher can route, and delay bounds sit at or
above each commodity's shortest-path delay. Delays are small integers so the
exact solver applies.
"""

from __future__ import annotations

import math

import numpy as np

from delayflow.baselines import push_shortest
from delayflow.graph import Edge, Network
from delayflow.problem import Commodity, Objective, PLFunction, ProblemSpec, scaled_identity


def random_network(
    rng: np.random.Generator, max_nodes: int = 8, max_delay: int = 10
) -> Network:
    """Connected-ish random digraph with integer delays in 1..max_delay and
    integer capacities in 1..20."""
    n = int(rng.integers(3, max_nodes + 1))
    nodes = tuple(f"n{i}" for i in range(n))
    edges = []
    seen = set()
    # A random ring first so every node has a way in and out.
    order = list(rng.permutation(n))
    for a, b in zip(order, order[1:] + order[:1]):
        seen.add((a, b))
        edges.append((a, b))
    p = float(rng.uniform(0.25, 0.6))
    for u in range(n):
        for v in range(n):
            if u == v or (u, v) in seen:
                continue
            if rng.random() < p:
                seen.add((u, v))
                edges.append((u, v))
    built = tuple(
        Edge(
            u,
            v,
            float(rng.integers(1, max_delay + 1)),
            float(rng.integers(1, 21)),
        )
        for u, v in edges
    )
    return Network(nodes, built)


def _random_breakpoints(
    rng: np.random.Generator, concave: bool
) -> tuple[list[tuple[float, float]], list[float]]:
    """Breakpoints from (0, 0) of 1-3 random segments, with slopes in
    [0.2, 3) sorted decreasing (``concave``) or increasing and integer
    widths in 1..7; returns the points and the slopes."""
    nseg = int(rng.integers(1, 4))
    slopes = sorted((float(rng.uniform(0.2, 3.0)) for _ in range(nseg)), reverse=concave)
    widths = [float(rng.integers(1, 8)) for _ in range(nseg)]
    pts = [(0.0, 0.0)]
    for s, w in zip(slopes, widths):
        a, u = pts[-1]
        pts.append((a + w, u + s * w))
    return pts, slopes


def random_concave_utility(rng: np.random.Generator) -> PLFunction:
    pts, _ = _random_breakpoints(rng, concave=True)
    return PLFunction(tuple(pts))


def random_convex_penalty(rng: np.random.Generator) -> PLFunction:
    """Convex non-decreasing penalty whose segment lines all have nonnegative
    intercepts (so scaling the argument scales the value at most linearly).
    Built by lifting the whole function until the steepest line clears zero."""
    pts, slopes = _random_breakpoints(rng, concave=False)
    lift = max(0.0, -min(u - s * a for (a, u), s in zip(pts, slopes + slopes[-1:])))
    pts = [(a, u + lift) for a, u in pts]
    return PLFunction(tuple(pts))


def random_problem(
    rng: np.random.Generator, max_nodes: int = 8, max_delay: int = 10
) -> ProblemSpec:
    net = random_network(rng, max_nodes, max_delay)
    objective = list(Objective)[int(rng.integers(0, 4))]
    while True:
        k = int(rng.integers(1, 3))
        residual = net.capacities()
        comms = []
        used = set()
        n = len(net.nodes)
        for _ in range(k):
            for _ in range(30):
                s, t = (int(x) for x in rng.integers(0, n, size=2))
                if s == t or (s, t) in used:
                    continue
                _, cap = push_shortest(net, residual, net.nodes[s], net.nodes[t])
                if cap <= 0.5:  # cap is 0 when no s->t path exists
                    continue
                used.add((s, t))
                break
            else:
                continue
            if objective.is_delay:
                # Requirement the greedy pusher just met; no delay bound so the
                # counterpart stays feasible.
                comms.append(
                    Commodity(
                        net.nodes[s],
                        net.nodes[t],
                        R=round(float(rng.uniform(0.3, 0.9) * cap), 3),
                        D=math.inf,
                        w=float(rng.integers(1, 5)),
                        utility_d=(
                            scaled_identity(float(rng.integers(1, 5)))
                            if rng.random() < 0.5
                            else random_convex_penalty(rng)
                        ),
                    )
                )
            else:
                comms.append(
                    Commodity(
                        net.nodes[s],
                        net.nodes[t],
                        R=0.0,
                        D=float(
                            math.ceil(net.least_delays[s, t] * float(rng.uniform(1.0, 3.0)))
                        ),
                        utility_t=(
                            random_concave_utility(rng)
                            if rng.random() < 0.5
                            else scaled_identity(1.0)
                        ),
                    )
                )
        if comms:
            return ProblemSpec(net, tuple(comms), objective)
        # Degenerate draw; retry with a fresh graph and the same objective.
        net = random_network(rng, max_nodes, max_delay)
