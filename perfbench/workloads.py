"""The benchmark's two workloads, built only from public ``delayflow`` calls.

A workload is a fixed list of solver calls (``Op``). One pass runs them in
order, back to back, from a single caller.

- ``ec2-sweeps``: the solver calls of the four ``delayflow experiment``
  sweeps on the builtin EC2 topology, in the same order and with the same
  shared exact cache. The paper fixes the instances; the seed draws the
  epsilon of the PASS calls that the paper runs at 0.03.
- ``gen-ladder``: synthetic TCDM and DCUM instances from ``ladder_instance``
  on a ladder of sizes, run through PASS, PASS-M (DCUM only), PASS-T and
  greedy, each report serialised and re-verified inside the pass. The exact
  solver runs only on a separate rung of small instances, where it is cheap,
  beside greedy. A pass makes the calls in a fixed shuffled order.

The ladder's instances are fixed, and the seed draws each PASS epsilon.
Solve time varies up to tenfold between random instances, so instances
drawn from the seed would make the figures differ more between seeds than
between commits; fixed instances also give every EXACT call a stored
reference optimum.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from delayflow import (
    Commodity,
    Edge,
    Network,
    Objective,
    PLFunction,
    ProblemSpec,
    builtin_ec2,
    make_dcum,
    make_tcdm,
    serialize_topology,
    shortest_path_by_delay,
)
from delayflow.problem import problem_to_json

#: Solvers that re-solve the same average-delay counterpart LP.
PASS_FAMILY = ("PASS", "PASS-M", "PASS-T")


@dataclass
class Op:
    """One solver call. ``cache`` names an exact-solver cache shared by the
    ops of one pass that carry the same name."""

    solver: str  # PASS | PASS-M | PASS-T | GREEDY | EXACT
    spec: ProblemSpec
    key: str
    eps: float | None = None
    cache: str | None = None
    deadline_cap: float | None = None


@dataclass
class Workload:
    name: str
    ops: list[Op]
    #: Serialise and re-verify every report inside the timed pass.
    verify_in_pass: bool = False
    #: Reference EXACT optima by op key.
    reference: dict = field(default_factory=dict)


def _identity(w: float) -> PLFunction:
    return PLFunction(((0.0, 0.0), (1.0, float(w))))


# -- ec2-sweeps ----------------------------------------------------------------

_EC2_PAIRS = (("VA", "SI"), ("OR", "TO"))
#: Range of the epsilon drawn for the PASS calls that the paper runs at 0.03.
EC2_EPS = (0.02, 0.05)


def ec2_ops(seed: int) -> list[Op]:
    """The solver calls of ``delayflow experiment tcdm-eps``, ``tcdm-rate``,
    ``dcum-eps`` and ``utility-weights``, in that order. The epsilon sweeps
    keep the paper's grid; the seed draws each fixed-epsilon PASS call's
    epsilon from ``EC2_EPS`` (the exact optima do not depend on it)."""
    net = builtin_ec2()
    eps_rng = np.random.default_rng([seed, 0xEC2])

    def draw_eps() -> float:
        return round(float(eps_rng.uniform(*EC2_EPS)), 4)

    (s1, t1), (s2, t2) = _EC2_PAIRS
    eps_grid = [k / 100 for k in range(1, 100)]
    ops: list[Op] = []

    def add(solver, spec, key, **kw):
        ops.append(Op(solver, spec, key, **kw))

    spec = make_tcdm(net, [(s1, t1, 230.0, 1.0), (s2, t2, 230.0, 1.0)])
    add("PASS-T", spec, "tcdm-eps")
    add("GREEDY", spec, "tcdm-eps")
    add("EXACT", spec, "tcdm-eps", deadline_cap=900.0)
    for eps in eps_grid:
        add("PASS", spec, f"tcdm-eps/eps={eps}", eps=eps)

    for r in range(116, 240):
        spec = make_tcdm(net, [(s1, t1, float(r), 1.0), (s2, t2, float(r), 1.0)])
        key = f"tcdm-rate/R={r}"
        add("PASS", spec, key, eps=draw_eps())
        add("PASS-T", spec, key)
        add("GREEDY", spec, key)
        add("EXACT", spec, key, cache="tcdm-rate", deadline_cap=900.0)

    spec = make_dcum(net, [(s1, t1, 150.0, _identity(1)), (s2, t2, 150.0, _identity(1))])
    add("PASS-M", spec, "dcum-eps")
    add("GREEDY", spec, "dcum-eps")
    add("EXACT", spec, "dcum-eps")
    for eps in eps_grid:
        add("PASS", spec, f"dcum-eps/eps={eps}", eps=eps)

    for w1 in range(1, 11):
        for w2 in range(1, 11):
            spec = ProblemSpec(
                net,
                (
                    Commodity(s1, t1, R=80.0, D=150.0, w=w1, utility_t=_identity(w1)),
                    Commodity(s2, t2, R=80.0, D=150.0, w=w2, utility_t=_identity(w2)),
                ),
                Objective.SUM_THROUGHPUT_UTILITY,
            )
            key = f"utility-weights/w1={w1},w2={w2}"
            add("PASS", spec, key, eps=draw_eps())
            add("PASS-M", spec, key)
            add("PASS-T", spec, key)
            add("GREEDY", spec, key)
            add("EXACT", spec, key)
    return ops


# -- gen-ladder ----------------------------------------------------------------

#: (nodes, commodities, instance pairs per rung) on the ROADMAP's ladder.
#: Each pair is one TCDM and one DCUM instance. Edge density matches the
#: ROADMAP's n=15, E=116 point. n=6 and (15, 2) stay on the tableau side of
#: ``engine="auto"``; the rest go to HiGHS, and (60, 2) has a 2069 x 3898
#: dense constraint matrix (64.5 MB). The pair counts put each latency
#: percentile inside a cluster of similar calls rather than in a gap between
#: rungs, where run-to-run noise would move it most: pass_ms_p50 falls among
#: the ~30 ms (15, 8) and (30, 2) calls, pass_ms_p90 among the (60, 2) calls
#: and greedy_ms_p50 among the (15, 8) calls.
LADDER = (
    (6, 2, 3),
    (6, 4, 4),
    (15, 2, 3),
    (15, 8, 6),
    (30, 2, 2),
    (30, 4, 2),
    (30, 8, 1),
    (60, 2, 3),
)
EDGE_DENSITY = 0.55
#: (nodes, commodities, instance pairs) of the rung that only the exact
#: solver and greedy run on: enough calls for a 90th percentile, and enough
#: to hold solve_ms_p50 and greedy_ms_p50 among them (the 48 ladder greedy
#: calls alone put greedy_ms_p50 in a gap between rungs).
EXACT_RUNG = (5, 2, 100)
#: Seed of the ladder's instances. They are fixed because per-instance solve
#: time varies up to tenfold between draws (tableau rungs most), which would
#: swamp a comparison between commits; ``--seed`` draws each PASS epsilon.
LADDER_SEED = 20181214
#: Paths a TCDM requirement is sized from (keeps generation cheap on n=60).
SIZING_PATHS = 3


def _push(
    net: Network, s: str, t: str, residual: np.ndarray, limit: float, max_paths: int
) -> float:
    """Route up to ``limit`` from s to t along at most ``max_paths``
    successive minimum-delay residual paths, consuming ``residual``; returns
    the rate routed."""
    total = 0.0
    for _ in range(max_paths):
        p = shortest_path_by_delay(net, residual, s, t)
        if p is None:
            break
        room = min(min(residual[k] for k in p.edges), limit - total)
        if room <= 1e-9:
            break
        for k in p.edges:
            residual[k] -= room
        total += room
    return total


def ladder_instance(rng: np.random.Generator, n: int, k: int, kind: str) -> ProblemSpec:
    """A random strongly connected digraph on ``n`` nodes with exactly
    ``round(EDGE_DENSITY*n*(n-1))`` edges (a random ring plus random extra
    arcs), integer delays 1..10 and capacities 5..20, and ``k`` commodities.

    ``kind`` "tcdm": each requirement is 30-80% of what ``SIZING_PATHS``
    minimum-delay paths can still carry after the earlier commodities took
    theirs, and is routed there, so the instance is feasible by
    construction. ``kind`` "dcum": each delay bound is 1.2-2.5x the
    commodity's shortest-path delay, no requirement.
    """
    names = tuple(f"v{i}" for i in range(n))
    perm = [int(v) for v in rng.permutation(n)]
    ring = set(zip(perm, perm[1:] + perm[:1]))
    others = [(u, v) for u in range(n) for v in range(n) if u != v and (u, v) not in ring]
    extra = round(EDGE_DENSITY * n * (n - 1)) - n
    picked = rng.choice(len(others), size=extra, replace=False)
    arcs = sorted(ring | {others[int(j)] for j in picked})
    net = Network(
        names,
        tuple(
            Edge(u, v, float(rng.integers(1, 11)), float(rng.integers(5, 21)))
            for u, v in arcs
        ),
    )
    residual = net.capacities()
    pairs: list[tuple[int, int]] = []
    demands = []
    tries = 0
    while len(demands) < k:
        tries += 1
        if tries > 1000:
            raise RuntimeError(f"no room for {k} commodities on n={n}")
        s, t = (int(v) for v in rng.choice(n, size=2, replace=False))
        if (s, t) in pairs:
            continue
        src, dst = names[s], names[t]
        if kind == "tcdm":
            room = _push(net, src, dst, residual.copy(), math.inf, SIZING_PATHS)
            if room < 1.0:
                continue
            rate = round(float(rng.uniform(0.3, 0.8)) * room, 3)
            _push(net, src, dst, residual, rate, SIZING_PATHS)
            demands.append((src, dst, rate, float(rng.integers(1, 5))))
        else:
            sp = shortest_path_by_delay(net, net.capacities(), src, dst)
            bound = float(math.ceil(sp.delay(net) * float(rng.uniform(1.2, 2.5))))
            demands.append((src, dst, bound, _identity(int(rng.integers(1, 5)))))
        pairs.append((s, t))
    return make_tcdm(net, demands) if kind == "tcdm" else make_dcum(net, demands)


def ladder_ops(seed: int) -> list[Op]:
    rng = np.random.default_rng(LADDER_SEED)
    eps_rng = np.random.default_rng([seed, 0x1ADDE2])
    ops: list[Op] = []
    for n, k, pairs in LADDER:
        for j in range(pairs):
            for kind in ("tcdm", "dcum"):
                spec = ladder_instance(rng, n, k, kind)
                key = f"n={n},K={k},{kind}#{j}"
                eps = round(float(eps_rng.uniform(0.05, 0.5)), 4)
                ops.append(Op("PASS", spec, key, eps=eps))
                if kind == "dcum":
                    ops.append(Op("PASS-M", spec, key))
                ops.append(Op("PASS-T", spec, key))
                ops.append(Op("GREEDY", spec, key))
    n, k, pairs = EXACT_RUNG
    for j in range(pairs):
        for kind in ("tcdm", "dcum"):
            spec = ladder_instance(rng, n, k, kind)
            key = f"exact/n={n},K={k},{kind}#{j}"
            ops.append(Op("EXACT", spec, key))
            ops.append(Op("GREEDY", spec, key))
    # A fixed shuffle spreads each latency percentile's calls over the whole
    # pass. In rung order they would sit in a window of a fraction of a
    # second, and the machine's speed, which changes every few seconds,
    # would be sampled once per pass there.
    order = np.random.default_rng([LADDER_SEED, 1]).permutation(len(ops))
    return [ops[int(i)] for i in order]


def build(name: str, seed: int, reference: dict) -> Workload:
    if name == "ec2-sweeps":
        return Workload(name, ec2_ops(seed), reference=reference.get(name, {}))
    if name == "gen-ladder":
        return Workload(
            name, ladder_ops(seed), verify_in_pass=True, reference=reference.get(name, {})
        )
    raise ValueError(f"unknown workload {name!r}")


def spec_digest(spec: ProblemSpec) -> str:
    """Content hash of an instance (topology text plus problem JSON)."""
    doc = serialize_topology(spec.network) + json.dumps(problem_to_json(spec), sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()


def workload_digest(ops: list[Op]) -> str:
    h = hashlib.sha256()
    for op in ops:
        h.update(f"{op.solver}|{op.key}|{op.eps}|{op.cache}|{op.deadline_cap}|".encode())
        h.update(spec_digest(op.spec).encode())
    return h.hexdigest()
