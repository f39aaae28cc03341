"""The slowest-path-deletion solver family and its certificate checks.

``solve_counterpart`` solves the average-delay-aware counterpart LP once and
decomposes its optimum into path flows. Three deletion rules then read that
one ``Counterpart`` and never touch an LP: ``apply_pass`` deletes a fixed
epsilon fraction of every commodity's rate (constant relaxation of both
constraint families), ``apply_pass_m`` deletes whole slowest paths until
each delay bound holds exactly, and ``apply_pass_t`` deletes nothing
(throughput requirements met exactly). ``solve_pass``, ``solve_pass_m`` and
``solve_pass_t`` check their arguments, solve the counterpart and apply
their rule.
"""

from __future__ import annotations

import math
import time
from collections.abc import Sequence
from dataclasses import dataclass

from delayflow.decompose import cancel_cycles, decompose
from delayflow.graph import Network, Path, bound_tol
from delayflow.lp import solve_lp
from delayflow.problem import (
    CommodityMetrics,
    FlowSolution,
    ProblemSpec,
    build_counterpart,
    evaluate_metrics,
    objective_value,
)


class InfeasibleError(RuntimeError):
    """The average-delay counterpart (hence the problem itself) is infeasible."""


def check_endpoint_capacities(spec: ProblemSpec) -> None:
    """Raise InfeasibleError when the R's of the commodities that leave a
    source (enter a sink), one or several, sum past its out-capacity
    (in-capacity) plus ``check_tol``: each distinct source first, then each
    distinct sink. Every LP solver calls this before building an LP."""
    net = spec.network
    comms = spec.commodities
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


PathFlow = Sequence[tuple[Path, float]]


@dataclass
class SolveReport:
    algorithm: str  # PASS | PASS-M | PASS-T | GREEDY | EXACT
    solution: FlowSolution
    metrics: tuple[CommodityMetrics, ...]
    objective: float
    counterpart: FlowSolution | None = None
    epsilon: float | None = None
    epsilon_max: float | None = None
    epsilon_min: float | None = None
    feasible: bool = True
    wall_time: float = 0.0


def build_report(
    spec: ProblemSpec,
    algorithm: str,
    solution: FlowSolution,
    t0: float,
    counterpart: FlowSolution | None = None,
    **extra,
) -> SolveReport:
    """Report of any solver: metrics and objective of ``solution``, with the
    wall time since ``t0``. ``extra`` sets the other SolveReport fields."""
    metrics = evaluate_metrics(spec.network, solution)
    return SolveReport(
        algorithm=algorithm,
        solution=solution,
        metrics=metrics,
        objective=objective_value(spec, metrics),
        counterpart=counterpart,
        wall_time=time.perf_counter() - t0,
        **extra,
    )


def slowest_first(net: Network, path_flow: PathFlow) -> list[int]:
    """Indices of ``path_flow`` in deletion order: non-increasing delay,
    ties broken by larger rate first, then by the lexicographically smaller
    node sequence, then by position."""

    def key(i):
        path, rate = path_flow[i]
        return (-path.delay(net), -rate, path.nodes(net))

    return sorted(range(len(path_flow)), key=key)


def delete_slowest(net: Network, path_flow: PathFlow, amount: float) -> list[tuple[Path, float]]:
    """Remove ``amount`` total rate, drawn from paths in ``slowest_first``
    order; the last path touched may be reduced partially. Surviving paths
    keep their input order."""
    zero = net.zero_tol
    total = sum(r for _, r in path_flow)
    if amount < -zero or amount > total + zero:
        raise ValueError(f"deletion amount {amount} outside [0, {total}]")
    remaining = [r for _, r in path_flow]
    left = amount
    for i in slowest_first(net, path_flow):
        if left <= zero:
            break
        take = min(remaining[i], left)
        remaining[i] -= take
        left -= take
    return [
        (p, remaining[i])
        for i, (p, _) in enumerate(path_flow)
        if remaining[i] > zero
    ]


@dataclass(frozen=True)
class Counterpart:
    """The counterpart optimum of ``spec``, decomposed into paths, and the
    seconds its solve took, which every rule's report counts in its wall
    time."""

    spec: ProblemSpec
    flows: FlowSolution
    seconds: float


def solve_counterpart(spec: ProblemSpec) -> Counterpart:
    """Solve the counterpart LP and decompose each commodity into paths.
    Raises InfeasibleError, before any LP when ``check_endpoint_capacities``
    finds an endpoint short."""
    t0 = time.perf_counter()
    check_endpoint_capacities(spec)
    lp, cmap = build_counterpart(spec)
    sol = solve_lp(lp)
    if sol.status == "infeasible":
        raise InfeasibleError("average-delay counterpart is infeasible")
    net = spec.network
    flows = FlowSolution(
        decompose(net, c.source, c.sink, cancel_cycles(net, x, c.source, c.sink))
        for c, x in zip(spec.commodities, cmap.edge_flows(sol.x))
    )
    return Counterpart(spec, flows, time.perf_counter() - t0)


def _check_epsilon(epsilon: float) -> None:
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")


def _check_finite_bounds(spec: ProblemSpec) -> None:
    for i, c in enumerate(spec.commodities):
        if not math.isfinite(c.D):
            raise ValueError(f"commodity {i}: PASS-M needs a finite delay bound")


def solve_pass(spec: ProblemSpec, epsilon: float) -> SolveReport:
    """``apply_pass`` to the solved counterpart of ``spec``."""
    _check_epsilon(epsilon)
    return apply_pass(solve_counterpart(spec), epsilon)


def solve_pass_m(spec: ProblemSpec) -> SolveReport:
    """``apply_pass_m`` to the solved counterpart of ``spec``."""
    _check_finite_bounds(spec)
    return apply_pass_m(solve_counterpart(spec))


def solve_pass_t(spec: ProblemSpec) -> SolveReport:
    """``apply_pass_t`` to the solved counterpart of ``spec``."""
    return apply_pass_t(solve_counterpart(spec))


def apply_pass(cp: Counterpart, epsilon: float) -> SolveReport:
    """Delete an epsilon fraction of each commodity's rate from its slowest
    flow-carrying counterpart paths.

    The result satisfies |f_i| >= (1-epsilon)*R_i, M(f_i) <= D_i/epsilon
    for finite D_i, and full feasibility.
    """
    _check_epsilon(epsilon)
    t0 = time.perf_counter() - cp.seconds
    bar = FlowSolution(
        delete_slowest(cp.spec.network, pf, epsilon * sum(r for _, r in pf))
        for pf in cp.flows.flows
    )
    return build_report(cp.spec, "PASS", bar, t0, cp.flows, epsilon=epsilon)


def apply_pass_m(cp: Counterpart) -> SolveReport:
    """Delete whole slowest counterpart paths until every commodity's
    maximum delay meets its bound exactly; delay bounds must all be finite."""
    spec = cp.spec
    _check_finite_bounds(spec)
    t0 = time.perf_counter() - cp.seconds
    net = spec.network
    bar_flows = []
    eps_i = []
    for pf, c in zip(cp.flows.flows, spec.commodities):
        # The paths over the bound form a prefix of the slowest-first order.
        kept = [pf[i] for i in slowest_first(net, pf) if pf[i][0].delay(net) <= c.D]
        bar_flows.append(kept)
        eps_i.append(
            removed_fraction(net, sum(r for _, r in pf), sum(r for _, r in kept))
        )
    return build_report(
        spec,
        "PASS-M",
        FlowSolution(bar_flows),
        t0,
        cp.flows,
        epsilon_max=max(eps_i),
        epsilon_min=min(eps_i),
    )


def apply_pass_t(cp: Counterpart) -> SolveReport:
    """Return the decomposed counterpart optimum unmodified; throughput
    requirements hold exactly."""
    t0 = time.perf_counter() - cp.seconds
    return build_report(cp.spec, "PASS-T", cp.flows, t0, cp.flows)


def check_lemma1(
    net: Network, hat: CommodityMetrics, bar: CommodityMetrics, epsilon: float
) -> tuple[bool, float]:
    """Deletion inequality for one commodity, from the metrics of its
    counterpart flow ``hat`` and its flow after deletion ``bar``:
    T(f_bar) + epsilon*|f_hat|*M(f_bar) <= T(f_hat). Returns (holds, slack)."""
    lhs = bar.total_delay + epsilon * hat.throughput * bar.max_delay
    slack = hat.total_delay - lhs
    return slack >= -net.check_tol, slack


def removed_fraction(net: Network, hat_rate: float, bar_rate: float) -> float:
    """Share of a commodity's counterpart rate ``hat_rate`` that a deletion
    leaving ``bar_rate`` removed: PASS-M's per-commodity epsilon."""
    return (hat_rate - bar_rate) / hat_rate if hat_rate > net.zero_tol else 0.0


def guarantees(
    spec: ProblemSpec,
    algorithm: str,
    epsilon: float | None = None,
    epsilon_max: float | None = None,
    counterpart: Sequence[CommodityMetrics] | None = None,
    feasible: bool = True,
) -> list[tuple[tuple[str, float] | None, tuple[str, float] | None]]:
    """Per commodity, the floor on |f_i| and the cap on M(f_i) that
    ``algorithm`` guarantees, each as (label in messages, value), or None
    where it promises none.

    PASS: (1-eps)*R_i and D_i/eps. PASS-M: (1-eps_max)*|f_hat_i|, given
    ``epsilon_max`` and the ``counterpart`` metrics, and D_i. PASS-T: R_i.
    GREEDY and EXACT: R_i when they report themselves ``feasible``, and
    D_i. An infinite D_i gives no cap. Raises ValueError for an unknown
    algorithm.
    """
    comms = spec.commodities
    if algorithm == "PASS":
        table = [(("(1-eps)*R =", (1 - epsilon) * c.R), ("D/eps =", c.D / epsilon)) for c in comms]
    elif algorithm == "PASS-M":
        floors = [None] * len(comms)
        if epsilon_max is not None and counterpart is not None:
            label = "(1-eps_max)*counterpart ="
            floors = [(label, (1 - epsilon_max) * h.throughput) for h in counterpart]
        table = [(floor, ("bound", c.D)) for floor, c in zip(floors, comms)]
    elif algorithm == "PASS-T":
        table = [(("requirement", c.R), None) for c in comms]
    elif algorithm in ("GREEDY", "EXACT"):
        table = [(("requirement", c.R) if feasible else None, ("bound", c.D)) for c in comms]
    else:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    return [(floor, cap if math.isfinite(c.D) else None) for (floor, cap), c in zip(table, comms)]


def missed_guarantees(
    spec: ProblemSpec,
    algorithm: str,
    metrics: Sequence[CommodityMetrics],
    counterpart: Sequence[CommodityMetrics] | None = None,
    epsilon: float | None = None,
    epsilon_max: float | None = None,
    feasible: bool = True,
) -> list[str]:
    """The guarantees of ``algorithm`` that a result with ``metrics``
    misses, one message each: per commodity, a floor of ``guarantees``
    missed by more than ``check_tol``, then a cap missed by more than
    ``bound_tol`` of it; for PASS with ``counterpart`` metrics, then each
    commodity's deletion inequality (``check_lemma1``). Raises ValueError
    for an unknown algorithm."""
    net = spec.network
    table = guarantees(spec, algorithm, epsilon, epsilon_max, counterpart, feasible)
    issues = []
    for i, (m, (floor, cap)) in enumerate(zip(metrics, table)):
        if floor is not None and m.throughput < floor[1] - net.check_tol:
            issues.append(f"commodity {i}: throughput {m.throughput} below {floor[0]} {floor[1]}")
        if cap is not None and m.max_delay > cap[1] + bound_tol(cap[1]):
            issues.append(f"commodity {i}: max delay {m.max_delay} exceeds {cap[0]} {cap[1]}")
    if algorithm == "PASS" and counterpart is not None:
        for i, (h, m) in enumerate(zip(counterpart, metrics)):
            ok, slack = check_lemma1(net, h, m, epsilon)
            if not ok:
                issues.append(f"commodity {i}: deletion inequality violated (slack {slack})")
    return issues


def compute_lambda(pass_t_report: SolveReport, pass_report: SolveReport) -> float:
    """Delay-relaxation ratio of the no-deletion solver relative to a
    companion epsilon run: max(1, max_i M(f_i)/M(g_i)). Returns math.inf
    when some commodity has M(g_i) = 0 < M(f_i)."""
    if pass_t_report.algorithm != "PASS-T" or pass_report.algorithm != "PASS":
        raise ValueError("expected a PASS-T report and a PASS report")
    mt = pass_t_report.metrics
    mp = pass_report.metrics
    if len(mt) != len(mp):
        raise ValueError("reports come from different problem specs")
    lam = 1.0
    for a, b in zip(mt, mp):
        if b.max_delay <= 0.0:
            if a.max_delay > 0.0:
                return math.inf
            continue
        lam = max(lam, a.max_delay / b.max_delay)
    return lam
