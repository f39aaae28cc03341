"""The slowest-path-deletion solver family and its certificate checks.

All three solvers share the same first step: solve the average-delay-aware
counterpart LP once and decompose it into path flows. They differ in what
they delete afterwards: a fixed epsilon fraction of every commodity's rate
(constant relaxation of both constraint families), whole slowest paths until
each delay bound holds exactly, or nothing at all (throughput requirements
met exactly).
"""

from __future__ import annotations

import math
import time
from collections.abc import Sequence
from dataclasses import dataclass

from delayflow.decompose import cancel_cycles, decompose
from delayflow.graph import FEAS_TOL, Network, Path
from delayflow.lp import SolverError, solve_lp
from delayflow.problem import (
    CommodityMetrics,
    FlowSolution,
    ProblemSpec,
    build_counterpart,
    evaluate_metrics,
    objective_value,
    path_flow_sums,
)


class InfeasibleError(RuntimeError):
    """The average-delay counterpart (hence the problem itself) is infeasible."""


PathFlow = Sequence[tuple[Path, float]]


@dataclass
class SolveReport:
    algorithm: str  # PASS | PASS-M | PASS-T | GREEDY | EXACT
    solution: FlowSolution
    metrics: tuple[CommodityMetrics, ...]
    objective: float
    counterpart: FlowSolution | None = None
    counterpart_metrics: tuple[CommodityMetrics, ...] | None = None
    epsilon: float | None = None
    epsilon_max: float | None = None
    epsilon_min: float | None = None
    lam: float | None = None  # PASS-T delay ratio; math.inf when unbounded
    throughput_ratios: tuple[float, ...] = ()  # |f_i| / R_i (inf when R_i = 0)
    delay_ratios: tuple[float, ...] = ()  # M(f_i) / D_i (0 when D_i = inf)
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
    """Report of any solver: metrics, objective and constraint ratios of
    ``solution`` (and the counterpart's metrics when given), with the wall
    time since ``t0``. ``extra`` sets the remaining SolveReport fields."""
    metrics = evaluate_metrics(spec.network, solution)
    hat_metrics = None
    if counterpart is not None:
        hat_metrics = evaluate_metrics(spec.network, counterpart)
    pairs = list(zip(spec.commodities, metrics))
    return SolveReport(
        algorithm=algorithm,
        solution=solution,
        metrics=metrics,
        objective=objective_value(spec, metrics),
        counterpart=counterpart,
        counterpart_metrics=hat_metrics,
        throughput_ratios=tuple(
            m.throughput / c.R if c.R > 0 else math.inf for c, m in pairs
        ),
        delay_ratios=tuple(
            m.max_delay / c.D if math.isfinite(c.D) else 0.0 for c, m in pairs
        ),
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
    total = sum(r for _, r in path_flow)
    if amount < -FEAS_TOL or amount > total + FEAS_TOL:
        raise ValueError(f"deletion amount {amount} outside [0, {total}]")
    remaining = [r for _, r in path_flow]
    left = amount
    for i in slowest_first(net, path_flow):
        if left <= FEAS_TOL:
            break
        take = min(remaining[i], left)
        remaining[i] -= take
        left -= take
    return [
        (p, remaining[i])
        for i, (p, _) in enumerate(path_flow)
        if remaining[i] > FEAS_TOL
    ]


def _solve_counterpart(spec: ProblemSpec) -> FlowSolution:
    """Solve the counterpart LP and decompose each commodity into paths."""
    lp, cmap = build_counterpart(spec)
    sol = solve_lp(lp)
    if sol.status == "infeasible":
        raise InfeasibleError("average-delay counterpart is infeasible")
    if sol.status != "optimal":
        raise SolverError(f"counterpart LP ended with status {sol.status}")
    net = spec.network
    return FlowSolution(
        decompose(net, c.source, c.sink, cancel_cycles(net, x, c.source, c.sink))
        for c, x in zip(spec.commodities, cmap.edge_flows(sol.x))
    )


def solve_pass(spec: ProblemSpec, epsilon: float) -> SolveReport:
    """Solve the counterpart once, then delete an epsilon fraction of each
    commodity's rate from its slowest flow-carrying paths.

    The result satisfies |f_i| >= (1-epsilon)*R_i, M(f_i) <= D_i/epsilon
    for finite D_i, and full feasibility.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    t0 = time.perf_counter()
    hat = _solve_counterpart(spec)
    bar = FlowSolution(
        delete_slowest(spec.network, pf, epsilon * sum(r for _, r in pf))
        for pf in hat.flows
    )
    return build_report(spec, "PASS", bar, t0, hat, epsilon=epsilon)


def solve_pass_m(spec: ProblemSpec) -> SolveReport:
    """Delete whole slowest paths until every commodity's maximum delay
    meets its bound exactly; delay bounds must all be finite."""
    for i, c in enumerate(spec.commodities):
        if not math.isfinite(c.D):
            raise ValueError(f"commodity {i}: PASS-M needs a finite delay bound")
    t0 = time.perf_counter()
    hat = _solve_counterpart(spec)
    net = spec.network
    bar_flows = []
    eps_i = []
    for pf, c in zip(hat.flows, spec.commodities):
        # The paths over the bound form a prefix of the slowest-first order.
        kept = [pf[i] for i in slowest_first(net, pf) if pf[i][0].delay(net) <= c.D]
        bar_flows.append(kept)
        hat_rate = sum(r for _, r in pf)
        bar_rate = sum(r for _, r in kept)
        eps_i.append((hat_rate - bar_rate) / hat_rate if hat_rate > FEAS_TOL else 0.0)
    return build_report(
        spec,
        "PASS-M",
        FlowSolution(bar_flows),
        t0,
        hat,
        epsilon_max=max(eps_i),
        epsilon_min=min(eps_i),
    )


def solve_pass_t(spec: ProblemSpec) -> SolveReport:
    """Return the decomposed counterpart optimum unmodified; throughput
    requirements hold exactly."""
    t0 = time.perf_counter()
    hat = _solve_counterpart(spec)
    return build_report(spec, "PASS-T", hat, t0, hat)


def check_lemma1(
    net: Network, f_hat_i: PathFlow, f_bar_i: PathFlow, epsilon: float
) -> tuple[bool, float]:
    """Deletion inequality for one commodity:
    T(f_bar) + epsilon*|f_hat|*M(f_bar) <= T(f_hat). Returns (holds, slack)."""
    rate_hat, t_hat, _ = path_flow_sums(net, f_hat_i)
    _, t_bar, m_bar = path_flow_sums(net, f_bar_i)
    lhs = t_bar + epsilon * rate_hat * m_bar
    slack = t_hat - lhs
    return slack >= -1e-6, slack


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
        if b.max_delay <= FEAS_TOL:
            if a.max_delay > FEAS_TOL:
                return math.inf
            continue
        lam = max(lam, a.max_delay / b.max_delay)
    return lam
