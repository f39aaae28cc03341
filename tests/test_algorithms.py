import math

import numpy as np
import pytest

from delayflow import algorithms
from delayflow.algorithms import (
    InfeasibleError,
    check_lemma1,
    compute_lambda,
    delete_slowest,
    missed_guarantees,
    solve_pass,
    solve_pass_m,
    solve_pass_t,
)
from delayflow.gen import random_problem
from delayflow.graph import Edge, Network, Path, load_topology
from delayflow.problem import (
    Commodity,
    CommodityMetrics,
    Objective,
    ProblemSpec,
    evaluate_metrics,
    make_dcum,
    make_tcdm,
    scaled_identity,
)


def _tcdm(net, r, d=math.inf):
    return ProblemSpec(
        net,
        (Commodity("s", "t", R=r, D=d, utility_d=scaled_identity(1.0)),),
        Objective.SUM_DELAY_PENALTY,
    )


def test_delete_slowest_partial(two_parallel):
    pf = [(Path((0,)), 1.0), (Path((1,)), 1.0)]
    out = delete_slowest(two_parallel, pf, 0.5)
    assert out == [(Path((0,)), 1.0), (Path((1,)), 0.5)]


def test_delete_slowest_whole_path(two_parallel):
    pf = [(Path((0,)), 1.0), (Path((1,)), 1.0)]
    out = delete_slowest(two_parallel, pf, 1.0)
    assert out == [(Path((0,)), 1.0)]


def test_delete_slowest_spills_to_next(two_parallel):
    pf = [(Path((0,)), 1.0), (Path((1,)), 1.0)]
    out = delete_slowest(two_parallel, pf, 1.5)
    assert out == [(Path((0,)), 0.5)]


def test_delete_slowest_ties_by_node_sequence():
    # s->a->t and s->b->t both have delay 3 and carry rate 1.
    net = Network(
        ("s", "a", "b", "t"),
        (Edge(0, 1, 1.0, 1.0), Edge(1, 3, 2.0, 1.0), Edge(0, 2, 2.0, 1.0), Edge(2, 3, 1.0, 1.0)),
    )
    via_b, via_a = Path((2, 3)), Path((0, 1))
    out = delete_slowest(net, [(via_b, 1.0), (via_a, 1.0)], 0.5)
    assert out == [(via_b, 1.0), (via_a, 0.5)]


def test_delete_slowest_bad_amount(two_parallel):
    pf = [(Path((0,)), 1.0)]
    with pytest.raises(ValueError):
        delete_slowest(two_parallel, pf, 2.0)
    with pytest.raises(ValueError):
        delete_slowest(two_parallel, pf, -0.1)


def test_pass_two_parallel_half(two_parallel):
    """Counterpart routes 1 on each edge; deleting half the rate drops the
    slow edge entirely, leaving rate 1 at delay 1."""
    rep = solve_pass(_tcdm(two_parallel, 2.0), 0.5)
    assert rep.solution.flows == (((Path((0,)), 1.0),),)
    assert rep.metrics[0].throughput == pytest.approx(1.0)
    assert rep.metrics[0].max_delay == 1.0
    assert rep.objective == pytest.approx(1.0)
    hat = evaluate_metrics(two_parallel, rep.counterpart)[0]
    ok, slack = check_lemma1(two_parallel, hat, rep.metrics[0], 0.5)
    assert ok
    assert slack == pytest.approx(9.0)  # 11 - (1 + 0.5*2*1)


def test_pass_epsilon_validation(two_parallel):
    for eps in (0.0, 1.0, 1.5, -0.1):
        with pytest.raises(ValueError):
            solve_pass(_tcdm(two_parallel, 2.0), eps)


def test_pass_infeasible_counterpart(two_parallel):
    # capacity only allows rate 2 in total
    with pytest.raises(InfeasibleError):
        solve_pass(_tcdm(two_parallel, 3.0), 0.1)


@pytest.mark.parametrize(
    "solve", [lambda spec: solve_pass(spec, 0.1), solve_pass_m, solve_pass_t],
    ids=["pass", "pass-m", "pass-t"],
)
def test_a_short_inner_cut_is_left_to_the_counterpart_lp(monkeypatch, solve):
    """s sends and t takes up to 5, but the cut a->b carries 1: the
    endpoint rule lets R = 2 through, and the one counterpart LP finds it
    infeasible."""
    net = Network(
        ("s", "a", "b", "t"),
        (Edge(0, 1, 1.0, 5.0), Edge(1, 2, 1.0, 1.0), Edge(2, 3, 1.0, 5.0)),
    )
    calls = []
    real = algorithms.solve_lp
    monkeypatch.setattr(algorithms, "solve_lp", lambda lp: calls.append(lp) or real(lp))
    with pytest.raises(InfeasibleError, match="^average-delay counterpart is infeasible$"):
        solve(_tcdm(net, 2.0, d=10.0))
    assert len(calls) == 1


def test_pass_m_two_parallel(two_parallel):
    """D=6 makes the counterpart feasible (T=11 <= 12) but the slow path
    (delay 10) violates the bound, so it is deleted whole."""
    rep = solve_pass_m(_tcdm(two_parallel, 2.0, d=6.0))
    assert rep.epsilon_max == pytest.approx(0.5)
    assert rep.epsilon_min == pytest.approx(0.5)
    assert rep.metrics[0].max_delay <= 6.0
    assert rep.metrics[0].throughput == pytest.approx(1.0)


#: A generated DCUM instance (6 nodes, 4 commodities) on which
#: two commodities keep every counterpart path under PASS-M.
_LOSSLESS_PASS_M = """
edge v0 v1 2 17
edge v0 v2 3 20
edge v0 v3 1 15
edge v1 v0 2 9
edge v1 v3 1 12
edge v2 v1 3 10
edge v2 v3 5 9
edge v2 v4 3 19
edge v2 v5 7 10
edge v3 v0 10 10
edge v3 v4 8 5
edge v3 v5 6 11
edge v4 v1 5 13
edge v4 v5 7 8
edge v5 v3 7 14
edge v5 v4 3 17
"""


def test_pass_m_removes_exactly_nothing_from_commodities_that_keep_every_path():
    """Their counterpart and kept rates add in one order, so their removed
    fraction is 0, not a rounding of about -1e-16."""
    nodes = "".join(f"node v{i}\n" for i in range(6))
    net = load_topology(nodes + _LOSSLESS_PASS_M)
    demands = [("v3", "v4", 16.0), ("v2", "v1", 6.0), ("v4", "v0", 9.0), ("v1", "v2", 9.0)]
    spec = make_dcum(net, [(s, t, d, scaled_identity(3.0)) for s, t, d in demands])
    rep = solve_pass_m(spec)
    kept = [
        all(p.delay(net) <= c.D for p, _ in pf)
        for pf, c in zip(rep.counterpart.flows, spec.commodities)
    ]
    assert kept.count(True) == 2
    assert rep.epsilon_min == 0.0
    assert rep.epsilon_max > 0.5


def test_pass_m_requires_finite_bounds(two_parallel):
    with pytest.raises(ValueError, match="finite delay bound"):
        solve_pass_m(_tcdm(two_parallel, 2.0))


def test_pass_t_keeps_full_rate(two_parallel):
    rep = solve_pass_t(_tcdm(two_parallel, 2.0))
    assert rep.metrics[0].throughput == pytest.approx(2.0)
    assert rep.metrics[0].max_delay == 10.0
    assert rep.objective == pytest.approx(10.0)


def test_compute_lambda(two_parallel):
    spec = _tcdm(two_parallel, 2.0)
    pt = solve_pass_t(spec)
    p = solve_pass(spec, 0.5)
    assert compute_lambda(pt, p) == pytest.approx(10.0)
    with pytest.raises(ValueError):
        compute_lambda(p, pt)


def test_pass_certificates_on_diamond(diamond):
    spec = make_tcdm(diamond, [("s", "t", 10.0, 1.0)])
    rep = solve_pass(spec, 0.2)
    assert rep.metrics[0].throughput >= (1 - 0.2) * 10.0 - 1e-9
    assert not rep.solution.check_feasible(diamond, spec.commodities)
    hat = evaluate_metrics(diamond, rep.counterpart)[0]
    ok, _ = check_lemma1(diamond, hat, rep.metrics[0], 0.2)
    assert ok


def test_missed_guarantees_names_each_miss_in_order(two_parallel):
    """Per commodity the floor, then the cap, then PASS's deletion
    inequality; a floor may be missed by ``check_tol`` (1e-6 here), a cap
    by ``bound_tol`` of it."""
    spec = _tcdm(two_parallel, 2.0, d=4.0)  # PASS at eps 0.5: floor 1, cap 8
    hat = CommodityMetrics(2.0, 10.0, 11.0, 5.5)

    def missed(throughput, max_delay):
        bar = CommodityMetrics(throughput, max_delay, 0.0, 0.0)
        return missed_guarantees(spec, "PASS", [bar], [hat], epsilon=0.5)

    assert missed(1.0 - 0.9e-6, 8.0 + 7e-6) == []  # bound_tol(8) = 8e-6
    assert missed(1.0 - 1.1e-6, 8.0 + 9e-6) == [
        f"commodity 0: throughput {1.0 - 1.1e-6} below (1-eps)*R = 1.0",
        f"commodity 0: max delay {8.0 + 9e-6} exceeds D/eps = 8.0",
    ]
    bar = CommodityMetrics(0.5, 9.0, 9.0, 18.0)  # slack 11 - (9 + 0.5*2*9)
    assert missed_guarantees(spec, "PASS", [bar], [hat], epsilon=0.5) == [
        "commodity 0: throughput 0.5 below (1-eps)*R = 1.0",
        "commodity 0: max delay 9.0 exceeds D/eps = 8.0",
        "commodity 0: deletion inequality violated (slack -7.0)",
    ]
    short = [CommodityMetrics(1.0, 4.0, 4.0, 4.0)]
    assert missed_guarantees(spec, "GREEDY", short) == [
        "commodity 0: throughput 1.0 below requirement 2.0"
    ]
    assert missed_guarantees(spec, "GREEDY", short, feasible=False) == []
    with pytest.raises(ValueError, match="unknown algorithm 'FAST'"):
        missed_guarantees(spec, "FAST", short)


def test_report_fields(two_parallel):
    rep = solve_pass(_tcdm(two_parallel, 2.0), 0.25)
    assert rep.algorithm == "PASS"
    assert rep.epsilon == 0.25
    assert rep.counterpart is not None
    assert sum(r for _, r in rep.counterpart.flows[0]) == pytest.approx(2.0)
    assert rep.wall_time >= 0.0


# -- reference deletion -------------------------------------------------------
# The deletion loops as they were before the slowest-first order was sorted
# once: both re-sort the remaining paths after every step. The single-sort
# walk must reproduce their paths, order and rates bit for bit.


def _reference_delete_slowest(net, path_flow, amount):
    zero = net.zero_tol
    remaining = [r for _, r in path_flow]
    live = list(range(len(path_flow)))
    left = amount
    while left > zero and live:
        live.sort(
            key=lambda i: (
                -path_flow[i][0].delay(net),
                -remaining[i],
                path_flow[i][0].nodes(net),
            )
        )
        i = live[0]
        take = min(remaining[i], left)
        remaining[i] -= take
        left -= take
        if remaining[i] <= zero:
            live.pop(0)
    return [
        (p, remaining[i])
        for i, (p, _) in enumerate(path_flow)
        if remaining[i] > zero
    ]


def _reference_pass_m_keep(net, path_flow, bound):
    flow = list(path_flow)
    while flow:
        flow.sort(key=lambda item: (-item[0].delay(net), -item[1], item[0].nodes(net)))
        if flow[0][0].delay(net) <= bound:
            break
        flow.pop(0)
    return flow


def _bits(path_flow):
    return [(p.edges, float(r).hex()) for p, r in path_flow]


def _assert_deletion_matches_reference(runs):
    """Per (spec, report) run: PASS-M's kept paths where it ran, and
    delete_slowest at several fractions of every counterpart commodity's
    rate. Returns the number of commodity path flows checked."""
    checked = 0
    for spec, rep in runs:
        net = spec.network
        if rep.algorithm == "PASS-M":
            for c, hat_i, bar_i in zip(
                spec.commodities, rep.counterpart.flows, rep.solution.flows
            ):
                assert _bits(bar_i) == _bits(_reference_pass_m_keep(net, hat_i, c.D))
        for pf in rep.counterpart.flows:
            rate = sum(r for _, r in pf)
            for frac in (0.03, 0.25, 0.5, 0.9, 1.0):
                got = delete_slowest(net, pf, frac * rate)
                assert _bits(got) == _bits(_reference_delete_slowest(net, pf, frac * rate))
            checked += 1
    return checked


def _bounded(spec) -> bool:
    return all(math.isfinite(c.D) for c in spec.commodities)


def test_deletion_matches_reference_on_corpus():
    specs = [random_problem(np.random.default_rng(seed)) for seed in range(200)]
    runs = [(s, solve_pass_m(s) if _bounded(s) else solve_pass_t(s)) for s in specs]
    assert _assert_deletion_matches_reference(runs) >= 200


def test_deletion_matches_reference_on_ec2_sweeps(ec2_sweeps):
    """PASS-M where every bound is finite, else PASS-T, from the sweeps."""
    runs = {
        id(spec): (spec, rep)
        for sweep in ec2_sweeps.values()
        for _, spec, rep in sweep.rows
        if rep.algorithm == ("PASS-M" if _bounded(spec) else "PASS-T")
    }
    assert _assert_deletion_matches_reference(runs.values()) == 2 * 226
