import json
import math

import numpy as np
import pytest

from delayflow.graph import Edge, Network, Path
from delayflow.lp import solve_lp
from delayflow.problem import (
    Commodity,
    FlowSolution,
    Objective,
    PLFunction,
    ProblemSpec,
    build_counterpart,
    evaluate_metrics,
    make_dcum,
    make_tcdm,
    objective_value,
    problem_from_json,
    problem_to_json,
    scaled_identity,
    validate_utility_d,
    validate_utility_t,
)


def test_pl_function_values():
    u = PLFunction(((0.0, 0.0), (2.0, 4.0), (5.0, 7.0)))
    assert u.value(0.0) == 0.0
    assert u.value(1.0) == 2.0
    assert u.value(2.0) == 4.0
    assert u.value(4.0) == pytest.approx(6.0)
    assert u.value(10.0) == pytest.approx(12.0)  # last slope extends
    assert u.slopes() == [2.0, 1.0]
    assert u.segments() == [(2.0, 0.0), (1.0, 2.0)]


def test_pl_function_validation():
    with pytest.raises(ValueError):
        PLFunction(())
    with pytest.raises(ValueError):
        PLFunction(((1.0, 0.0),))  # must start at a=0
    with pytest.raises(ValueError):
        PLFunction(((0.0, 0.0), (0.0, 1.0)))  # non-increasing abscissae
    with pytest.raises(ValueError):
        PLFunction(((0.0, 0.0), (1.0, 1.0))).value(-1.0)


def test_validate_utility_t():
    assert validate_utility_t(PLFunction(((0.0, 0.0), (2.0, 4.0), (5.0, 7.0)))) is None
    assert "negative slope" in validate_utility_t(
        PLFunction(((0.0, 1.0), (1.0, 0.0)))
    )
    assert "not concave" in validate_utility_t(
        PLFunction(((0.0, 0.0), (1.0, 1.0), (2.0, 3.0)))
    )
    assert "negative" in validate_utility_t(PLFunction(((0.0, -1.0), (1.0, 0.0))))


def test_validate_utility_d():
    assert validate_utility_d(scaled_identity(3.0)) is None
    # convex through the origin scales superlinearly: rejected
    msg = validate_utility_d(PLFunction(((0.0, 0.0), (1.0, 1.0), (2.0, 3.0))))
    assert msg is not None and "intercept" in msg
    # the same shape lifted enough is fine
    assert validate_utility_d(PLFunction(((0.0, 1.0), (1.0, 2.0), (2.0, 4.0)))) is None
    assert "not convex" in validate_utility_d(
        PLFunction(((0.0, 0.0), (1.0, 2.0), (2.0, 3.0)))
    )


def test_shape_checks_scale_with_the_slopes_and_values_compared():
    """A steep line through three breakpoints is both concave and convex,
    whatever rounding its computed slopes and intercepts carry; a slope
    rise of 1e-6 relative is still a kink."""
    line = PLFunction(
        (
            (0.0, 0.0),
            (8.402277707737092, 15517191.429610873),
            (9.223753523525636, 17034279.763485953),
        )
    )
    assert validate_utility_t(line) is None
    assert validate_utility_d(line) is None
    s = 1e5
    assert "not concave" in validate_utility_t(
        PLFunction(((0.0, 0.0), (1.0, s), (2.0, s + s * (1 + 1e-6))))
    )
    assert "not convex" in validate_utility_d(
        PLFunction(((0.0, 0.0), (1.0, s * (1 + 1e-6)), (2.0, s * (1 + 1e-6) + s)))
    )
    assert "intercept" in validate_utility_d(
        PLFunction(((0.0, 0.0), (1.0, s), (2.0, s + s * (1 + 1e-6))))
    )


def test_shape_checks_scale_with_the_segment_width():
    """A slope over a segment 6e-4 wide carries about eps*|u|/6e-4 of
    rounding, more than the slope's own magnitude suggests: this straight
    line is both concave and convex, and a sublinear penalty."""
    line = PLFunction(
        (
            (0.0, 0.0),
            (7.084828928258201, 984.4015687832474),
            (7.0854707326842465, 984.4907443004334),
        )
    )
    assert validate_utility_t(line) is None
    assert validate_utility_d(line) is None


def test_commodity_validation():
    with pytest.raises(ValueError):
        Commodity("a", "a")
    with pytest.raises(ValueError):
        Commodity("a", "b", R=-1.0)
    with pytest.raises(ValueError):
        Commodity("a", "b", D=0.0)


def test_problem_spec_validation(two_parallel):
    """A spec is checked once, when it is built: its nodes first, then each
    commodity against the objective's conditions."""
    ProblemSpec(two_parallel, (Commodity("s", "t", R=1.0),), Objective.SUM_DELAY_PENALTY)
    with pytest.raises(ValueError, match="unknown node"):
        ProblemSpec(two_parallel, (Commodity("s", "x"),), Objective.SUM_DELAY_PENALTY)
    zero_rate = (Commodity("s", "t", R=0.0),)
    with pytest.raises(ValueError, match="R > 0"):
        ProblemSpec(two_parallel, zero_rate, Objective.SUM_DELAY_PENALTY)
    ProblemSpec(two_parallel, zero_rate, Objective.SUM_THROUGHPUT_UTILITY)
    with pytest.raises(ValueError, match="unknown node"):
        ProblemSpec(two_parallel, zero_rate + (Commodity("x", "t"),), Objective.SUM_DELAY_PENALTY)


def test_flow_solution_metrics(two_parallel):
    sol = FlowSolution((((Path((0,)), 1.0), (Path((1,)), 0.5)),))
    (m,) = evaluate_metrics(two_parallel, sol)
    assert m.throughput == pytest.approx(1.5)
    assert m.max_delay == 10.0
    assert m.total_delay == pytest.approx(6.0)
    assert m.avg_delay == pytest.approx(4.0)
    assert sol.edge_flow(two_parallel, 0) == pytest.approx([1.0, 0.5])


def test_check_feasible_reports_violations(two_parallel):
    comms = (Commodity("s", "t", R=1.0),)
    over = FlowSolution((((Path((0,)), 2.0),),))
    issues = over.check_feasible(two_parallel, comms)
    assert any("capacity exceeded" in s for s in issues)
    ok = FlowSolution((((Path((0,)), 1.0),),))
    assert ok.check_feasible(two_parallel, comms) == []


def test_check_feasible_conservation(diamond):
    comms = (Commodity("s", "t"),)
    # flow enters 'a' but never leaves it
    broken = FlowSolution((((Path((0,)), 1.0),),))
    issues = broken.check_feasible(diamond, comms)
    assert any("conservation" in s for s in issues)


def test_check_feasible_two_violated_nodes():
    """Every violated node is named, in node order, with both sums; a node
    without in-edges reads ``in 0``, as an empty sum."""
    net = Network(
        ("s", "a", "b", "t"),
        (Edge(0, 1, 1.0, 5.0), Edge(1, 3, 1.0, 5.0), Edge(2, 3, 1.0, 5.0)),
    )
    comms = (Commodity("s", "t"),)
    broken = FlowSolution((((Path((2,)), 2.0), (Path((0,)), 1.5)),))
    assert broken.check_feasible(net, comms) == [
        "commodity 0: conservation violated at a (in 1.5, out 0.0)",
        "commodity 0: conservation violated at b (in 0, out 2.0)",
    ]
    assert broken.edge_flow(net, 0).tolist() == [1.5, 0.0, 2.0]


@pytest.mark.parametrize(
    "objective,commodity,message",
    [
        (
            Objective.SUM_THROUGHPUT_UTILITY,
            Commodity("s", "t", utility_t=PLFunction(((0.0, 0.0), (1.0, 1.0), (2.0, 3.0)))),
            "throughput utility: slopes increase",
        ),
        (Objective.SUM_DELAY_PENALTY, Commodity("s", "t", R=0.0), "R > 0"),
    ],
)
def test_invalid_utility_raises_from_every_entry(two_parallel, objective, commodity, message):
    """The constructor raises, so no entry (``build_counterpart``, a solver,
    ``verify``) is ever handed a spec that breaks its objective's
    conditions."""
    with pytest.raises(ValueError, match=message):
        ProblemSpec(two_parallel, (commodity,), objective)


def test_objective_values(two_parallel):
    comms = (
        Commodity("s", "t", R=1.0, utility_t=scaled_identity(2.0), utility_d=scaled_identity(3.0)),
    )
    sol = FlowSolution((((Path((0,)), 1.0),),))
    metrics = evaluate_metrics(two_parallel, sol)
    for obj, expect in [
        (Objective.SUM_THROUGHPUT_UTILITY, 2.0),
        (Objective.MIN_THROUGHPUT_UTILITY, 2.0),
        (Objective.SUM_DELAY_PENALTY, 3.0),
        (Objective.MAX_DELAY_PENALTY, 3.0),
    ]:
        spec = ProblemSpec(two_parallel, comms, obj)
        assert objective_value(spec, metrics) == pytest.approx(expect)


@pytest.mark.parametrize(
    "objective,combine",
    [
        (Objective.SUM_THROUGHPUT_UTILITY, sum),
        (Objective.SUM_DELAY_PENALTY, sum),
        (Objective.MIN_THROUGHPUT_UTILITY, min),
        (Objective.MAX_DELAY_PENALTY, max),
    ],
)
def test_objective_combine(objective, combine):
    assert objective.combine is combine


@pytest.mark.parametrize("objective", ["tcdm", "dcum"])
def test_objective_is_a_plain_float(ec2_sweeps, objective):
    """Every report of the EC2 sweeps on that objective: PASS, PASS-T,
    GREEDY, EXACT and, where every delay bound is finite, PASS-M."""
    names = {"tcdm": ("tcdm-eps", "tcdm-rate"), "dcum": ("dcum-eps", "utility-weights")}
    rows = [row for n in names[objective] for row in ec2_sweeps[n].rows]
    assert {type(rep.objective) for *_, rep in rows} == {float}


def test_counterpart_tcdm_two_parallel(two_parallel):
    # rates pinned to R=2 forces both edges; min total delay is 11
    spec = make_tcdm(two_parallel, [("s", "t", 2.0, 1.0)])
    lp, cmap = build_counterpart(spec)
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(5.5)  # average delay 11/2
    (x,) = cmap.columns(sol.x)
    assert x == pytest.approx([1.0, 1.0])


def test_counterpart_dcum_two_parallel(two_parallel):
    # average-delay bound T <= D|f| with D=1 admits only the fast edge
    spec = make_dcum(two_parallel, [("s", "t", 1.0, scaled_identity(1.0))])
    lp, cmap = build_counterpart(spec)
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(1.0)


def test_counterpart_dcum_relaxation_mixes_paths(two_parallel):
    # with D=5.5 the average-delay bound admits the full rate 2
    spec = make_dcum(two_parallel, [("s", "t", 5.5, scaled_identity(1.0))])
    lp, _ = build_counterpart(spec)
    sol = solve_lp(lp)
    assert sol.objective == pytest.approx(2.0)


def test_counterpart_infinite_d_drops_delay_row(two_parallel):
    spec = ProblemSpec(
        two_parallel,
        (Commodity("s", "t", R=2.0, utility_d=scaled_identity(1.0)),),
        Objective.SUM_DELAY_PENALTY,
    )
    lp, _ = build_counterpart(spec)
    spec_bounded = ProblemSpec(
        two_parallel,
        (Commodity("s", "t", R=2.0, D=100.0, utility_d=scaled_identity(1.0)),),
        Objective.SUM_DELAY_PENALTY,
    )
    lp2, _ = build_counterpart(spec_bounded)
    assert lp2.num_rows == lp.num_rows + 1


def test_counterpart_max_min_objective(two_parallel):
    spec = ProblemSpec(
        two_parallel,
        (Commodity("s", "t", utility_t=scaled_identity(1.0)),),
        Objective.MIN_THROUGHPUT_UTILITY,
    )
    lp, _ = build_counterpart(spec)
    # K*E edge columns, K rate and K epigraph columns, one bound column
    assert lp.num_vars == 1 * 2 + 2 * 1 + 1
    sol = solve_lp(lp)
    assert sol.objective == pytest.approx(2.0)


def test_json_round_trip(two_parallel):
    spec = ProblemSpec(
        two_parallel,
        (
            Commodity("s", "t", R=1.5, D=7.0, w=2.0, utility_t=scaled_identity(2.0)),
            Commodity("t", "s", R=0.0),
        ),
        Objective.SUM_THROUGHPUT_UTILITY,
    )
    doc = json.loads(json.dumps(problem_to_json(spec)))
    again = problem_from_json(doc, two_parallel)
    assert again == spec


def test_json_defaults_and_inf(two_parallel):
    doc = {
        "objective": "SumDelayPenalty",
        "commodities": [{"src": "s", "dst": "t", "R": 2}],
    }
    spec = problem_from_json(doc, two_parallel)
    assert math.isinf(spec.commodities[0].D)
    assert spec.commodities[0].w == 1.0
    assert problem_to_json(spec)["commodities"][0]["D"] == "inf"
    with pytest.raises(ValueError, match="unknown objective"):
        problem_from_json({"objective": "Nope", "commodities": []}, two_parallel)


@pytest.mark.parametrize(
    "doc,message",
    [
        (
            {"objective": "SumDelayPenalty", "commodities": [{"src": "s", "dst": "t", "r": 2}]},
            "commodity 0: unknown key 'r' (expected one of src, dst, R, D, w, "
            "utility_t, utility_d)",
        ),
        (
            {"objective": "SumDelayPenalty", "commodities": [], "comodities": []},
            "unknown key 'comodities' (expected one of objective, commodities)",
        ),
    ],
    ids=["commodity", "top-level"],
)
def test_json_rejects_unknown_keys(two_parallel, doc, message):
    with pytest.raises(ValueError) as info:
        problem_from_json(doc, two_parallel)
    assert str(info.value) == message
