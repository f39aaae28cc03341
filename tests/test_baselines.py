import dataclasses
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from delayflow import baselines
from delayflow.baselines import _enumerate_paths, solve_exact, solve_greedy
from delayflow.algorithms import InfeasibleError, missed_guarantees
from delayflow.cli import EC2_PAIRS, report_to_json, verify_report
from delayflow.gen import random_problem
from delayflow.graph import Edge, Network, Path, builtin_ec2
from delayflow.lp import SolverError
from delayflow.problem import (
    IDENTITY,
    Commodity,
    Objective,
    PLFunction,
    ProblemSpec,
    make_dcum,
    make_tcdm,
    problem_from_json,
    scaled_identity,
)


def test_greedy_two_parallel(two_parallel):
    rep = solve_greedy(make_tcdm(two_parallel, [("s", "t", 2.0, 1.0)]))
    assert rep.feasible
    assert rep.metrics[0].throughput == pytest.approx(2.0)
    assert rep.metrics[0].max_delay == 10.0
    # fast edge is filled first
    assert rep.solution.flows[0][0] == (Path((0,)), 1.0)


def test_greedy_flags_unmet_requirement(two_parallel):
    rep = solve_greedy(make_tcdm(two_parallel, [("s", "t", 3.0, 1.0)]))
    assert not rep.feasible
    assert rep.metrics[0].throughput == pytest.approx(2.0)


def test_greedy_respects_delay_bound(two_parallel):
    rep = solve_greedy(make_dcum(two_parallel, [("s", "t", 1.0, scaled_identity(1.0))]))
    assert rep.feasible  # no requirement to miss
    assert rep.metrics[0].throughput == pytest.approx(1.0)
    assert rep.metrics[0].max_delay == 1.0


def test_greedy_unreachable_sink(two_parallel):
    spec = make_tcdm(two_parallel, [("t", "s", 1.0, 1.0)])
    rep = solve_greedy(spec)
    assert not rep.feasible
    assert rep.metrics[0].throughput == 0.0


def test_greedy_flag_is_the_missed_guarantees_rule_on_doubled_corpus():
    """With every corpus requirement doubled, greedy misses some: it flags
    a result infeasible exactly when ``missed_guarantees`` names a miss,
    and exactly when some commodity carries less than R - check_tol."""
    flagged = 0
    for seed in range(200):
        spec = random_problem(np.random.default_rng(seed))
        comms = tuple(dataclasses.replace(c, R=2 * c.R) for c in spec.commodities)
        spec = ProblemSpec(spec.network, comms, spec.objective)
        rep = solve_greedy(spec)
        tol = spec.network.check_tol
        assert rep.feasible == (not missed_guarantees(spec, "GREEDY", rep.metrics))
        assert rep.feasible == all(
            m.throughput >= c.R - tol for c, m in zip(comms, rep.metrics)
        )
        flagged += not rep.feasible
    assert 0 < flagged < 200


def test_exact_tcdm_two_parallel(two_parallel):
    rep = solve_exact(make_tcdm(two_parallel, [("s", "t", 2.0, 1.0)]))
    assert rep.objective == pytest.approx(10.0)
    assert rep.metrics[0].throughput == pytest.approx(2.0)


def test_exact_dcum_two_parallel(two_parallel):
    rep = solve_exact(make_dcum(two_parallel, [("s", "t", 1.0, scaled_identity(1.0))]))
    assert rep.objective == pytest.approx(1.0)
    assert rep.metrics[0].max_delay <= 1.0


def test_exact_trims_to_requirement(two_parallel):
    # R=1 is met on the fast edge alone; surplus must be trimmed away
    rep = solve_exact(make_tcdm(two_parallel, [("s", "t", 1.0, 1.0)]))
    assert rep.objective == pytest.approx(1.0)
    assert rep.metrics[0].throughput == pytest.approx(1.0)


def test_exact_requires_integer_delays():
    net = Network(("s", "t"), (Edge(0, 1, 1.5, 1.0),))
    with pytest.raises(ValueError, match="integer delays required"):
        solve_exact(make_tcdm(net, [("s", "t", 1.0, 1.0)]))


def test_exact_infeasible_requirement(two_parallel):
    with pytest.raises(InfeasibleError):
        solve_exact(make_tcdm(two_parallel, [("s", "t", 3.0, 1.0)]))


def _lp_spy(monkeypatch, limit: int = 20) -> list:
    """Count the exact solver's LPs; the one past ``limit`` raises, so a
    search over every deadline vector fails fast."""
    calls = []
    solve = baselines.solve_lp

    def spy(lp):
        calls.append(lp)
        if len(calls) > limit:
            raise AssertionError(f"more than {limit} exact LPs")
        return solve(lp)

    monkeypatch.setattr(baselines, "solve_lp", spy)
    return calls


@pytest.mark.parametrize(
    "demand,message",
    [
        (
            ("VA", "SI", 320.0),
            "requirements of VA->SI total 320.0, above the capacity out of VA (317.0)",
        ),
        (("VA", "SI", 1000.0), "(317.0)"),
        # SI's out-capacity is 369, VA's in-capacity 317: short only at its sink.
        (
            ("SI", "VA", 320.0),
            "requirements of SI->VA total 320.0, above the capacity into VA (317.0)",
        ),
    ],
    ids=["out-of-VA-320", "out-of-VA-1000", "into-VA-320"],
)
def test_exact_rejects_a_requirement_above_its_ends_capacity_before_any_lp(
    monkeypatch, ec2, demand, message
):
    calls = _lp_spy(monkeypatch)
    spec = make_tcdm(ec2, [(*demand, 1.0), ("OR", "TO", 230.0, 1.0)])
    with pytest.raises(InfeasibleError, match=re.escape(message)):
        solve_exact(spec)
    assert not calls


@pytest.mark.parametrize(
    "demands,message",
    [
        (
            [("VA", "SI", 200.0), ("VA", "TO", 200.0)],
            "requirements of VA->SI, VA->TO total 400.0, above the capacity out of VA (317.0)",
        ),
        (
            [("VA", "SI", 200.0), ("OR", "SI", 200.0)],
            "requirements of VA->SI, OR->SI total 400.0, above the capacity into SI (369.0)",
        ),
        # SI->VA is also short alone, at its sink VA (320 > 317); sources are
        # checked first, so the shared source VA is named.
        (
            [("VA", "SI", 200.0), ("VA", "TO", 200.0), ("SI", "VA", 320.0)],
            "requirements of VA->SI, VA->TO total 400.0, above the capacity out of VA (317.0)",
        ),
    ],
    ids=["out-of-VA", "into-SI", "out-of-VA-before-into-VA"],
)
def test_exact_rejects_requirements_that_share_an_end_above_its_capacity_before_any_lp(
    monkeypatch, ec2, demands, message
):
    """Each R of 200 fits its own ends; two together do not fit the end
    they share."""
    calls = _lp_spy(monkeypatch)
    spec = make_tcdm(ec2, [(*d, 1.0) for d in demands])
    with pytest.raises(InfeasibleError, match=re.escape(message)):
        solve_exact(spec)
    assert not calls


def test_exact_pre_check_allows_what_a_shared_end_carries(monkeypatch, ec2):
    """R's that fill VA's out-capacity together pass the pre-check."""
    calls = _lp_spy(monkeypatch)
    comms = tuple(Commodity("VA", t, R=158.5, D=500.0) for t in ("SI", "TO"))
    rep = solve_exact(ProblemSpec(ec2, comms, Objective.SUM_THROUGHPUT_UTILITY))
    assert [m.throughput for m in rep.metrics] == pytest.approx([158.5, 158.5])
    assert len(calls) == 1


def test_exact_pre_check_allows_what_the_ends_carry(monkeypatch, ec2):
    """R up to VA's out-capacity passes the pre-check; the LP decides."""
    calls = _lp_spy(monkeypatch)
    assert ec2.out_capacity[ec2.index_of("VA")] == 317.0
    spec = ProblemSpec(
        ec2, (Commodity("VA", "SI", R=317.0, D=500.0),), Objective.SUM_THROUGHPUT_UTILITY
    )
    assert solve_exact(spec).metrics[0].throughput == pytest.approx(317.0)
    assert len(calls) == 1


def test_exact_search_past_its_budget_is_settled_by_the_cap_vector(monkeypatch, ec2):
    """Past ``DEADLINE_BUDGET`` popped vectors, the cap vector's LP, whose
    columns are every path, decides. These three commodities are short
    across a cut that is no endpoint's (h of the cap vector is about 253.1
    < 254.26), so every deadline vector is infeasible: InfeasibleError, not
    a solver failure after 62 x 57 x 57 vectors. A feasible spec still
    fails at the budget."""
    commodities = [("TO", "IR", 254.26), ("OR", "VA", 0.5), ("OR", "VA", 239.42)]
    doc = {
        "objective": "SumDelayPenalty",
        "commodities": [{"src": s, "dst": t, "R": r} for s, t, r in commodities],
    }
    monkeypatch.setattr(baselines, "DEADLINE_BUDGET", 100)
    with pytest.raises(InfeasibleError, match="throughput requirements cannot be met"):
        solve_exact(problem_from_json(doc, ec2))
    monkeypatch.setattr(baselines, "DEADLINE_BUDGET", 0)
    with pytest.raises(SolverError, match="deadline enumeration budget exceeded"):
        solve_exact(make_tcdm(ec2, [("VA", "SI", 100.0, 1.0)]))


def test_exact_inner_cut_is_settled_after_cap_check_pops(monkeypatch, ec2):
    """At the real ``DEADLINE_BUDGET``, the cap vector's LP after
    ``CAP_CHECK_POPS`` popped vectors settles the problem above, short
    across an inner cut: at most one LP per popped vector, plus the cap
    vector's."""
    assert baselines.CAP_CHECK_POPS == 256 < baselines.DEADLINE_BUDGET
    calls = _lp_spy(monkeypatch, limit=257)
    commodities = [("TO", "IR", 254.26), ("OR", "VA", 0.5), ("OR", "VA", 239.42)]
    doc = {
        "objective": "SumDelayPenalty",
        "commodities": [{"src": s, "dst": t, "R": r} for s, t, r in commodities],
    }
    with pytest.raises(InfeasibleError, match="throughput requirements cannot be met"):
        solve_exact(problem_from_json(doc, ec2))
    assert len(calls) == 257


def test_exact_commodity_without_timely_path(diamond):
    # s->t takes at least 2, so commodity 0 (D=1, R=0) has no path within
    # its deadline; commodity 1 (D=4) gets both 2- and 4-delay paths.
    rep = solve_exact(make_dcum(diamond, [("s", "t", 1.0, IDENTITY), ("s", "t", 4.0, IDENTITY)]))
    assert rep.solution.flows[0] == ()
    assert rep.metrics[0].throughput == 0.0
    assert rep.metrics[1].throughput == pytest.approx(10.0)
    assert rep.metrics[1].max_delay == 4.0
    assert rep.objective == pytest.approx(10.0)


def _simple_path_delays(net, s, t):
    """Sorted distinct delays of every simple s->t path."""
    s, t = net.index_of(s), net.index_of(t)
    return sorted(set(_enumerate_paths(net, s, t, math.inf).delays.tolist()))


def test_simple_path_delays(diamond):
    assert _simple_path_delays(diamond, "s", "t") == [2.0, 4.0, 9.0]
    assert _simple_path_delays(diamond, "t", "s") == []


def test_path_enumeration_stops_past_its_budget(monkeypatch):
    """Node count does not bind: a 13-node chain has one path. Path count
    does: the (budget+1)-th path raises, naming the pair and the cap."""
    n = 13
    chain = Network(
        tuple(f"n{i}" for i in range(n)), tuple(Edge(i, i + 1, 1.0, 1.0) for i in range(n - 1))
    )
    assert _simple_path_delays(chain, "n0", f"n{n - 1}") == [12.0]
    # s->t directly and through each of a, b, c: four paths.
    fan = Network(
        ("s", "a", "b", "c", "t"),
        tuple(Edge(0, v, 1.0, 1.0) for v in (1, 2, 3))
        + tuple(Edge(v, 4, 1.0, 1.0) for v in (1, 2, 3))
        + (Edge(0, 4, 3.0, 1.0),),
    )
    monkeypatch.setattr(baselines, "PATH_BUDGET", 4)
    assert _simple_path_delays(fan, "s", "t") == [2.0, 3.0]
    monkeypatch.setattr(baselines, "PATH_BUDGET", 3)
    with pytest.raises(SolverError, match=r"more than 3 simple s->t paths within delay inf"):
        _simple_path_delays(fan, "s", "t")


# -- large deadlines: every deadline is clamped to max_path_delay -------------


def _forbid_caps_past_bound(monkeypatch) -> list:
    """Make every path enumeration assert that its cap is at most
    ``net.max_path_delay`` before it starts; returns the list of (cap,
    path count) of the enumerations run."""
    ran = []
    enumerate_paths = baselines._enumerate_paths

    def bounded(net, s, t, cap):
        assert cap <= net.max_path_delay, f"unclamped cap {cap}"
        found = enumerate_paths(net, s, t, cap)
        ran.append((cap, len(found.paths)))
        return found

    monkeypatch.setattr(baselines, "_enumerate_paths", bounded)
    return ran


def test_exact_huge_deadline_on_a_dag_caches_clamped_graphs():
    # s->a->t (delay 3) and s->t (delay 4); the two largest delays sum to 6.
    net = Network(
        ("s", "a", "t"), (Edge(0, 1, 1.0, 1.0), Edge(1, 2, 2.0, 1.0), Edge(0, 2, 4.0, 2.0))
    )
    cache: dict = {}
    rep = solve_exact(make_dcum(net, [("s", "t", 1e308, IDENTITY)]), cache=cache)
    assert rep.objective == pytest.approx(3.0)
    assert [(ends, cap, ps.delays.tolist()) for ends, (cap, ps) in cache["paths"].items()] == [
        (("s", "t"), 6.0, [3.0, 4.0])
    ]
    assert net.max_path_delay == 6.0


def test_exact_huge_deadline_on_a_cycle_builds_a_small_graph(monkeypatch):
    # s<->a is a cycle; an unclamped deadline of 1e308 allows every walk.
    net = Network(
        ("s", "a", "t"),
        (Edge(0, 1, 1.0, 1.0), Edge(1, 0, 1.0, 1.0), Edge(1, 2, 2.0, 1.0), Edge(0, 2, 4.0, 2.0)),
    )
    ran = _forbid_caps_past_bound(monkeypatch)
    rep = solve_exact(make_dcum(net, [("s", "t", 1e308, IDENTITY), ("a", "t", 1e308, IDENTITY)]))
    assert rep.objective == pytest.approx(3.0)
    # s->t and s->a->t; a->t and a->s->t.
    assert ran == [(6.0, 2), (6.0, 2)]


def _two_way_chain(n: int) -> Network:
    """n0 <-> n1 <-> ... at delay 1 and capacity 1, plus n0 -> n{n-1} at
    delay 5 and capacity 2: two n0 -> n{n-1} paths, one back."""
    edges = [Edge(i, i + 1, 1.0, 1.0) for i in range(n - 1)]
    edges += [Edge(i + 1, i, 1.0, 1.0) for i in range(n - 1)]
    return Network(tuple(f"n{i}" for i in range(n)), tuple(edges) + (Edge(0, n - 1, 5.0, 2.0),))


def test_exact_throughput_past_the_enumeration_limit(monkeypatch):
    """A 13-node network with two n0->n12 paths solves: the path budget
    binds on paths, not on nodes."""
    net = _two_way_chain(13)
    ran = _forbid_caps_past_bound(monkeypatch)
    rep = solve_exact(make_dcum(net, [("n0", "n12", math.inf, IDENTITY)]))
    assert rep.objective == pytest.approx(3.0)
    assert ran == [(net.max_path_delay, 2)]


def test_exact_delay_objective_past_twelve_nodes_matches_oracle():
    """Delay objectives solve on a 13-node network too: its few paths fit
    the budget."""
    net = _two_way_chain(13)
    spec = make_tcdm(net, [("n0", "n12", 2.5, 1.0), ("n12", "n0", 1.0, 2.0)])
    rep = solve_exact(spec)
    # n0->n12 needs the chain beside the shortcut; n12->n0 has the chain only.
    assert rep.objective == _oracle_delay(spec) == 12.0 + 2 * 12.0
    assert rep.solution.check_feasible(net, spec.commodities) == []


def test_exact_cache_enumerates_again_only_for_a_larger_cap(monkeypatch, ec2):
    """A pair's paths within D=150 serve D=150 again; an infinite D, clamped
    to ``max_path_delay``, enumerates once more, and that list serves both
    D=150 and D=160 after it."""
    ran = _forbid_caps_past_bound(monkeypatch)
    cache: dict = {}
    for d in (150.0, 150.0, math.inf, 150.0, 160.0):
        spec = make_dcum(ec2, [("VA", "SI", d, IDENTITY)])
        want = solve_exact(spec).objective
        assert solve_exact(spec, cache=cache).objective == want
    caps = [cap for cap, _ in ran]
    # Each fresh solve enumerates once; the shared cache adds two caps.
    assert caps == [150.0, 150.0, 150.0, ec2.max_path_delay, ec2.max_path_delay, 150.0, 160.0]
    assert cache["paths"][("VA", "SI")][0] == ec2.max_path_delay


def test_max_path_delay_bounds_every_simple_path(ec2):
    for net in [ec2] + [random_problem(np.random.default_rng(seed)).network for seed in range(200)]:
        for s in net.nodes:
            for t in net.nodes:
                if s != t:
                    assert max(_simple_path_delays(net, s, t), default=0.0) <= net.max_path_delay


# -- independent oracle via full simple-path enumeration ---------------------


def _simple_paths(net, s, t):
    si, ti = net.index_of(s), net.index_of(t)
    out = []

    def rec(u, seen, edges):
        if u == ti:
            out.append(tuple(edges))
            return
        for k in net.out_edges[u]:
            v = net.edges[k].v
            if v not in seen:
                rec(v, seen | {v}, edges + [k])

    rec(si, {si}, [])
    return out


def _offsets(paths_per_comm):
    """Column offsets for per-commodity path-rate variables."""
    offsets = []
    nvars = 0
    for paths in paths_per_comm:
        offsets.append(nvars)
        nvars += len(paths)
    return offsets, nvars


def _oracle_throughput(spec):
    """Maximize the throughput objective over explicit path rates; None
    when no rates meet the requirements."""
    net = spec.network
    comms = spec.commodities
    paths = [
        [
            p
            for p in _simple_paths(net, c.source, c.sink)
            if sum(net.edges[k].delay for k in p) <= c.D
        ]
        for c in comms
    ]
    offsets, nvars = _offsets(paths)
    aux = [nvars + i for i in range(len(comms))]
    nvars += len(comms)
    bound = None
    if spec.objective is Objective.MIN_THROUGHPUT_UTILITY:
        bound = nvars
        nvars += 1
    a_ub, b_ub = [], []
    for k, e in enumerate(net.edges):
        row = np.zeros(nvars)
        for i, ps in enumerate(paths):
            for j, p in enumerate(ps):
                if k in p:
                    row[offsets[i] + j] = 1.0
        a_ub.append(row)
        b_ub.append(e.capacity)
    for i, c in enumerate(comms):
        if c.R > 0:
            row = np.zeros(nvars)
            for j in range(len(paths[i])):
                row[offsets[i] + j] = -1.0
            a_ub.append(row)
            b_ub.append(-c.R)
        for slope, intercept in c.utility_t.segments():
            row = np.zeros(nvars)
            row[aux[i]] = 1.0
            for j in range(len(paths[i])):
                row[offsets[i] + j] = -slope
            a_ub.append(row)
            b_ub.append(intercept)
        if bound is not None:
            row = np.zeros(nvars)
            row[bound] = 1.0
            row[aux[i]] = -1.0
            a_ub.append(row)
            b_ub.append(0.0)
    c_vec = np.zeros(nvars)
    if bound is None:
        for i in range(len(comms)):
            c_vec[aux[i]] = -1.0
    else:
        c_vec[bound] = -1.0
    res = linprog(c_vec, A_ub=np.array(a_ub), b_ub=np.array(b_ub), method="highs")
    if res.status == 2:
        return None
    assert res.status == 0
    return -res.fun


def _oracle_delay(spec):
    """Minimize the delay penalty: scan deadline vectors over achievable
    simple-path delays within D in order of penalty; first feasible vector
    wins. None when no vector is feasible."""
    net = spec.network
    comms = spec.commodities
    all_paths = [_simple_paths(net, c.source, c.sink) for c in comms]
    delays = [
        sorted({d for p in ps if (d := sum(net.edges[k].delay for k in p)) <= c.D})
        for c, ps in zip(comms, all_paths)
    ]
    combos = []
    for idx in itertools.product(*(range(len(d)) for d in delays)):
        vals = [
            c.utility_d.value(delays[i][idx[i]]) for i, c in enumerate(comms)
        ]
        v = (
            max(vals)
            if spec.objective is Objective.MAX_DELAY_PENALTY
            else sum(vals)
        )
        combos.append((v, idx))
    combos.sort()
    for v, idx in combos:
        paths = [
            [
                p
                for p in ps
                if sum(net.edges[k].delay for k in p) <= delays[i][idx[i]]
            ]
            for i, ps in enumerate(all_paths)
        ]
        offsets, nvars = _offsets(paths)
        a_ub, b_ub = [], []
        for k, e in enumerate(net.edges):
            row = np.zeros(nvars)
            for i, ps in enumerate(paths):
                for j, p in enumerate(ps):
                    if k in p:
                        row[offsets[i] + j] = 1.0
            a_ub.append(row)
            b_ub.append(e.capacity)
        feasible = True
        for i, c in enumerate(comms):
            if not paths[i] and c.R > 0:
                feasible = False
                break
            row = np.zeros(nvars)
            for j in range(len(paths[i])):
                row[offsets[i] + j] = -1.0
            a_ub.append(row)
            b_ub.append(-c.R)
        if not feasible:
            continue
        res = linprog(
            np.zeros(nvars), A_ub=np.array(a_ub), b_ub=np.array(b_ub), method="highs"
        )
        if res.status == 0:
            return v
    return None


@pytest.mark.parametrize("seed", range(40))
def test_exact_matches_path_enumeration_oracle(seed):
    rng = np.random.default_rng(10_000 + seed)
    spec = random_problem(rng, max_nodes=6, max_delay=6)
    rep = solve_exact(spec)
    if spec.objective.is_delay:
        want = _oracle_delay(spec)
        assert rep.objective == pytest.approx(want, abs=1e-6)
    else:
        want = _oracle_throughput(spec)
        assert rep.objective == pytest.approx(want, abs=1e-6)
    assert rep.solution.check_feasible(spec.network, spec.commodities, 1e-5) == []


_PENALTIES = (IDENTITY, scaled_identity(3.0), PLFunction(((0.0, 4.0), (2.0, 5.0), (4.0, 9.0))))
_UTILITIES = (IDENTITY, scaled_identity(2.0), PLFunction(((0.0, 0.0), (2.0, 4.0), (5.0, 7.0))))


@st.composite
def _small_specs(draw):
    """3-6 nodes on a ring n0 -> n1 -> ... -> n0, plus up to 10 more edges
    (parallel ones allowed), each of integer delay 0..6 and capacity 1..6;
    any objective; one or two commodities with a D of 1..12 or none, and an
    R of 1..3 (delay objectives) or 0..5. Zero delays and equal path delays
    are common, and nearly half of the specs are infeasible."""
    n = draw(st.integers(3, 6))
    ends = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    ring = [(u, (u + 1) % n) for u in range(n)]
    pairs = ring + draw(st.lists(ends, max_size=10))
    nodes = tuple(f"n{i}" for i in range(n))
    edges = tuple(
        Edge(u, v, float(draw(st.integers(0, 6))), float(draw(st.integers(1, 6))))
        for u, v in pairs
    )
    net = Network(nodes, edges)
    objective = draw(st.sampled_from(list(Objective)))
    comms = []
    for _ in range(draw(st.integers(1, 2))):
        s, t = draw(ends)
        d = draw(st.one_of(st.just(math.inf), st.integers(1, 12).map(float)))
        if objective.is_delay:
            r, fields = draw(st.integers(1, 3)), {"utility_d": draw(st.sampled_from(_PENALTIES))}
        else:
            r, fields = draw(st.integers(0, 5)), {"utility_t": draw(st.sampled_from(_UTILITIES))}
        comms.append(Commodity(nodes[s], nodes[t], R=float(r), D=d, **fields))
    return ProblemSpec(net, tuple(comms), objective)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_small_specs())
def test_exact_matches_oracles_on_small_generated_networks(spec):
    """EXACT equals the path-enumeration oracles within 1e-6, says
    infeasible exactly when they do, and its report verifies. Each
    endpoint pair's columns within a path delay are a prefix of its
    columns within ``max_path_delay``."""
    net = spec.network
    want = (_oracle_delay if spec.objective.is_delay else _oracle_throughput)(spec)
    try:
        rep = solve_exact(spec)
    except InfeasibleError:
        assert want is None
    else:
        assert rep.objective == pytest.approx(want, abs=1e-6)
        assert verify_report(report_to_json(spec, rep)) == []
    for c in spec.commodities:
        s, t = net.index_of(c.source), net.index_of(c.sink)
        every = baselines._enumerate_paths(net, s, t, net.max_path_delay)
        for d in np.unique(every.delays).tolist():
            got, enumerated = baselines._within(every, d), baselines._enumerate_paths(net, s, t, d)
            assert got.paths == enumerated.paths
            for name in ("delays", "edges", "owner"):
                assert getattr(got, name).tolist() == getattr(enumerated, name).tolist()


# -- pruned enumeration against the exhaustive one ---------------------------


def _hexed(path_flow):
    return [(p.edges, r.hex()) for p, r in path_flow]


# Hand cases for the pruned enumeration; ``random_problem`` draws no zero
# delays. Nodes s=0 .. t=3; each case gives its edges (u, v, delay), the
# deadline and the number of simple s->t paths within it.
_HAND_GRAPHS = {
    # s->a, then a<->b at zero delay, then a->t or b->t.
    "zero-delay cycle": ([(0, 1, 1), (1, 2, 0), (2, 1, 0), (1, 3, 1), (2, 3, 1)], 2, 2),
    # b is reached at 1 but needs 5 more; c never reaches t.
    "untimely branch": ([(0, 1, 1), (1, 3, 1), (0, 2, 1), (2, 3, 5), (0, 4, 1)], 3, 1),
    # the least delay from s to t is 2.
    "deadline below d(s)": ([(0, 1, 1), (1, 3, 1), (0, 3, 4)], 1, 0),
    # s->a->t and the walk s->a->s->a->t, of delay 5, meet deadline 5; only
    # the first is a simple path.
    "deadline equals a walk": ([(0, 1, 1), (1, 0, 2), (1, 3, 1), (2, 3, 1)], 5, 1),
}


@pytest.mark.parametrize("name", list(_HAND_GRAPHS))
def test_pruned_build_matches_reference_on_hand_graphs(name):
    """The pruned enumeration gives the exhaustive one's paths within the
    deadline, sorted by (delay, edges)."""
    edges, deadline, n_paths = _HAND_GRAPHS[name]
    net = Network(
        ("s", "a", "b", "t", "c"), tuple(Edge(u, v, float(d), 1.0) for u, v, d in edges)
    )
    want = sorted(
        (sum(net.edges[k].delay for k in p), p) for p in _simple_paths(net, "s", "t")
    )
    got = baselines._enumerate_paths(net, 0, 3, float(deadline))
    assert list(zip(got.delays.tolist(), (p.edges for p in got.paths))) == [
        (d, p) for d, p in want if d <= deadline
    ]
    assert len(got.paths) == n_paths


def _ec2_tcdm(net, pairs, r):
    return make_tcdm(net, [(s, t, r, 1.0) for s, t in pairs])


def _same_report(a, b) -> bool:
    return a.objective == b.objective and all(
        _hexed(fa) == _hexed(fb) for fa, fb in zip(a.solution.flows, b.solution.flows)
    )


def test_shared_exact_cache_keeps_endpoints_apart(ec2):
    """h cached for VA->SI, OR->TO says nothing about other endpoints; it
    used to settle (OR->VA, SI->IR) at R=60 as 158 against a true 222."""
    cache: dict = {}
    solve_exact(_ec2_tcdm(ec2, EC2_PAIRS, 230.0), cache=cache, deadline_cap=900.0)
    spec = _ec2_tcdm(ec2, [("OR", "VA"), ("SI", "IR")], 60.0)
    shared = solve_exact(spec, cache=cache, deadline_cap=900.0)
    fresh = solve_exact(spec, deadline_cap=900.0)
    assert fresh.objective == 222.0
    assert _same_report(shared, fresh)


def test_exact_cache_is_bound_to_one_network(ec2):
    """A cache filled on EC2 used to give 195 on EC2 with capacities / 4,
    whose optimum at R=50 is 395."""
    cache: dict = {}
    assert solve_exact(
        _ec2_tcdm(ec2, EC2_PAIRS, 50.0), cache=cache, deadline_cap=900.0
    ).objective == 195.0
    quarter = Network(
        ec2.nodes, tuple(Edge(e.u, e.v, e.delay, e.capacity / 4) for e in ec2.edges)
    )
    spec = _ec2_tcdm(quarter, EC2_PAIRS, 50.0)
    with pytest.raises(ValueError, match="another network"):
        solve_exact(spec, cache=cache, deadline_cap=900.0)
    assert solve_exact(spec, deadline_cap=900.0).objective == 395.0
    # An equal network built anew may share the cache.
    again = _ec2_tcdm(builtin_ec2(), EC2_PAIRS, 50.0)
    assert solve_exact(again, cache=cache, deadline_cap=900.0).objective == 195.0


def test_shared_exact_cache_matches_fresh_and_repeats_no_work(monkeypatch, ec2):
    """The tcdm-rate sweep gives the same reports with one shared cache as
    with a fresh cache per call, and the shared run solves no deadline
    vector's LP twice and enumerates each endpoint pair's paths once."""
    specs = [_ec2_tcdm(ec2, EC2_PAIRS, float(r)) for r in range(116, 240)]
    fresh = [solve_exact(spec, deadline_cap=900.0) for spec in specs]

    lp_keys, solved, ran = [], [], []
    build, solve = baselines.build_counterpart, baselines.solve_lp
    enumerate_paths = baselines._enumerate_paths

    def recorded_build(spec, sets, profile):
        # A deadline's columns are a prefix of its pair's paths.
        ends = tuple((c.source, c.sink) for c in spec.commodities)
        lp_keys.append((ends, tuple(len(ps.paths) for ps in sets), tuple(profile)))
        return build(spec, sets, profile)

    def recorded_solve(lp):
        solved.append(lp)
        return solve(lp)

    def recorded_enumerate(net, s, t, cap):
        ran.append((s, t))
        return enumerate_paths(net, s, t, cap)

    monkeypatch.setattr(baselines, "build_counterpart", recorded_build)
    monkeypatch.setattr(baselines, "solve_lp", recorded_solve)
    monkeypatch.setattr(baselines, "_enumerate_paths", recorded_enumerate)
    cache: dict = {}
    shared = [solve_exact(spec, cache=cache, deadline_cap=900.0) for spec in specs]

    assert all(_same_report(a, b) for a, b in zip(shared, fresh))
    assert len(solved) == len(set(lp_keys)) > 0
    assert sorted(ran) == sorted((ec2.index_of(s), ec2.index_of(t)) for s, t in EC2_PAIRS)


def test_exact_work_per_sweep_is_pinned(ec2_sweeps):
    """The exact LPs solved and simple-path enumerations run by each
    ``delayflow experiment`` sweep, with one shared cache per sweep."""
    assert {name: s.exact_lps for name, s in ec2_sweeps.items()} == {
        "tcdm-eps": 86, "tcdm-rate": 141, "dcum-eps": 1, "utility-weights": 100
    }
    assert {name: s.exact_enumerations for name, s in ec2_sweeps.items()} == {
        "tcdm-eps": 2, "tcdm-rate": 2, "dcum-eps": 2, "utility-weights": 2
    }
