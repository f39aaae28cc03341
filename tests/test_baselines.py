import dataclasses
import itertools
import math
import re

import numpy as np
import pytest
from scipy.optimize import linprog

from delayflow import baselines
from delayflow.baselines import (
    _TimeExpanded,
    simple_path_delays,
    solve_exact,
    solve_greedy,
)
from delayflow.algorithms import InfeasibleError, missed_guarantees
from delayflow.cli import EC2_PAIRS
from delayflow.gen import random_problem
from delayflow.graph import Edge, Network, Path, builtin_ec2
from delayflow.problem import (
    IDENTITY,
    Commodity,
    Objective,
    ProblemSpec,
    make_dcum,
    make_tcdm,
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


def _lp_spy(monkeypatch) -> list:
    """Count the exact solver's LPs; the 21st raises, so a search over
    every deadline vector fails fast."""
    calls = []
    solve = baselines.solve_lp

    def spy(lp):
        calls.append(lp)
        if len(calls) > 20:
            raise AssertionError("more than 20 exact LPs")
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


def test_exact_commodity_without_timely_path(diamond):
    # s->t takes at least 2, so commodity 0 (D=1, R=0) has no source in its
    # time-expanded graph; commodity 1 (D=4) gets both 2- and 4-delay paths.
    rep = solve_exact(make_dcum(diamond, [("s", "t", 1.0, IDENTITY), ("s", "t", 4.0, IDENTITY)]))
    assert rep.solution.flows[0] == ()
    assert rep.metrics[0].throughput == 0.0
    assert rep.metrics[1].throughput == pytest.approx(10.0)
    assert rep.metrics[1].max_delay == 4.0
    assert rep.objective == pytest.approx(10.0)


def test_simple_path_delays(diamond):
    assert simple_path_delays(diamond, "s", "t") == [2.0, 4.0, 9.0]
    assert simple_path_delays(diamond, "t", "s") == []


def test_simple_path_delays_node_limit():
    n = 13
    nodes = tuple(f"n{i}" for i in range(n))
    edges = tuple(Edge(i, i + 1, 1.0, 1.0) for i in range(n - 1))
    with pytest.raises(ValueError, match="enumeration limited"):
        simple_path_delays(Network(nodes, edges), "n0", f"n{n - 1}")


# -- large deadlines: every deadline is clamped to max_path_delay -------------


def _forbid_graphs_past_bound(monkeypatch) -> list:
    """Make every time-expanded build assert that its deadline is at most
    ``net.max_path_delay`` before it allocates anything; returns the list
    of (deadline, arc count) of the graphs built."""
    built = []

    class Bounded(baselines._TimeExpanded):
        def __init__(self, net, s, t, deadline):
            assert deadline <= net.max_path_delay, f"unclamped deadline {deadline}"
            super().__init__(net, s, t, deadline)
            built.append((deadline, len(self.edge_of)))

    monkeypatch.setattr(baselines, "_TimeExpanded", Bounded)
    return built


def test_exact_huge_deadline_on_a_dag_caches_clamped_graphs():
    # s->a->t (delay 3) and s->t (delay 4); the two largest delays sum to 6.
    net = Network(
        ("s", "a", "t"), (Edge(0, 1, 1.0, 1.0), Edge(1, 2, 2.0, 1.0), Edge(0, 2, 4.0, 2.0))
    )
    cache: dict = {}
    rep = solve_exact(make_dcum(net, [("s", "t", 1e308, IDENTITY)]), cache=cache)
    assert rep.objective == pytest.approx(3.0)
    assert [key[2] for key in cache["graphs"]] == [6.0]
    assert net.max_path_delay == 6.0


def test_exact_huge_deadline_on_a_cycle_builds_a_small_graph(monkeypatch):
    # s<->a is a cycle; an unclamped deadline of 1e308 unrolls it forever.
    net = Network(
        ("s", "a", "t"),
        (Edge(0, 1, 1.0, 1.0), Edge(1, 0, 1.0, 1.0), Edge(1, 2, 2.0, 1.0), Edge(0, 2, 4.0, 2.0)),
    )
    built = _forbid_graphs_past_bound(monkeypatch)
    rep = solve_exact(make_dcum(net, [("s", "t", 1e308, IDENTITY), ("a", "t", 1e308, IDENTITY)]))
    assert rep.objective == pytest.approx(3.0)
    assert built == [(6.0, 7), (6.0, 8)]


def test_exact_throughput_past_the_enumeration_limit(monkeypatch):
    """A throughput objective with infinite D needs no simple-path delays,
    so the 12-node enumeration limit does not bind."""
    n = 13
    edges = [Edge(i, i + 1, 1.0, 1.0) for i in range(n - 1)]
    edges += [Edge(i + 1, i, 1.0, 1.0) for i in range(n - 1)]
    net = Network(tuple(f"n{i}" for i in range(n)), tuple(edges) + (Edge(0, n - 1, 5.0, 2.0),))
    built = _forbid_graphs_past_bound(monkeypatch)
    rep = solve_exact(make_dcum(net, [("n0", f"n{n - 1}", math.inf, IDENTITY)]))
    assert rep.objective == pytest.approx(3.0)
    assert [deadline for deadline, _ in built] == [net.max_path_delay]


def test_max_path_delay_bounds_every_simple_path(ec2):
    for net in [ec2] + [random_problem(np.random.default_rng(seed)).network for seed in range(200)]:
        for s in net.nodes:
            for t in net.nodes:
                if s != t:
                    assert max(simple_path_delays(net, s, t), default=0.0) <= net.max_path_delay


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
    """Maximize the throughput objective over explicit path rates."""
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
    assert res.status == 0
    return -res.fun


def _oracle_delay(spec):
    """Minimize the delay penalty: scan deadline vectors over achievable
    simple-path delays in order of penalty; first feasible vector wins."""
    net = spec.network
    comms = spec.commodities
    all_paths = [_simple_paths(net, c.source, c.sink) for c in comms]
    delays = [
        sorted({sum(net.edges[k].delay for k in p) for p in ps}) for ps in all_paths
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
    raise AssertionError("oracle found no feasible deadline vector")


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


# -- time-expanded extraction against the pre-refactor code -------------------


class _ReferenceTimeExpanded:
    """The time-expanded graph as first written: states (v, tau) with one
    state per sink arrival time, pruned by repeated sweeps over the arcs."""

    def __init__(self, net, s, t, deadline):
        self.s = s
        self.t = t
        reach = {(s, 0.0)}
        frontier = [(s, 0.0)]
        while frontier:
            u, tau = frontier.pop()
            if u == t:
                continue
            for k in net.out_edges[u]:
                e = net.edges[k]
                nxt = (e.v, tau + e.delay)
                if nxt[1] <= deadline and nxt not in reach:
                    reach.add(nxt)
                    frontier.append(nxt)
        useful = {st for st in reach if st[0] == t}
        arcs_all = []
        for u, tau in reach:
            if u == t:
                continue
            for k in net.out_edges[u]:
                e = net.edges[k]
                nxt = (e.v, tau + e.delay)
                if nxt in reach:
                    arcs_all.append(((u, tau), k, nxt))
        changed = True
        while changed:
            changed = False
            for src, _, dst in arcs_all:
                if dst in useful and src not in useful:
                    useful.add(src)
                    changed = True
        self.arcs = sorted(
            (a for a in arcs_all if a[0] in useful and a[2] in useful),
            key=lambda a: (a[0], a[1]),
        )
        self.feasible = (s, 0.0) in useful


def _reference_simplify_walk(net, edges):
    """The walk simplifier as first written: cut the first cycle that
    closes, then rescan the walk from its start."""
    while True:
        seq = [net.edges[edges[0]].u] + [net.edges[k].v for k in edges]
        seen = {}
        cut = None
        for pos, v in enumerate(seq):
            if v in seen:
                cut = (seen[v], pos)
                break
            seen[v] = pos
        if cut is None:
            return edges
        a, b = cut
        edges = edges[:a] + edges[b:]


def _reference_extract_paths(net, te, arc_flow):
    """The exact solver's path extraction before it shared ``decompose``'s
    loop, including the dust branch that dropped tiny stranded walks."""
    zero = net.zero_tol
    x = arc_flow.copy()
    out_arcs = {}
    for j, (src, _, _) in enumerate(te.arcs):
        out_arcs.setdefault(src, []).append(j)
    source = (te.s, 0.0)
    raw = {}
    while True:
        avail = [j for j in out_arcs.get(source, []) if x[j] > zero]
        if not avail:
            break
        edges = []
        st = source
        seen = {st}
        stranded = False
        while st[0] != te.t:
            nxt = -1
            for j in out_arcs.get(st, []):
                if x[j] > zero:
                    nxt = j
                    break
            if nxt < 0:
                dust = min(x[j] for j in edges)
                if dust > 1e-6:
                    raise RuntimeError("stranded time-expanded flow")
                for j in edges:
                    x[j] = max(0.0, x[j] - dust)
                    if x[j] < zero:
                        x[j] = 0.0
                stranded = True
                break
            edges.append(nxt)
            st = te.arcs[nxt][2]
            if st in seen:
                raise RuntimeError("zero-delay cycle in time-expanded flow")
            seen.add(st)
        if stranded:
            continue
        bottleneck = min(x[j] for j in edges)
        for j in edges:
            x[j] -= bottleneck
            if x[j] < zero:
                x[j] = 0.0
        phys = _reference_simplify_walk(net, [te.arcs[j][1] for j in edges])
        if bottleneck > zero and phys:
            raw[tuple(phys)] = raw.get(tuple(phys), 0.0) + bottleneck
    return [(Path(p), r) for p, r in sorted(raw.items())]


def _hexed(path_flow):
    return [(p.edges, r.hex()) for p, r in path_flow]


def _assert_graph_matches_reference(te, net, s, t, deadline):
    """``te`` has the reference graph's arcs in the same order (sink states
    merged into one node), and a source exactly when the reference has one.
    Returns the reference graph."""
    ref = _ReferenceTimeExpanded(net, s, t, deadline)
    tail = {j: u for u, outs in enumerate(te.out_edges) for j in outs}
    assert [
        (te.nodes[tail[j]], k, te.nodes[v])
        for j, (k, v) in enumerate(zip(te.edge_of, te.heads))
    ] == [(a, k, (t, None) if b[0] == t else b) for a, k, b in ref.arcs]
    assert (te.source is not None) == ref.feasible
    return ref


def _check_extractions_against_reference(monkeypatch, solve_all):
    """Run ``solve_all`` with every time-expanded graph and extraction
    recorded, then rebuild each graph and its paths with the reference
    code: same arcs in the same order (sink states merged into one node)
    and bit-identical path lists. Returns the number of extractions."""
    records = []
    extract = baselines._extract_paths

    class Recorded(baselines._TimeExpanded):
        def __init__(self, net, s, t, deadline):
            super().__init__(net, s, t, deadline)
            self.args = (net, s, t, deadline)

    def recorded_extract(net, te, arc_flow):
        flow = arc_flow.copy()
        paths = extract(net, te, arc_flow)
        records.append((te, flow, paths))
        return paths

    monkeypatch.setattr(baselines, "_TimeExpanded", Recorded)
    monkeypatch.setattr(baselines, "_extract_paths", recorded_extract)
    solve_all()
    for te, flow, paths in records:
        ref = _assert_graph_matches_reference(te, *te.args)
        net = te.args[0]
        assert _hexed(paths) == _hexed(_reference_extract_paths(net, ref, flow))
    return len(records)


# Hand cases for the pruned build; ``random_problem`` draws no zero delays.
# Nodes s=0 .. t=3; each case gives its edges (u, v, delay), the deadline
# and the number of arcs the pruned graph keeps.
_HAND_GRAPHS = {
    # s->a, then a<->b at zero delay, then a->t or b->t.
    "zero-delay cycle": ([(0, 1, 1), (1, 2, 0), (2, 1, 0), (1, 3, 1), (2, 3, 1)], 2, 5),
    # b is reached at 1 but needs 5 more; c never reaches t.
    "untimely branch": ([(0, 1, 1), (1, 3, 1), (0, 2, 1), (2, 3, 5), (0, 4, 1)], 3, 2),
    # the least delay from s to t is 2.
    "deadline below d(s)": ([(0, 1, 1), (1, 3, 1), (0, 3, 4)], 1, 0),
    # s->a->t and the walk s->a->s->a->t, of delay 5, meet deadline 5.
    "deadline equals a walk": ([(0, 1, 1), (1, 0, 2), (1, 3, 1), (2, 3, 1)], 5, 5),
}


@pytest.mark.parametrize("name", list(_HAND_GRAPHS))
def test_pruned_build_matches_reference_on_hand_graphs(name):
    edges, deadline, n_arcs = _HAND_GRAPHS[name]
    net = Network(
        ("s", "a", "b", "t", "c"), tuple(Edge(u, v, float(d), 1.0) for u, v, d in edges)
    )
    te = _TimeExpanded(net, 0, 3, float(deadline))
    _assert_graph_matches_reference(te, net, 0, 3, float(deadline))
    assert len(te.edge_of) == n_arcs
    assert (te.source is None) == (n_arcs == 0)


def test_simplify_walk_matches_reference_on_random_walks():
    rng = np.random.default_rng(7)
    walks = 0
    for _ in range(300):
        n = int(rng.integers(2, 7))
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        keep = rng.random(len(pairs)) < 0.6
        net = Network(
            tuple(f"n{i}" for i in range(n)),
            tuple(Edge(u, v, 1.0, 1.0) for (u, v), k in zip(pairs, keep) if k),
        )
        for _ in range(10):
            start = u = int(rng.integers(n))
            walk = []
            for _ in range(int(rng.integers(1, 25))):
                if not net.out_edges[u]:
                    break
                k = int(rng.choice(net.out_edges[u]))
                walk.append(k)
                u = net.edges[k].v
            if u != start:  # an open walk, as a source-to-sink walk is
                walks += 1
                assert baselines._simplify_walk(net, walk) == _reference_simplify_walk(
                    net, walk
                )
    assert walks > 1000


def test_extraction_matches_reference_on_corpus(monkeypatch):
    def solve_all():
        for seed in range(200):
            solve_exact(random_problem(np.random.default_rng(seed)))

    assert _check_extractions_against_reference(monkeypatch, solve_all) >= 200


def test_extraction_matches_reference_on_ec2_sweeps(monkeypatch, ec2_sweep_specs):
    def solve_all():
        cache: dict = {}
        for spec in ec2_sweep_specs:
            solve_exact(spec, cache=cache, deadline_cap=900.0)

    count = _check_extractions_against_reference(monkeypatch, solve_all)
    assert count >= 2 * len(ec2_sweep_specs)


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
    vector's LP and builds no time-expanded graph twice."""
    specs = [_ec2_tcdm(ec2, EC2_PAIRS, float(r)) for r in range(116, 240)]
    fresh = [solve_exact(spec, deadline_cap=900.0) for spec in specs]

    lp_keys, solved, built = [], [], []
    exact_lp, solve = baselines._exact_lp, baselines.solve_lp

    def recorded_exact_lp(spec, deadlines, profile, graphs):
        ends = tuple((c.source, c.sink) for c in spec.commodities)
        lp_keys.append((ends, tuple(deadlines), tuple(profile)))
        return exact_lp(spec, deadlines, profile, graphs)

    def recorded_solve(lp):
        solved.append(lp)
        return solve(lp)

    class Recorded(baselines._TimeExpanded):
        def __init__(self, net, s, t, deadline):
            built.append((s, t, deadline))
            super().__init__(net, s, t, deadline)

    monkeypatch.setattr(baselines, "_exact_lp", recorded_exact_lp)
    monkeypatch.setattr(baselines, "solve_lp", recorded_solve)
    monkeypatch.setattr(baselines, "_TimeExpanded", Recorded)
    cache: dict = {}
    shared = [solve_exact(spec, cache=cache, deadline_cap=900.0) for spec in specs]

    assert all(_same_report(a, b) for a, b in zip(shared, fresh))
    assert len(solved) == len(set(lp_keys)) > 0
    assert len(built) == len(set(built)) > 0


def test_exact_work_per_sweep_is_pinned(ec2_sweeps):
    """The exact LPs solved and time-expanded graphs built by each
    ``delayflow experiment`` sweep, with one shared cache per sweep."""
    assert {name: s.exact_lps for name, s in ec2_sweeps.items()} == {
        "tcdm-eps": 86, "tcdm-rate": 141, "dcum-eps": 1, "utility-weights": 100
    }
    assert {name: s.exact_graphs for name, s in ec2_sweeps.items()} == {
        "tcdm-eps": 34, "tcdm-rate": 50, "dcum-eps": 2, "utility-weights": 2
    }
