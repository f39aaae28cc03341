"""Acceptance gate: the headline benchmark numbers on the builtin EC2
topology, plus the randomized certificate corpus. Each criterion prints one
PASS/FAIL line before asserting."""

import math

import pytest

from delayflow.algorithms import solve_pass, solve_pass_m, solve_pass_t
from delayflow.baselines import solve_exact, solve_greedy
from delayflow.cli import EC2_PAIRS, _utility_spec
from delayflow.graph import builtin_ec2
from delayflow.problem import IDENTITY, make_dcum, make_tcdm

EPS_GRID = [k / 100 for k in range(1, 100)]


def _announce(n: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} — {detail}")


@pytest.fixture(scope="module")
def net():
    return builtin_ec2()


def test_acceptance_1_rate_sweep_averages(net):
    sums = {"greedy": 0.0, "exact": 0.0, "pass": 0.0}
    cache: dict = {}
    rates = range(116, 240)
    for r in rates:
        spec = make_tcdm(net, [(s, t, float(r), 1.0) for s, t in EC2_PAIRS])
        sums["greedy"] += solve_greedy(spec).objective
        sums["exact"] += solve_exact(spec, cache=cache, deadline_cap=900.0).objective
        sums["pass"] += solve_pass(spec, 0.03).objective
    avg = {k: v / len(rates) for k, v in sums.items()}
    targets = {"greedy": 402.0, "exact": 362.0, "pass": 359.0}
    ok = all(abs(avg[k] - t) <= 0.05 * t for k, t in targets.items())
    _announce(
        1,
        ok,
        "rate-sweep averages "
        + ", ".join(f"{k}={avg[k]:.1f} (target {t}±5%)" for k, t in targets.items()),
    )
    for k, t in targets.items():
        assert abs(avg[k] - t) <= 0.05 * t, f"{k} average {avg[k]:.2f} vs {t}±5%"


def test_acceptance_2_epsilon_sweep(net):
    spec = make_tcdm(net, [(s, t, 230.0, 1.0) for s, t in EC2_PAIRS])
    exact = solve_exact(spec, deadline_cap=900.0).objective
    pt = solve_pass_t(spec).objective
    greedy = solve_greedy(spec).objective
    pass_objs = [solve_pass(spec, eps).objective for eps in EPS_GRID]

    pt_optimal = abs(pt - exact) <= 1e-6 * max(1.0, abs(exact))
    greedy_worse = greedy > exact + 1e-6
    staircase = all(a >= b - 1e-6 for a, b in zip(pass_objs, pass_objs[1:]))
    ok = pt_optimal and greedy_worse and staircase
    _announce(
        2,
        ok,
        f"no-deletion obj {pt:.1f} vs optimum {exact:.1f} "
        f"(equal: {pt_optimal}), greedy {greedy:.1f} strictly worse: "
        f"{greedy_worse}, epsilon staircase non-increasing: {staircase}",
    )
    assert greedy_worse
    assert staircase
    assert pt_optimal, (
        f"no-deletion solver returns {pt}, optimum is {exact}: the counterpart "
        "optimum at R=230 does not decompose within the optimal deadline pair"
    )


def test_acceptance_3_delay_bound_sweep(net):
    spec = make_dcum(net, [(s, t, 150.0, IDENTITY) for s, t in EC2_PAIRS])
    exact = solve_exact(spec)
    greedy = solve_greedy(spec)
    pm = solve_pass_m(spec)
    p01 = solve_pass(spec, 0.01)

    opt = exact.objective
    greedy_opt = abs(greedy.objective - opt) <= 0.03 * opt
    pm_opt = abs(pm.objective - opt) <= 0.03 * opt
    pm_delay = all(m.max_delay <= 150.0 + 1e-9 for m in pm.metrics)
    greedy_delay = all(m.max_delay <= 150.0 + 1e-9 for m in greedy.metrics)
    p01_ratio = p01.objective >= 1.9 * opt - 1e-9
    p01_delay = max(m.max_delay for m in p01.metrics) <= 331.0 + 1e-9
    late_ok = True
    for eps in [e for e in EPS_GRID if e >= 0.51]:
        rep = solve_pass(spec, eps)
        late_ok &= all(m.max_delay <= 150.0 + 1e-9 for m in rep.metrics)
    ok = all(
        (greedy_opt, pm_opt, pm_delay, greedy_delay, p01_ratio, p01_delay, late_ok)
    )
    _announce(
        3,
        ok,
        f"optimum {opt:.1f}; greedy {greedy.objective:.1f}, whole-path deletion "
        f"{pm.objective:.1f} (both within 3%, delays bounded: "
        f"{pm_delay and greedy_delay}); eps=1% throughput "
        f"{p01.objective:.1f} >= 1.9x: {p01_ratio}, max delay "
        f"{max(m.max_delay for m in p01.metrics):.1f} <= 331: {p01_delay}; "
        f"eps>=51% meets delay bounds: {late_ok}",
    )
    assert greedy_opt and pm_opt
    assert pm_delay and greedy_delay
    assert p01_ratio and p01_delay
    assert late_ok


def test_acceptance_4_utility_weights(net):
    pass_min_thr = math.inf
    pt_min_thr = math.inf
    pm_delays_ok = True
    ratio_pass = []
    ratio_pt = []
    for w1 in range(1, 11):
        for w2 in range(1, 11):
            spec = _utility_spec(net, float(w1), float(w2))
            exact = solve_exact(spec)
            p = solve_pass(spec, 0.03)
            pt = solve_pass_t(spec)
            pm = solve_pass_m(spec)
            pass_min_thr = min(pass_min_thr, min(m.throughput for m in p.metrics))
            pt_min_thr = min(pt_min_thr, min(m.throughput for m in pt.metrics))
            pm_delays_ok &= all(m.max_delay <= 150.0 + 1e-9 for m in pm.metrics)
            ratio_pass.append(p.objective / exact.objective)
            ratio_pt.append(pt.objective / exact.objective)
    mean_pass = sum(ratio_pass) / len(ratio_pass)
    mean_pt = sum(ratio_pt) / len(ratio_pt)

    pass_thr_ok = pass_min_thr >= 80.0 - 1e-6
    pt_thr_ok = pt_min_thr >= 80.0 - 1e-6
    gains_ok = mean_pass >= 1.5 and mean_pt >= 1.5
    ok = pass_thr_ok and pt_thr_ok and gains_ok and pm_delays_ok
    _announce(
        4,
        ok,
        f"min per-commodity throughput: eps-deletion {pass_min_thr:.1f} "
        f">= 80: {pass_thr_ok}, no-deletion {pt_min_thr:.1f} >= 80: "
        f"{pt_thr_ok}; mean utility ratios {mean_pass:.2f}/{mean_pt:.2f} "
        f">= 1.5: {gains_ok}; whole-path deletion delay bounds: {pm_delays_ok}",
    )
    assert pt_thr_ok
    assert gains_ok
    assert pm_delays_ok
    assert pass_thr_ok, (
        f"min throughput after 3% deletion is {pass_min_thr:.2f}: every "
        "counterpart optimum pins the low-weight commodity at its requirement, "
        "so deletion necessarily dips below it (the guarantee is (1-eps)R)"
    )


def test_acceptance_5_certificate_corpus(corpus):
    failed = {
        key: [r.seed for r in corpus if key in r.checks and not r.checks[key]]
        for key in sorted({k for r in corpus for k in r.checks})
    }
    failed = {k: v for k, v in failed.items() if v}
    ok = not failed
    _announce(
        5,
        ok,
        f"{len(corpus)} random instances, all certificates hold: {ok}"
        + (f" (failures: {failed})" if failed else ""),
    )
    assert ok, failed
