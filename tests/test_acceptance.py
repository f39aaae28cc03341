"""Acceptance gate: the headline benchmark numbers of the four
``delayflow experiment`` sweeps on the builtin EC2 topology, read from the
reports those sweeps wrote, plus the randomized certificate corpus. Each
criterion prints one PASS/FAIL line before asserting."""


def _announce(n: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} — {detail}")


def _reports(sweep, algo: str) -> list:
    """The reports of ``algo`` in a sweep, in row order."""
    return [rep for _, _, rep in sweep.rows if rep.algorithm == algo]


def test_acceptance_1_rate_sweep_averages(ec2_sweeps):
    sweep = ec2_sweeps["tcdm-rate"]  # one report per rate and algorithm
    reports = {k: _reports(sweep, k.upper()) for k in ("greedy", "exact", "pass")}
    avg = {k: sum(rep.objective for rep in v) / len(v) for k, v in reports.items()}
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


def test_acceptance_2_epsilon_sweep(ec2_sweeps):
    sweep = ec2_sweeps["tcdm-eps"]
    exact, pt, greedy = (
        _reports(sweep, algo)[0].objective for algo in ("EXACT", "PASS-T", "GREEDY")
    )
    pass_objs = [rep.objective for rep in _reports(sweep, "PASS")]

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


def test_acceptance_3_delay_bound_sweep(ec2_sweeps):
    sweep = ec2_sweeps["dcum-eps"]
    exact, greedy, pm = (_reports(sweep, a)[0] for a in ("EXACT", "GREEDY", "PASS-M"))
    pass_reports = _reports(sweep, "PASS")
    p01 = next(rep for rep in pass_reports if rep.epsilon == 0.01)

    opt = exact.objective
    greedy_opt = abs(greedy.objective - opt) <= 0.03 * opt
    pm_opt = abs(pm.objective - opt) <= 0.03 * opt
    pm_delay = all(m.max_delay <= 150.0 + 1e-9 for m in pm.metrics)
    greedy_delay = all(m.max_delay <= 150.0 + 1e-9 for m in greedy.metrics)
    p01_ratio = p01.objective >= 1.9 * opt - 1e-9
    p01_delay = max(m.max_delay for m in p01.metrics) <= 331.0 + 1e-9
    late = [rep for rep in pass_reports if rep.epsilon >= 0.51]
    late_ok = all(m.max_delay <= 150.0 + 1e-9 for rep in late for m in rep.metrics)
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


def test_acceptance_4_utility_weights(ec2_sweeps):
    sweep = ec2_sweeps["utility-weights"]
    exact, p, pt, pm = (_reports(sweep, a) for a in ("EXACT", "PASS", "PASS-T", "PASS-M"))
    pass_min_thr = min(m.throughput for rep in p for m in rep.metrics)
    pt_min_thr = min(m.throughput for rep in pt for m in rep.metrics)
    pm_delays_ok = all(m.max_delay <= 150.0 + 1e-9 for rep in pm for m in rep.metrics)
    ratio_pass = [a.objective / b.objective for a, b in zip(p, exact)]
    ratio_pt = [a.objective / b.objective for a, b in zip(pt, exact)]
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
