"""Certificate properties over the seeded random corpus (see conftest)."""

import math


def _all(corpus, key):
    failures = [r.seed for r in corpus if key in r.checks and not r.checks[key]]
    assert not failures, f"{key} failed on seeds {failures}"
    assert any(key in r.checks for r in corpus), f"{key} never exercised"


def test_all_solutions_feasible(corpus):
    for name in ("pass", "pass-m", "pass-t", "greedy", "exact"):
        _all(corpus, f"feasible:{name}")


def test_deletion_inequality(corpus):
    _all(corpus, "lemma1")
    slacks = [s for r in corpus for s in r.lemma1_slacks]
    assert slacks
    assert min(slacks) >= -1e-6


def test_pass_certificates(corpus):
    _all(corpus, "pass:throughput")
    _all(corpus, "pass:delay")
    _all(corpus, "pass:ratio")


def test_pass_t_certificates(corpus):
    _all(corpus, "pass-t:throughput")
    _all(corpus, "pass-t:delay")
    _all(corpus, "pass-t:ratio")


def test_pass_m_certificates(corpus):
    _all(corpus, "pass-m:delay")
    _all(corpus, "pass-m:throughput")
    _all(corpus, "pass-m:ratio")


def test_greedy_properties(corpus):
    _all(corpus, "greedy:delay")
    _all(corpus, "greedy:bounded")
    # Flagged infeasible exactly when ``missed_guarantees`` names a miss, so
    # ``delayflow solve`` has a first miss to print. No corpus report is
    # flagged; test_baselines doubles the requirements to flag some.
    _all(corpus, "greedy:flag")


def test_corpus_covers_all_objectives(corpus):
    names = {r.objective.value for r in corpus}
    assert names == {
        "SumThroughputUtility",
        "SumDelayPenalty",
        "MinThroughputUtility",
        "MaxDelayPenalty",
    }
    # epsilon draws should spread across the allowed range
    eps = [r.epsilon for r in corpus]
    assert min(eps) < 0.15 and max(eps) > 0.8
    assert all(math.isfinite(e) for e in eps)
