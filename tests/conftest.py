"""Shared fixtures: tiny hand networks, the EC2 topology, its four
``delayflow experiment`` sweeps run once, and the seeded random corpus used
by both the property suite and the acceptance gate."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np
import pytest

from delayflow import algorithms, baselines, lp
from delayflow.algorithms import (
    check_lemma1,
    compute_lambda,
    missed_guarantees,
    solve_pass,
    solve_pass_m,
    solve_pass_t,
)
from delayflow.baselines import solve_exact, solve_greedy
from delayflow.cli import EXPERIMENTS, run_experiment
from delayflow.gen import random_problem
from delayflow.graph import Edge, Network, builtin_ec2
from delayflow.problem import Objective, evaluate_metrics

CORPUS_SIZE = 200
TOL = 1e-6


@pytest.fixture(scope="session")
def ec2():
    return builtin_ec2()


@dataclass
class Sweep:
    """One ``delayflow experiment`` sweep: its CSV text, its (params, spec,
    report) rows in row order, the LP of every HiGHS call it made, the spec
    of every counterpart LP the PASS family built, how many LPs the exact
    solver solved and simple-path enumerations it ran, and the
    ``lp.tableau_cells`` of the largest LP, counterpart or exact, it built."""

    text: str = field(repr=False)
    rows: list = field(repr=False)
    highs_calls: list
    counterpart_specs: list = field(repr=False)
    exact_lps: int
    exact_enumerations: int
    largest_lp: int


@pytest.fixture(scope="session")
def ec2_sweeps():
    """Each ``delayflow experiment`` sweep, run once per session."""
    sweeps = {}
    calls: list = []
    built: list = []
    exact_lps: list = []
    enumerations: list = []
    cells: list = []
    real = lp._solve_highs
    build = algorithms.build_counterpart
    solve = baselines.solve_lp
    enumerate_paths = baselines._enumerate_paths

    def build_counterpart(spec):
        built.append(spec)
        prog, cmap = build(spec)
        cells.append(lp.tableau_cells(prog))
        return prog, cmap

    def solve_exact_lp(prog):
        exact_lps.append(prog)
        cells.append(lp.tableau_cells(prog))
        return solve(prog)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp, "_solve_highs", lambda prog: calls.append(prog) or real(prog))
        mp.setattr(algorithms, "build_counterpart", build_counterpart)
        mp.setattr(baselines, "solve_lp", solve_exact_lp)
        mp.setattr(
            baselines,
            "_enumerate_paths",
            lambda *a: enumerations.append(a) or enumerate_paths(*a),
        )
        for name in EXPERIMENTS:
            buf = io.StringIO()
            rows = run_experiment(name, csv.writer(buf))
            sweeps[name] = Sweep(
                buf.getvalue(), rows, calls[:], built[:], len(exact_lps), len(enumerations),
                max(cells),
            )
            for seen in (calls, built, exact_lps, enumerations, cells):
                seen.clear()
    return sweeps


@pytest.fixture(scope="session")
def ec2_sweep_specs(ec2_sweeps):
    """The distinct specs of the four sweeps, in run order."""
    specs = {id(spec): spec for s in ec2_sweeps.values() for _, spec, _ in s.rows}
    return list(specs.values())


@pytest.fixture
def two_parallel():
    """s->t twice: a fast thin edge (d=1, c=1) and a slow thin edge
    (d=10, c=1)."""
    return Network(("s", "t"), (Edge(0, 1, 1.0, 1.0), Edge(0, 1, 10.0, 1.0)))


@pytest.fixture
def diamond():
    """s -> {a, b} -> t with distinct delays, plus a direct long edge."""
    return Network(
        ("s", "a", "b", "t"),
        (
            Edge(0, 1, 1.0, 5.0),
            Edge(0, 2, 2.0, 5.0),
            Edge(1, 3, 1.0, 5.0),
            Edge(2, 3, 2.0, 5.0),
            Edge(0, 3, 9.0, 5.0),
        ),
    )


@dataclass
class CorpusRecord:
    seed: int
    objective: Objective
    epsilon: float
    # check name -> True/False; missing key means not applicable
    checks: dict = field(default_factory=dict)
    lemma1_slacks: list = field(default_factory=list)


def _sum_objective(obj: Objective) -> bool:
    return obj.combine is sum


def run_corpus_instance(seed: int) -> CorpusRecord:
    rng = np.random.default_rng(seed)
    spec = random_problem(rng)
    eps = float(rng.uniform(0.05, 0.9))
    rec = CorpusRecord(seed, spec.objective, eps)
    net = spec.network
    comms = spec.commodities
    scale = max(1.0, max(c.R for c in comms), max(e.capacity for e in net.edges))
    tol = TOL * scale

    exact = solve_exact(spec)
    p = solve_pass(spec, eps)
    pt = solve_pass_t(spec)
    g = solve_greedy(spec)
    runs = {"pass": p, "pass-t": pt, "greedy": g, "exact": exact}
    pm = None
    if all(math.isfinite(c.D) for c in comms):
        pm = solve_pass_m(spec)
        runs["pass-m"] = pm

    for name, rep in runs.items():
        sols = [rep.solution] + ([rep.counterpart] if rep.counterpart else [])
        rec.checks[f"feasible:{name}"] = all(
            not s.check_feasible(net, comms, tol) for s in sols
        )

    # Deletion inequality per commodity of the epsilon run.
    for hat, bar in zip(evaluate_metrics(net, p.counterpart), p.metrics):
        ok, slack = check_lemma1(net, hat, bar, eps)
        rec.lemma1_slacks.append(slack)
        rec.checks.setdefault("lemma1", True)
        rec.checks["lemma1"] &= ok

    # Constant-relaxation guarantees of the epsilon run.
    rec.checks["pass:throughput"] = all(
        m.throughput >= (1 - eps) * c.R - tol for c, m in zip(comms, p.metrics)
    )
    rec.checks["pass:delay"] = all(
        m.max_delay <= c.D / eps + tol
        for c, m in zip(comms, p.metrics)
        if math.isfinite(c.D)
    )
    if _sum_objective(spec.objective):
        if spec.objective.is_delay:
            rec.checks["pass:ratio"] = p.objective <= exact.objective / eps + tol
        else:
            rec.checks["pass:ratio"] = p.objective >= (1 - eps) * exact.objective - tol

    # No-deletion solver: exact throughput, lambda-bounded delay.
    rec.checks["pass-t:throughput"] = all(
        m.throughput >= c.R - tol for c, m in zip(comms, pt.metrics)
    )
    lam = compute_lambda(pt, p)
    if math.isfinite(lam):
        rec.checks["pass-t:delay"] = all(
            m.max_delay <= lam * c.D / eps + tol
            for c, m in zip(comms, pt.metrics)
            if math.isfinite(c.D)
        )
        if _sum_objective(spec.objective):
            if spec.objective.is_delay:
                rec.checks["pass-t:ratio"] = (
                    pt.objective <= lam * exact.objective / eps + tol
                )
            else:
                rec.checks["pass-t:ratio"] = pt.objective >= exact.objective - tol

    # Whole-path deletion solver: exact delay bounds, eps_max throughput.
    if pm is not None:
        rec.checks["pass-m:delay"] = all(
            m.max_delay <= c.D + tol for c, m in zip(comms, pm.metrics)
        )
        hat_thr = [m.throughput for m in evaluate_metrics(net, pm.counterpart)]
        rec.checks["pass-m:throughput"] = all(
            m.throughput >= (1 - pm.epsilon_max) * h - tol
            for h, m in zip(hat_thr, pm.metrics)
        )
        if spec.objective is Objective.SUM_THROUGHPUT_UTILITY:
            rec.checks["pass-m:ratio"] = (
                pm.objective >= (1 - pm.epsilon_max) * exact.objective - tol
            )

    # Greedy stays feasible and never beats the optimum.
    rec.checks["greedy:delay"] = all(
        m.max_delay <= c.D + tol for c, m in zip(comms, g.metrics)
    )
    # Greedy flags a result infeasible exactly when it misses a guarantee.
    rec.checks["greedy:flag"] = g.feasible == (not missed_guarantees(spec, "GREEDY", g.metrics))
    if not spec.objective.is_delay and g.feasible:
        rec.checks["greedy:bounded"] = g.objective <= exact.objective + tol
    return rec


@pytest.fixture(scope="session")
def corpus():
    return [run_corpus_instance(seed) for seed in range(CORPUS_SIZE)]
