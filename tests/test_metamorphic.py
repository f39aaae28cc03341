"""Metamorphic property: EXACT's optimum does not depend on the names of
the nodes, their order, or the order of the edges. Only EXACT is held to
it: PASS and GREEDY break ties by edge index and node name, so a relabelled
instance may take another tied path there."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from delayflow.baselines import solve_exact
from delayflow.cli import report_to_json, verify_report
from delayflow.gen import random_problem
from delayflow.graph import Edge, Network
from delayflow.problem import ProblemSpec


def relabelled(spec: ProblemSpec, rng: np.random.Generator) -> ProblemSpec:
    """``spec`` with fresh node names, the nodes in a shuffled order and the
    edges in another shuffled order."""
    net = spec.network
    n = len(net.nodes)
    old_at = rng.permutation(n)  # new position -> old node
    new_of = np.argsort(old_at)  # old node -> new position
    labels = rng.permutation(n)
    name = {net.nodes[i]: f"m{labels[i]}" for i in range(n)}
    nodes = tuple(name[net.nodes[i]] for i in old_at)
    edges = tuple(
        Edge(int(new_of[e.u]), int(new_of[e.v]), e.delay, e.capacity)
        for e in (net.edges[k] for k in rng.permutation(len(net.edges)))
    )
    comms = tuple(
        dataclasses.replace(c, source=name[c.source], sink=name[c.sink])
        for c in spec.commodities
    )
    return ProblemSpec(Network(nodes, edges), comms, spec.objective)


@pytest.mark.parametrize("seed", range(50))
def test_exact_objective_survives_relabelling(seed):
    spec = random_problem(np.random.default_rng(seed))
    moved = relabelled(spec, np.random.default_rng([seed, 1]))
    report = solve_exact(moved)
    assert report.objective == pytest.approx(solve_exact(spec).objective, rel=1e-9)
    assert verify_report(report_to_json(moved, report)) == []
