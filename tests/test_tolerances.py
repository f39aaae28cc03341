"""The flow tolerance policy: one unit per network, derived from its
capacities, so that results do not depend on the scale of the input."""

import ast
import math
from pathlib import Path

import pytest

from delayflow.algorithms import solve_pass, solve_pass_m, solve_pass_t
from delayflow.baselines import solve_greedy
from delayflow.cli import EC2_PAIRS, report_to_json, verify_report
from delayflow.graph import CHECK_TOL, ZERO_TOL, Edge, Network, builtin_ec2
from delayflow.problem import PLFunction, make_dcum, make_tcdm

SRC = Path(__file__).resolve().parent.parent / "src" / "delayflow"


@pytest.mark.parametrize(
    "capacities,unit",
    [((), 1.0), ((0.0,), 1.0), ((0.3,), 0.5), ((256.0, 3.0), 256.0),
     ((257.0,), 512.0), ((1e-7,), 2.0**-23)],
)
def test_flow_unit(capacities, unit):
    net = Network(("a", "b"), tuple(Edge(0, 1, 1.0, c) for c in capacities))
    assert net.flow_unit == unit
    assert net.zero_tol == ZERO_TOL * unit
    assert net.check_tol == CHECK_TOL * unit


def test_ec2_flow_unit(ec2):
    assert ec2.flow_unit == 256.0  # largest capacity 166


def _scaled_specs(f):
    """The EC2 TCDM R=230 and DCUM D=150 instances with every capacity, R
    and utility abscissa multiplied by ``f``: the same problems in another
    rate unit."""
    ec2 = builtin_ec2()
    net = Network(
        ec2.nodes,
        tuple(Edge(e.u, e.v, e.delay, e.capacity * f) for e in ec2.edges),
    )
    utility = PLFunction(((0.0, 0.0), (f, 1.0)))
    return {
        "tcdm": make_tcdm(net, [(s, t, 230.0 * f, 1.0) for s, t in EC2_PAIRS]),
        "dcum": make_dcum(net, [(s, t, 150.0, utility) for s, t in EC2_PAIRS]),
    }


_SOLVERS = {
    "pass": lambda spec: solve_pass(spec, 0.03),
    "pass-m": solve_pass_m,
    "pass-t": solve_pass_t,
    "greedy": solve_greedy,
}


def _solve_all(specs):
    """{(instance, solver): report}; PASS-M needs the DCUM delay bounds."""
    return {
        (name, algo): (spec, solve(spec))
        for name, spec in specs.items()
        for algo, solve in _SOLVERS.items()
        if not (algo == "pass-m" and name == "tcdm")
    }


@pytest.fixture(scope="module")
def unscaled():
    return {key: rep.objective for key, (_, rep) in _solve_all(_scaled_specs(1.0)).items()}


# Up to 2^20 and 10^6 only: past that the counterpart LP itself drifts (TCDM
# PASS is infeasible at 10^7), which the flow tolerances cannot mend.
@pytest.mark.parametrize(
    "f",
    [2.0**k for k in range(-20, 21, 5)] + [10.0**k for k in range(-6, 7)],
)
def test_objectives_and_certificates_scale_invariant(unscaled, f):
    for key, (spec, rep) in _solve_all(_scaled_specs(f)).items():
        assert rep.objective == pytest.approx(unscaled[key], rel=1e-9, abs=0), key
        assert verify_report(report_to_json(spec, rep)) == [], key


def _tolerance_spellings(tree):
    """Names ending in _TOL that a module binds, and its 1e-6/1e-9 literals."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            name = node.id
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            name = node.name
        else:
            name = ""
        if name.endswith("_TOL"):
            yield f"line {node.lineno}: defines {name}"
        if (isinstance(node, ast.Constant) and type(node.value) is float
                and node.value in (1e-6, 1e-9)):
            yield f"line {node.lineno}: literal {node.value!r}"


def test_flow_tolerances_live_in_graph():
    """Only graph.py (flow tolerances) and lp.py (the LP engines' own)
    define tolerances; every other module reads them from the network."""
    found = [
        f"{path.name} {msg}"
        for path in sorted(SRC.glob("*.py"))
        if path.name not in ("graph.py", "lp.py")
        for msg in _tolerance_spellings(ast.parse(path.read_text()))
    ]
    assert found == []
