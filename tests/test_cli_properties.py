"""``delayflow verify`` on reports, and ``delayflow solve`` on problems,
with one field replaced by a value of the wrong kind or removed: each exits
0, 1 or 2 and never raises, and every report ``solve`` writes verifies."""

import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delayflow.cli import EC2_PAIRS, main, report_to_json
from delayflow.graph import builtin_ec2
from delayflow.problem import (
    IDENTITY,
    Commodity,
    Objective,
    ProblemSpec,
    make_dcum,
    make_tcdm,
    problem_to_json,
    scaled_identity,
)

#: What a report field may be replaced by.
_VALUES = [None, True, False, "x", math.nan, math.inf, -math.inf, 1e308, -1.0, 0, [], {}]


def _fields(node, at=()):
    """Every key path below ``node``, a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield at + (key,)
        if isinstance(child, (dict, list)):
            yield from _fields(child, at + (key,))


def _mutate(doc, data) -> tuple:
    """Replace one field of ``doc``, drawn by ``data``, by one of _VALUES,
    or remove it: a key of a report, commodity or path record, or an
    element of a list. Returns the field's key path."""
    field = data.draw(st.sampled_from(list(_fields(doc))))
    *parent, last = field
    node = doc
    for key in parent:
        node = node[key]
    if data.draw(st.booleans()):
        del node[last]
    else:
        node[last] = data.draw(st.sampled_from(_VALUES))
    return field


#: The lists of a report that hold one entry per commodity.
_PER_COMMODITY = ("flows", "counterpart_flows", "metrics", "commodities")


def _names(field: tuple) -> list[str]:
    """What names ``field`` or a field that holds it in a message: each
    key on its path, and "commodity i" for entry i of a per-commodity list."""
    return [
        key if isinstance(key, str) else f"commodity {key}"
        for holder, key in zip((None, *field), field)
        if isinstance(key, str) or holder in _PER_COMMODITY
    ]


@pytest.fixture(scope="module")
def reports(ec2_sweeps):
    """One JSON report per algorithm: the utility-weights rows at w = (1, 1)."""
    rows = ec2_sweeps["utility-weights"].rows[:5]
    return [json.dumps(report_to_json(spec, rep)) for _, spec, rep in rows]


@pytest.fixture(scope="module")
def report_file(tmp_path_factory):
    return tmp_path_factory.mktemp("verify") / "report.json"


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_verify_never_raises_on_a_mutated_field(reports, report_file, data):
    """A corrupt report (exit 1) is named by the mutated key or by a field
    that holds it (``_names``); the topology or problem embedded in a
    report is one field."""
    doc = json.loads(data.draw(st.sampled_from(reports)))
    field = _mutate(doc, data)
    report_file.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(["verify", str(report_file)])
    assert rc in (0, 1, 2)
    if rc == 1:
        for line in err.getvalue().splitlines():
            assert any(name in line for name in _names(field)), (field, line)


def _problems() -> list[str]:
    """EC2 problems as JSON: TCDM at R=230, DCUM at D=150, and the
    utility-weights problem at w = (1, 2), which has both R and D."""
    net = builtin_ec2()
    both = tuple(
        Commodity(s, t, R=80.0, D=150.0, w=w, utility_t=scaled_identity(w))
        for (s, t), w in zip(EC2_PAIRS, (1.0, 2.0))
    )
    specs = [
        make_tcdm(net, [(s, t, 230.0, 1.0) for s, t in EC2_PAIRS]),
        make_dcum(net, [(s, t, 150.0, IDENTITY) for s, t in EC2_PAIRS]),
        ProblemSpec(net, both, Objective.SUM_THROUGHPUT_UTILITY),
    ]
    return [json.dumps(problem_to_json(spec)) for spec in specs]


_PROBLEMS = _problems()
#: Every solver but EXACT, whose deadline search a mutated R can make long.
_ALGOS = [["pass", "--eps", "0.03"], ["pass-m"], ["pass-t"], ["greedy"]]


# A numpy RuntimeWarning (an overflow in the tableau, say) is a failure.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_solve_never_raises_on_a_mutated_problem_field(report_file, data):
    doc = json.loads(data.draw(st.sampled_from(_PROBLEMS)))
    _mutate(doc, data)
    algo = data.draw(st.sampled_from(_ALGOS))
    problem = report_file.with_name("problem.json")
    problem.write_text(json.dumps(doc))
    report = str(report_file)
    argv = ["solve", "--topo", "ec2", "--problem", str(problem), "--out", report]
    rc = main([*argv, "--algo", *algo])
    assert rc in (0, 1, 2)
    if rc == 0:
        assert main(["verify", report]) == 0
