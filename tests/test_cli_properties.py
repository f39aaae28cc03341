"""``delayflow verify`` on reports with one field replaced by a value of
the wrong kind: it exits 0, 1 or 2 and never raises."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delayflow.cli import main, report_to_json

#: What a report field may be replaced by.
_VALUES = [None, True, False, "x", math.nan, math.inf, -math.inf, 1e308, -1.0, 0, [], {}]


def _fields(node, at=()):
    """Every key path below ``node``, a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield at + (key,)
        if isinstance(child, (dict, list)):
            yield from _fields(child, at + (key,))


@pytest.fixture(scope="module")
def reports(ec2_sweeps):
    """One JSON report per algorithm: the utility-weights rows at w = (1, 1)."""
    rows = ec2_sweeps["utility-weights"].rows[:5]
    return [json.dumps(report_to_json(spec, rep)) for _, spec, rep in rows]


@pytest.fixture(scope="module")
def report_file(tmp_path_factory):
    return tmp_path_factory.mktemp("verify") / "report.json"


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_verify_never_raises_on_a_mutated_field(reports, report_file, data):
    doc = json.loads(data.draw(st.sampled_from(reports)))
    *parent, last = data.draw(st.sampled_from(list(_fields(doc))))
    node = doc
    for key in parent:
        node = node[key]
    node[last] = data.draw(st.sampled_from(_VALUES))
    report_file.write_text(json.dumps(doc))
    assert main(["verify", str(report_file)]) in (0, 1, 2)
