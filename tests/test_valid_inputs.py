"""Generated valid input, not only mutated input: topology text that
round-trips through ``load_topology`` and ``serialize_topology``, and EC2
problem JSON that every solver but EXACT answers with exit 0 or 2, never 1,
with every report it writes verifying."""

import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from delayflow.cli import main
from delayflow.graph import builtin_ec2, load_topology, serialize_topology
from delayflow.problem import Objective

#: One token of topology text: no whitespace (which also rules out every
#: line break) and no '#'.
_TOKEN = st.text(
    st.characters(blacklist_categories=("Cs",)).filter(
        lambda ch: not ch.isspace() and ch != "#"
    ),
    min_size=1,
    max_size=5,
)
#: Comment text: anything that stays on one line.
_COMMENT = st.text(max_size=8).filter(lambda t: len(f"#{t}x".splitlines()) == 1)
_SPACE = st.sampled_from([" ", "\t", "  ", " \t "])


@st.composite
def _number_text(draw) -> str:
    """A finite non-negative number in int, float or exponent form."""
    form = draw(st.sampled_from(["int", "float", "exponent"]))
    if form == "int":
        return str(draw(st.integers(0, 10**6)))
    if form == "float":
        return repr(draw(st.floats(0, 1e6)))
    whole = draw(st.integers(0, 99))
    frac = draw(st.one_of(st.just(""), st.integers(0, 10**6).map(lambda d: f".{d}")))
    exp = draw(st.integers(-12, 12))
    return f"{whole}{frac}{draw(st.sampled_from(['e', 'E']))}{exp:+d}"


#: What may stand before a line of topology text: nothing, a blank line or
#: a comment-only line.
_JUNK = st.one_of(st.none(), st.sampled_from(["", " ", "\t"]), _COMMENT.map("#".__add__))


@st.composite
def _topology_text(draw) -> str:
    """Topology text: node lines, then edge and uedge lines between
    distinct declared nodes, each line with any spacing and an optional
    trailing comment, among comment-only and blank lines."""
    names = draw(st.lists(_TOKEN, max_size=6, unique=True))
    lines = [["node", name] for name in names]
    if len(names) >= 2:
        pair = st.lists(st.sampled_from(names), min_size=2, max_size=2, unique=True)
        kind = st.sampled_from(["edge", "uedge"])
        edge = st.tuples(kind, pair, _number_text(), _number_text())
        for k, (u, v), d, c in draw(st.lists(edge, max_size=10)):
            lines.append([k, u, v, d, c])
    out = []
    for parts in lines:
        junk = draw(_JUNK)
        if junk is not None:
            out.append(junk)
        space = draw(_SPACE)
        comment = draw(st.one_of(st.just(""), _COMMENT.map(f"{space}#".__add__)))
        out.append(space + space.join(parts) + comment)
    return draw(st.sampled_from(["\n", "\r\n"])).join([*out, ""])


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(text=_topology_text())
def test_topology_text_round_trips_through_its_serialisation(text):
    net = load_topology(text)
    out = serialize_topology(net)
    assert load_topology(out) == net
    assert serialize_topology(load_topology(out)) == out


_EC2_NODES = builtin_ec2().nodes


@st.composite
def _concave_utility(draw) -> dict:
    """Non-negative, non-decreasing and concave: non-increasing slopes."""
    n = draw(st.integers(0, 3))
    widths = draw(st.lists(st.floats(1e-3, 300), min_size=n, max_size=n))
    slopes = sorted(draw(st.lists(st.floats(0, 100), min_size=n, max_size=n)), reverse=True)
    points = [(0.0, draw(st.floats(0, 1000)))]
    for width, slope in zip(widths, slopes):
        a, u = points[-1]
        points.append((a + width, u + slope * width))
    return {"points": [list(p) for p in points]}


@st.composite
def _sublinear_penalty(draw) -> dict:
    """Non-negative, non-decreasing, convex and sublinear: each slope rises
    by a share f_k of u(0) over its breakpoint a_k, the shares summing to at
    most 1, so every segment's intercept u(0)*(1 - sum f) stays >= 0."""
    u0 = draw(st.floats(0, 1000))
    slope = draw(st.floats(0, 100))
    n = draw(st.integers(0, 3))
    widths = draw(st.lists(st.floats(1e-3, 300), min_size=n, max_size=n))
    shares = draw(st.lists(st.floats(0, 1), min_size=n, max_size=n))
    shares = [f / max(1.0, sum(shares)) for f in shares]
    points = [(0.0, u0)]
    for width, share in zip(widths, shares):
        a, u = points[-1]
        points.append((a + width, u + slope * width))
        slope += share * u0 / (a + width)
    if n:  # the last rise shows in one more breakpoint
        a, u = points[-1]
        points.append((a + 1.0, u + slope))
    return {"points": [list(p) for p in points]}


@st.composite
def _ec2_problem(draw) -> dict:
    """A valid EC2 problem: one of the four objectives, one to three
    commodities with distinct endpoints and moderate R, D and w, a convex
    sublinear penalty with R > 0 under delay objectives and a concave
    utility otherwise."""
    objective = draw(st.sampled_from(list(Objective)))
    comms = []
    for _ in range(draw(st.integers(1, 3))):
        ends = st.lists(st.sampled_from(_EC2_NODES), min_size=2, max_size=2, unique=True)
        src, dst = draw(ends)
        c = {"src": src, "dst": dst, "w": draw(st.floats(0, 10))}
        c["D"] = draw(st.one_of(st.just("inf"), st.floats(20, 1000)))
        if objective.is_delay:
            c["R"] = draw(st.floats(0.5, 400))
            c["utility_d"] = draw(_sublinear_penalty())
        else:
            c["R"] = draw(st.one_of(st.just(0.0), st.floats(0, 400)))
            c["utility_t"] = draw(_concave_utility())
        comms.append(c)
    return {"objective": objective.value, "commodities": comms}


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(doc=_ec2_problem(), eps=st.floats(0.01, 0.99))
def test_solve_answers_every_valid_problem(tmp_path_factory, doc, eps):
    """PASS, PASS-T, GREEDY and, when every D is finite, PASS-M solve it
    (exit 0) or call it infeasible (exit 2), and each report they write
    verifies."""
    work = tmp_path_factory.mktemp("valid")
    problem = work / "problem.json"
    problem.write_text(json.dumps(doc))
    algos = [["pass", "--eps", str(eps)], ["pass-t"], ["greedy"]]
    if all(c["D"] != "inf" and math.isfinite(c["D"]) for c in doc["commodities"]):
        algos.append(["pass-m"])
    for algo in algos:
        report = work / f"{algo[0]}.json"
        argv = ["solve", "--topo", "ec2", "--problem", str(problem), "--out", str(report)]
        assert main([*argv, "--algo", *algo]) in (0, 2), algo
        if report.exists():
            assert main(["verify", str(report)]) == 0, algo
