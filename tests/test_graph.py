import hashlib
import heapq
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CORPUS_SIZE
from delayflow.baselines import _enumerate_paths
from delayflow.gen import random_problem
from delayflow.graph import (
    Edge,
    Network,
    Path,
    TopologyError,
    adjacency,
    builtin_ec2,
    load_topology,
    serialize_topology,
    shortest_path_by_delay,
)

TOPO = """
# sample
node a
node b
node c
edge a b 3 10
uedge b c 1 5
"""


def test_load_topology_basics():
    net = load_topology(TOPO)
    assert net.nodes == ("a", "b", "c")
    assert len(net.edges) == 3  # uedge expands to both directions
    assert net.edges[0] == Edge(0, 1, 3.0, 10.0)
    assert net.edges[1] == Edge(1, 2, 1.0, 5.0)
    assert net.edges[2] == Edge(2, 1, 1.0, 5.0)


def test_serialize_round_trip():
    net = load_topology(TOPO)
    text = serialize_topology(net)
    again = load_topology(text)
    assert again.nodes == net.nodes
    assert again.edges == net.edges
    assert serialize_topology(again) == text


#: Names the topology text can hold: one token with no '#'.
_NAMES = st.text(st.characters(exclude_characters="#"), min_size=1, max_size=4).filter(
    lambda name: not any(ch.isspace() for ch in name)
)
_AMOUNTS = st.floats(min_value=0.0, max_value=1e300)


@st.composite
def _networks(draw):
    names = draw(st.lists(_NAMES, min_size=2, max_size=5, unique=True))
    index = st.integers(0, len(names) - 1)
    ends = st.tuples(index, index).filter(lambda uv: uv[0] != uv[1])
    edge = st.builds(lambda uv, d, c: Edge(*uv, d, c), ends, _AMOUNTS, _AMOUNTS)
    return Network(tuple(names), tuple(draw(st.lists(edge, max_size=8))))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_networks())
def test_topology_text_round_trips(net):
    assert load_topology(serialize_topology(net)) == net


#: (text, tag, message): each text fails with the full message; the tag
#: names the case in its test id.
_TOPOLOGY_ERRORS = [
    ("node a\nnode a\n", "line 2", "line 2: duplicate node 'a'"),
    ("edge a b 1 1\n", "unknown node", "line 1: unknown node 'a'"),
    ("node a\nnode b\nedge a b x 1\n", "bad delay", "line 3: bad delay 'x'"),
    ("node a\nnode b\nedge a b 1 -2\n", "negative", "line 3: negative capacity"),
    (
        "node a\nnode b\nedge a b 5 inf\n",
        "line 3: non-finite capacity 'inf'",
        "line 3: non-finite capacity 'inf'",
    ),
    (
        "node a\nnode b\nuedge a b nan 1\n",
        "line 3: non-finite delay 'nan'",
        "line 3: non-finite delay 'nan'",
    ),
    (
        "node a\nnode b\nedge a b 1\n",
        "expected",
        "line 3: expected 'edge <u> <v> <delay> <capacity>'",
    ),
    ("frob a\n", "unknown directive", "line 1: unknown directive 'frob'"),
    (
        "node a\nnode b\nuedge a b 1 2 3\n",
        "uedge arity",
        "line 3: expected 'uedge <u> <v> <delay> <capacity>'",
    ),
    ("node\n", "node arity", "line 1: expected 'node <id>'"),
    ("node a\nnode b\nedge a a 1 1\n", "self-loop", "self-loops are not allowed"),
    # Two faults: the first line's wins, and on one line the delay's
    # before the capacity's.
    ("node a\nnode b\nedge a b -1 1\nfrob\n", "number first", "line 3: negative delay"),
    ("node a\nnode b\nedge a b -1 1\nedge a b x 1\n", "sign first", "line 3: negative delay"),
    (
        "node a\nnode b\nedge a b 1 -1\nedge a b nan 1\n",
        "capacity first",
        "line 3: negative capacity",
    ),
    ("node a\nnode b\nedge a b 1 x\nedge a c 1 1\n", "syntax first", "line 3: bad capacity 'x'"),
    ("node a\nnode b\nedge a b inf -1\n", "delay then capacity", "line 3: non-finite delay 'inf'"),
    ("node a\nnode b\nedge a b -1 x\n", "delay then syntax", "line 3: negative delay"),
    ("node a\nnode b\nedge c b x 1\n", "node then number", "line 3: unknown node 'c'"),
    ("node a\nedge a b 1 1\nnode b\n", "node declared late", "line 2: unknown node 'b'"),
    (
        "node a\nnode b\nedge a b 1e999 1\nnode a\n",
        "overflow first",
        "line 3: non-finite delay '1e999'",
    ),
    ("node a\nnode b\nnode a\nedge a b -1 1\n", "duplicate first", "line 3: duplicate node 'a'"),
    # A self-loop is found once the text is read, after any line's fault.
    ("node a\nnode b\nedge a a 1 1\nedge a b -1 1\n", "self-loop last", "line 4: negative delay"),
    # Sums that overflow are no number fault; the network rejects them.
    (
        "node a\nnode b\nedge a b 1e308 1\nedge b a 1e308 1\n",
        "delay sum overflows",
        "the sum of edge delays overflows a float",
    ),
    (
        "node a\nnode b\nedge a b 1 1e308\nedge b a 1 1e308\n",
        "capacity sum overflows",
        "capacity 1e+308 is too large: its flow unit 2**1024 overflows a float",
    ),
    # Comments, CRLF and the line breaks of ``str.splitlines``.
    (
        "node a # x\n\n  \t\nnode b\nedge a b 1 -1 # c\n",
        "blank lines count",
        "line 5: negative capacity",
    ),
    ("node a\r\nnode b\r\nedge a b -0 inf\r\n", "crlf", "line 3: non-finite capacity 'inf'"),
    ("node a\u2028node b\x0cedge a b 1 -1", "line breaks", "line 3: negative capacity"),
]


@pytest.mark.parametrize(
    "text,message",
    [pytest.param(text, message, id=f"{text}-{tag}") for text, tag, message in _TOPOLOGY_ERRORS],
)
def test_load_topology_errors(text, message):
    with pytest.raises(TopologyError, match=f"^{re.escape(message)}$"):
        load_topology(text)


def test_network_rejects_self_loop():
    with pytest.raises(TopologyError):
        Network(("a",), (Edge(0, 0, 1.0, 1.0),))


def test_network_rejects_negative_delay():
    with pytest.raises(TopologyError):
        Network(("a", "b"), (Edge(0, 1, -1.0, 1.0),))


@pytest.mark.parametrize("delay,capacity", [(1.0, math.inf), (math.nan, 1.0)])
def test_network_rejects_non_finite(delay, capacity):
    with pytest.raises(TopologyError, match="non-finite"):
        Network(("a", "b"), (Edge(0, 1, delay, capacity),))


@pytest.mark.parametrize("name", ["a b", "a#1", "", "a\tb", "\u2028"])
def test_network_rejects_names_the_topology_text_cannot_hold(name):
    with pytest.raises(TopologyError, match=re.escape(f"node name {name!r}")):
        Network((name, "c"), (Edge(0, 1, 1.0, 1.0),))


@pytest.mark.parametrize(
    "edges,message",
    [
        # The first bad edge fails, whatever the second one's fault.
        ([Edge(0, 1, -1.0, 1.0), Edge(0, 0, 1.0, 1.0)], "negative delay"),
        ([Edge(0, 1, 1.0, -1.0), Edge(0, 3, 1.0, 1.0)], "negative capacity"),
        ([Edge(1, 1, 1.0, 1.0), Edge(0, 1, math.nan, 1.0)], "self-loops are not allowed"),
        ([Edge(0, 1, 1.0, 1.0), Edge(0, 2, math.inf, 1.0)], "non-finite delay or capacity"),
        ([Edge(0, 1, 1.0, 1.0), Edge(-1, 1, 1.0, -1.0)], "edge endpoint out of range"),
        # One edge with two faults fails with the earlier check.
        ([Edge(0, 3, math.nan, 1.0)], "edge endpoint out of range"),
        ([Edge(2, 2, -1.0, 1.0)], "self-loops are not allowed"),
        ([Edge(0, 1, math.inf, -1.0)], "non-finite delay or capacity"),
        ([Edge(0, 1, -1.0, -1.0)], "negative delay"),
    ],
)
def test_network_names_the_first_bad_edge(edges, message):
    with pytest.raises(TopologyError, match=f"^{message}$"):
        Network(("a", "b", "c"), tuple(edges))
    tails, heads, delays, caps = zip(*((e.u, e.v, e.delay, e.capacity) for e in edges))
    with pytest.raises(TopologyError, match=f"^{message}$"):
        Network.from_arrays(("a", "b", "c"), tails, heads, delays, caps)


@pytest.mark.parametrize("tails", [[0.5], [10**20], ["0"]])
def test_network_rejects_endpoints_that_are_no_index(tails):
    with pytest.raises(TopologyError, match="^edge endpoint out of range$"):
        Network.from_arrays(("a", "b"), tails, [1], [1.0], [1.0])


def test_network_is_immutable_and_builds_its_edges_once():
    net = load_topology(TOPO)
    with pytest.raises(AttributeError):
        net.nodes = ("x",)
    with pytest.raises(AttributeError):
        del net.heads
    assert net.edges is net.edges
    assert net == Network(net.nodes, net.edges)
    assert hash(net) == hash(Network(net.nodes, net.edges))
    assert repr(net).startswith("Network(nodes=('a', 'b', 'c'), edges=(Edge(u=0, v=1,")


def test_adjacency():
    net = load_topology(TOPO)
    assert net.out_edges[0] == (0,)
    assert net.in_edges[1] == (0, 2)
    assert net.index_of("c") == 2
    with pytest.raises(KeyError):
        net.index_of("zzz")


@pytest.mark.parametrize("derived", ["out_edges", "in_edges"])
def test_network_rejects_adjacency_arguments(derived):
    """The adjacency lists are derived from the edges, never passed in."""
    with pytest.raises(TypeError, match=derived):
        Network(("a", "b"), (Edge(0, 1, 1.0, 1.0),), **{derived: ((5,), (7,))})


def test_builtin_ec2_shape():
    net = builtin_ec2()
    assert len(net.nodes) == 6
    assert len(net.edges) == 30  # 15 undirected links, both directions
    # spot-check a few measured links
    by_pair = {
        (net.nodes[e.u], net.nodes[e.v]): (e.delay, e.capacity) for e in net.edges
    }
    assert by_pair[("VA", "SI")] == (127.0, 52.0)
    assert by_pair[("SI", "VA")] == (127.0, 52.0)
    assert by_pair[("OR", "TO")] == (68.0, 138.0)
    assert by_pair[("SI", "SP")] == (182.0, 33.0)
    assert net.has_integer_delays()


def _zero_delay_cycle() -> Network:
    """a <-> b at zero delay, both reaching c; d is isolated."""
    return Network(
        ("a", "b", "c", "d"),
        (
            Edge(0, 1, 0.0, 1.0),
            Edge(1, 0, 0.0, 1.0),
            Edge(1, 2, 3.0, 1.0),
            Edge(0, 2, 5.0, 1.0),
        ),
    )


def test_least_delays_match_simple_path_delays():
    """Each entry is the least simple-path delay (inf with no path, 0 on the
    diagonal) on EC2, a zero-delay cycle and every corpus network."""
    nets = [builtin_ec2(), _zero_delay_cycle()]
    nets += [random_problem(np.random.default_rng(seed)).network for seed in range(CORPUS_SIZE)]
    for net in nets:
        assert np.diagonal(net.least_delays).tolist() == [0.0] * len(net.nodes)
        for s, t in itertools.permutations(range(len(net.nodes)), 2):
            delays = sorted(set(_enumerate_paths(net, s, t, math.inf).delays.tolist()))
            want = delays[0] if delays else math.inf
            assert net.least_delays[s, t] == want, (net, s, t)


def test_least_delays_is_read_only_and_cached():
    net = _zero_delay_cycle()
    assert net.least_delays[1].tolist() == [0.0, 0.0, 3.0, math.inf]
    assert net.least_delays is net.least_delays
    with pytest.raises(ValueError, match="read-only"):
        net.least_delays[0, 2] = 1.0
    assert net == _zero_delay_cycle()  # not a field: equality ignores it


def test_node_capacities_are_the_python_sums():
    """``out_capacity``/``in_capacity`` equal the sums over each node's
    out- and in-edges in edge order, bit for bit, and are read-only."""
    nets = [builtin_ec2(), _zero_delay_cycle(), load_topology(TOPO)]
    nets += [random_problem(np.random.default_rng(seed)).network for seed in range(20)]
    for net in nets:
        for v in range(len(net.nodes)):
            cap_out = sum(net.edges[k].capacity for k in net.out_edges[v])
            cap_in = sum(net.edges[k].capacity for k in net.in_edges[v])
            assert (net.out_capacity[v], net.in_capacity[v]) == (cap_out, cap_in)
    ec2 = builtin_ec2()
    assert ec2.out_capacity[ec2.index_of("VA")] == 317.0
    with pytest.raises(ValueError, match="read-only"):
        ec2.in_capacity[0] = 1.0


def test_adjacency_lists_edges_by_tail_and_head():
    out, inc = adjacency(4, [2, 0, 2, 1], [0, 2, 1, 2])
    assert out == [[1], [3], [0, 2], []]
    assert inc == [[0], [2], [1, 3], []]


def test_path_delay_and_nodes():
    net = load_topology(TOPO)
    p = Path((0, 1))
    assert p.nodes(net) == ("a", "b", "c")
    assert p.delay(net) == 4.0


def test_path_rejects_broken_chain():
    net = load_topology(TOPO)
    with pytest.raises(ValueError):
        Path((1, 0)).nodes(net)


def test_path_rejects_repeated_node():
    net = load_topology(TOPO)
    with pytest.raises(ValueError):
        Path((1, 2)).nodes(net)  # b -> c -> b


def test_shortest_path_simple():
    net = load_topology(TOPO)
    p = shortest_path_by_delay(net, net.capacities(), "a", "c")
    assert p.edges == (0, 1)
    assert p.delay(net) == 4.0


def test_shortest_path_respects_residual():
    net = builtin_ec2()
    residual = net.capacities()
    p = shortest_path_by_delay(net, residual, "VA", "SI")
    assert p.delay(net) == 127.0  # direct link
    # saturate the direct link; next best is VA->TO->SI (146)
    for k, e in enumerate(net.edges):
        if net.nodes[e.u] == "VA" and net.nodes[e.v] == "SI":
            residual[k] = 0.0
    p2 = shortest_path_by_delay(net, residual, "VA", "SI")
    assert p2.nodes(net) == ("VA", "TO", "SI")
    assert p2.delay(net) == 146.0


def test_shortest_path_unreachable_returns_none():
    net = Network(("a", "b", "c"), (Edge(0, 1, 1.0, 1.0),))
    assert shortest_path_by_delay(net, net.capacities(), "a", "c") is None


def test_shortest_path_tie_break_lexicographic():
    # two equal-delay routes: s->a->t and s->b->t; 'a' wins
    net = Network(
        ("s", "b", "a", "t"),
        (
            Edge(0, 1, 1.0, 1.0),
            Edge(0, 2, 1.0, 1.0),
            Edge(1, 3, 1.0, 1.0),
            Edge(2, 3, 1.0, 1.0),
        ),
    )
    p = shortest_path_by_delay(net, net.capacities(), "s", "t")
    assert p.nodes(net) == ("s", "a", "t")


def test_shortest_path_same_endpoints_raises():
    net = load_topology(TOPO)
    with pytest.raises(ValueError):
        shortest_path_by_delay(net, net.capacities(), "a", "a")


def test_shortest_path_bad_residual():
    net = load_topology(TOPO)
    with pytest.raises(ValueError):
        shortest_path_by_delay(net, np.array([1.0]), "a", "c")
    with pytest.raises(ValueError):
        shortest_path_by_delay(net, -net.capacities(), "a", "c")


# -- the line-by-line parser and writer, as reference -------------------------


def _reference_parse_number(token: str, what: str, lineno: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise TopologyError(f"line {lineno}: bad {what} {token!r}") from None
    if not math.isfinite(value):
        raise TopologyError(f"line {lineno}: non-finite {what} {token!r}")
    if value < 0:
        raise TopologyError(f"line {lineno}: negative {what}")
    return value


def _reference_load_topology(text: str) -> Network:
    """The parser as it read one line, and made one ``Edge``, at a time."""
    nodes: list[str] = []
    edges: list[Edge] = []
    index: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "node":
            if len(parts) != 2:
                raise TopologyError(f"line {lineno}: expected 'node <id>'")
            name = parts[1]
            if name in index:
                raise TopologyError(f"line {lineno}: duplicate node {name!r}")
            index[name] = len(nodes)
            nodes.append(name)
        elif kind in ("edge", "uedge"):
            if len(parts) != 5:
                raise TopologyError(
                    f"line {lineno}: expected '{kind} <u> <v> <delay> <capacity>'"
                )
            u, v = parts[1], parts[2]
            for name in (u, v):
                if name not in index:
                    raise TopologyError(f"line {lineno}: unknown node {name!r}")
            d = _reference_parse_number(parts[3], "delay", lineno)
            c = _reference_parse_number(parts[4], "capacity", lineno)
            edges.append(Edge(index[u], index[v], d, c))
            if kind == "uedge":
                edges.append(Edge(index[v], index[u], d, c))
        else:
            raise TopologyError(f"line {lineno}: unknown directive {kind!r}")
    return Network(tuple(nodes), tuple(edges))


def _reference_fmt(x: float) -> str:
    return str(int(x)) if float(x).is_integer() else repr(float(x))


def _reference_serialize_topology(net: Network) -> str:
    """The writer as it formatted one ``Edge`` at a time."""
    lines = [f"node {n}" for n in net.nodes]
    for e in net.edges:
        lines.append(
            f"edge {net.nodes[e.u]} {net.nodes[e.v]} "
            f"{_reference_fmt(e.delay)} {_reference_fmt(e.capacity)}"
        )
    return "\n".join(lines) + "\n"


def _reference_shortest_path_by_delay(net, residual, s, t):
    """Greedy's Dijkstra as it read one ``Edge`` and one residual entry at a
    time."""
    si, ti = net.index_of(s), net.index_of(t)
    heap = [(0.0, (net.nodes[si],), si, ())]
    settled: set[int] = set()
    while heap:
        dist, names, u, edge_seq = heapq.heappop(heap)
        if u in settled:
            continue
        settled.add(u)
        if u == ti:
            return Path(edge_seq)
        for k in net.out_edges[u]:
            e = net.edges[k]
            if residual[k] <= net.zero_tol or e.v in settled:
                continue
            heapq.heappush(
                heap,
                (dist + e.delay, names + (net.nodes[e.v],), e.v, edge_seq + (k,)),
            )
    return None


#: Number tokens: Python ``float`` syntax, underscores, signed zero, the
#: least subnormal and a huge value.
_NUMBERS = ["0", "-0", "1", "7", "1.0", "2.5", ".5", "+3", "1e3", "1E3", "1_0", "5e-324", "1e300"]
_BAD_NUMBERS = ["-1", "-.5", "inf", "-inf", "nan", "1e999", "x", "1__0", "0x10"]
_PADS = ["", " ", "\t", " \t "]
#: How a line is laid out: (padding, token separator, padding, comment,
#: line end), one draw per line.
_LAYOUTS = st.sampled_from(
    list(
        itertools.product(
            _PADS,
            [" ", "\t", " \t "],
            _PADS,
            ["", "#", " # note", "# edge a b 1 1", " ## x # y"],
            ["\n", "\r\n", "\u2028"],
        )
    )
)


@st.composite
def _topology_texts(draw, faulty: bool = False):
    """Topology text with comments, blank and whitespace-only lines, tabs,
    CRLF, ``uedge`` and every number form of ``_NUMBERS``; with ``faulty``,
    also bad numbers, self-loops, undeclared nodes, duplicate nodes,
    unknown directives and lines of the wrong length, in any order."""
    names = draw(st.lists(_NAMES, min_size=2, max_size=5, unique=True))
    numbers = st.sampled_from(_NUMBERS + _BAD_NUMBERS if faulty else _NUMBERS)
    n = len(names)
    shift = st.integers(0 if faulty else 1, n - 1)  # a self-loop only if faulty
    ends = st.builds(lambda u, d: (names[u], names[(u + d) % n]), st.integers(0, n - 1), shift)
    kinds = st.sampled_from(["edge", "uedge"])
    edge = st.builds(lambda k, uv, d, c: [k, *uv, d, c], kinds, ends, numbers, numbers)
    lines = [["node", name] for name in names] + draw(st.lists(edge, min_size=1, max_size=8))
    if faulty:
        if draw(st.booleans()):  # a node declared after its first use, maybe
            moved = lines.pop(draw(st.integers(0, len(names) - 1)))
            lines.insert(draw(st.integers(0, len(lines))), moved)
        wrong = st.sampled_from(
            [
                ["frob"],
                ["node"],
                ["node", names[0]],
                ["node", "a", "b"],
                ["edge", names[0], names[1], "1"],
                ["edge", "zzzzz", names[0], "1", "1"],
            ]
        )
        for line in draw(st.lists(wrong, max_size=2)):
            lines.insert(draw(st.integers(0, len(lines))), line)
    for _ in range(draw(st.integers(0, 3))):  # blank or whitespace-only
        lines.insert(draw(st.integers(0, len(lines))), [])
    text = ""
    for tokens in lines:
        pad, sep, tail, comment, end = draw(_LAYOUTS)
        text += pad + sep.join(tokens) + tail + comment + end
    return text.rstrip("\n") if draw(st.booleans()) else text


def _assert_same_network(got: Network, want: Network) -> None:
    assert got == want
    assert got.edges == want.edges
    for name in (
        "arc_tail",
        "arc_head",
        "delay_array",
        "capacity_array",
        "out_capacity",
        "in_capacity",
    ):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes()), name
    assert (got.out_edges, got.in_edges) == (want.out_edges, want.in_edges)
    longest = sorted(want.delay_array.tolist(), reverse=True)[: len(want.nodes) - 1]
    assert repr(got.max_path_delay) == repr(sum(longest))  # as a sorted list sums
    assert got.flow_unit == want.flow_unit
    assert serialize_topology(got) == _reference_serialize_topology(want)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_topology_texts())
def test_load_topology_matches_the_line_by_line_parser(text):
    _assert_same_network(load_topology(text), _reference_load_topology(text))


def _outcome(load, text: str):
    try:
        return load(text)
    except TopologyError as e:
        return f"TopologyError: {e}"


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_topology_texts(faulty=True))
def test_load_topology_fails_as_the_line_by_line_parser(text):
    """Every text fails with the reference's message, naming the same line,
    or parses to the same network."""
    got, want = _outcome(load_topology, text), _outcome(_reference_load_topology, text)
    if isinstance(want, str):
        assert got == want
    else:
        _assert_same_network(got, want)


def _pinned_networks() -> list[Network]:
    ec2 = builtin_ec2()
    odd = tuple(Edge(e.u, e.v, e.delay * 1.1, e.capacity / 3) for e in ec2.edges)
    corpus = [random_problem(np.random.default_rng(seed)).network for seed in range(CORPUS_SIZE)]
    return [ec2, Network(ec2.nodes, odd), *corpus]


def test_topology_text_is_pinned():
    """The text of EC2, of EC2 with non-integer delays and capacities, and
    of every corpus network hashes as it did when each edge was written one
    ``Edge`` at a time; and each network reads back to itself."""
    digest = hashlib.sha256()
    for net in _pinned_networks():
        text = serialize_topology(net)
        assert text == _reference_serialize_topology(net)
        _assert_same_network(load_topology(text), net)
        digest.update(text.encode())
    assert digest.hexdigest() == "9a4889d86fd58c3195ed8773ba5f0bb2aba92f588afc537973d00428bc790e79"


def test_shortest_path_matches_the_edge_by_edge_search():
    """On EC2 and the first 40 corpus networks, with every fifth edge's
    residual at or below ``zero_tol``, the search returns the reference's
    path for every ordered node pair."""
    rng = np.random.default_rng(7)
    nets = [builtin_ec2()] + _pinned_networks()[2:42]
    for net in nets:
        residual = net.capacities()
        residual[rng.permutation(len(residual))[: len(residual) // 5]] = net.zero_tol
        for s, t in itertools.permutations(net.nodes, 2):
            want = _reference_shortest_path_by_delay(net, residual, s, t)
            got = shortest_path_by_delay(net, residual, s, t)
            assert (got and got.edges) == (want and want.edges), (net, s, t)
