import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CORPUS_SIZE
from delayflow.baselines import simple_path_delays
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


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("node a\nnode a\n", "line 2"),
        ("edge a b 1 1\n", "unknown node"),
        ("node a\nnode b\nedge a b x 1\n", "bad delay"),
        ("node a\nnode b\nedge a b 1 -2\n", "negative"),
        ("node a\nnode b\nedge a b 5 inf\n", "line 3: non-finite capacity 'inf'"),
        ("node a\nnode b\nuedge a b nan 1\n", "line 3: non-finite delay 'nan'"),
        ("node a\nnode b\nedge a b 1\n", "expected"),
        ("frob a\n", "unknown directive"),
    ],
)
def test_load_topology_errors(text, fragment):
    with pytest.raises(TopologyError, match=fragment):
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
        for u, v in itertools.product(net.nodes, repeat=2):
            delays = simple_path_delays(net, u, v)  # [0.0] when u == v
            want = delays[0] if delays else math.inf
            assert net.least_delays[net.index_of(u), net.index_of(v)] == want, (net, u, v)


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
