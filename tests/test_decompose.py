import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delayflow.decompose import _strip_paths, cancel_cycles, decompose
from delayflow.graph import Edge, Network


@pytest.fixture
def cyclic():
    """s->a->t plus a 2-cycle a<->b."""
    return Network(
        ("s", "a", "b", "t"),
        (
            Edge(0, 1, 1.0, 10.0),
            Edge(1, 3, 1.0, 10.0),
            Edge(1, 2, 1.0, 10.0),
            Edge(2, 1, 1.0, 10.0),
        ),
    )


def test_cancel_cycles_acyclic_unchanged(diamond):
    x = np.array([1.0, 2.0, 1.0, 2.0, 0.5])
    out = cancel_cycles(diamond, x, "s", "t")
    assert out == pytest.approx(x)


def test_cancel_cycles_removes_cycle(cyclic):
    x = np.array([3.0, 3.0, 2.0, 2.0])
    out = cancel_cycles(cyclic, x, "s", "t")
    assert out == pytest.approx([3.0, 3.0, 0.0, 0.0])


def test_cancel_cycles_preserves_throughput(cyclic):
    x = np.array([3.0, 3.0, 2.0, 2.0])
    out = cancel_cycles(cyclic, x, "s", "t")
    assert sum(out[k] for k in cyclic.out_edges[0]) == pytest.approx(3.0)
    assert np.all(out <= x + 1e-12)


def test_cancel_cycles_rejects_negative(cyclic):
    with pytest.raises(ValueError, match="nonnegative"):
        cancel_cycles(cyclic, np.array([1.0, 1.0, -1.0, 0.0]), "s", "t")


def test_cancel_cycles_rejects_imbalance(cyclic):
    with pytest.raises(ValueError, match="conservation"):
        cancel_cycles(cyclic, np.array([3.0, 1.0, 0.0, 0.0]), "s", "t")


def test_decompose_superposition(diamond):
    x = np.array([2.0, 1.5, 2.0, 1.5, 0.25])
    paths = decompose(diamond, "s", "t", x)
    assert len(paths) <= len(diamond.edges)
    rebuilt = np.zeros(len(diamond.edges))
    for p, r in paths:
        assert r > 0
        for k in p.edges:
            rebuilt[k] += r
    assert rebuilt == pytest.approx(x, abs=1e-6)


def test_decompose_deterministic_order(diamond):
    x = np.array([2.0, 1.5, 2.0, 1.5, 0.25])
    a = decompose(diamond, "s", "t", x)
    b = decompose(diamond, "s", "t", x)
    assert a == b
    # smallest-edge-index extraction: the s->a->t path comes out first
    assert a[0][0].edges == (0, 2)


def test_decompose_rejects_cycles():
    # edge order steers the walk into the a<->b cycle
    net = Network(
        ("s", "a", "b", "t"),
        (
            Edge(0, 1, 1.0, 10.0),
            Edge(1, 2, 1.0, 10.0),
            Edge(2, 1, 1.0, 10.0),
            Edge(1, 3, 1.0, 10.0),
        ),
    )
    with pytest.raises(ValueError, match="cycle"):
        decompose(net, "s", "t", np.array([3.0, 2.0, 2.0, 3.0]))


def test_decompose_rejects_stranded_flow():
    net = Network(("s", "a", "t"), (Edge(0, 1, 1.0, 5.0), Edge(1, 2, 1.0, 5.0)))
    # imbalance at 'a' is caught by the conservation pre-check
    with pytest.raises(ValueError):
        decompose(net, "s", "t", np.array([2.0, 1.0]))


def test_decompose_reads_tiny_negative_rates_as_zero(diamond):
    """A rate in (-check_tol, 0) reads 0, as in ``cancel_cycles``; a larger
    negative one is rejected."""
    x = np.array([2.0, 1.5, 2.0, 1.5, -diamond.check_tol / 2])
    assert decompose(diamond, "s", "t", x) == decompose(diamond, "s", "t", np.maximum(x, 0.0))
    x[4] = -2 * diamond.check_tol
    with pytest.raises(ValueError, match="nonnegative"):
        decompose(diamond, "s", "t", x)


def test_decompose_drops_a_stranded_rounding_fragment(diamond):
    """An LP's rounding can leave a rate of a few zero_tol on an edge into
    a node that passes no more on: a walk stranded there with at most
    check_tol is dropped. More than check_tol breaks conservation."""
    x = np.array([2.0, 1.5, 2.0, 1.5, 0.0])
    x[1] += diamond.check_tol / 2  # s->b, b passes only 1.5 on
    assert decompose(diamond, "s", "t", x) == decompose(
        diamond, "s", "t", np.array([2.0, 1.5, 2.0, 1.5, 0.0])
    )
    x[1] = 1.5 + 2 * diamond.check_tol
    with pytest.raises(ValueError, match="conservation"):
        decompose(diamond, "s", "t", x)


def test_decompose_empty_flow(diamond):
    assert decompose(diamond, "s", "t", np.zeros(5)) == []


def test_strip_paths_raises_value_error_on_network():
    # decompose's conservation check would catch this flow first; cyclic
    # network flow is test_decompose_rejects_cycles.
    net = Network(("s", "a", "t"), (Edge(0, 1, 1.0, 5.0), Edge(1, 2, 1.0, 5.0)))
    with pytest.raises(ValueError, match="stranded at node a"):
        _strip_paths(net, np.array([2.0, 1.0]), 0, 2)


@st.composite
def _acyclic_flows(draw):
    """A random network on nodes n0..n{n-1} and an edge flow that is a sum
    of positive-rate n0 -> n{n-1} paths along increasing node indices, so
    its support is acyclic; the network may also have unused edges in any
    direction, parallel edges included."""
    n = draw(st.integers(2, 7))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] != p[1]
    )
    pairs = draw(st.lists(pair, max_size=12))
    routes = draw(
        st.lists(
            st.tuples(
                st.lists(st.integers(1, n - 2), unique=True) if n > 2 else st.just([]),
                st.floats(1e-7, 1e3),
            ),
            min_size=1,
            max_size=6,
        )
    )
    flow: list[tuple[list[tuple[int, int]], float]] = []
    for inner, rate in routes:
        seq = [0] + sorted(inner) + [n - 1]
        hops = list(zip(seq, seq[1:]))
        pairs += hops
        flow.append((hops, rate))
    pairs = draw(st.permutations(pairs))
    edges = tuple(Edge(u, v, 1.0, 1e4) for u, v in pairs)
    net = Network(tuple(f"n{i}" for i in range(n)), edges)
    x = np.zeros(len(edges))
    for hops, rate in flow:
        for u, v in hops:
            x[pairs.index((u, v))] += rate
    return net, x


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_acyclic_flows())
def test_decompose_reproduces_random_acyclic_flows(case):
    net, x = case
    s, t = net.nodes[0], net.nodes[-1]
    paths = decompose(net, s, t, x)
    assert len(paths) <= len(net.edges)
    rebuilt = np.zeros(len(net.edges))
    for p, r in paths:
        nodes = p.nodes(net)  # raises unless contiguous and simple
        assert (nodes[0], nodes[-1]) == (s, t)
        assert r > 0
        for k in p.edges:
            rebuilt[k] += r
    np.testing.assert_allclose(rebuilt, x, rtol=0, atol=1e-9)
