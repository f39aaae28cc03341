"""Directed network model, topology I/O, and delay-based shortest paths."""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

#: The flow tolerance policy, relative to a network's ``flow_unit``: a rate
#: at most ZERO_TOL units counts as zero (pruned, saturated, not carrying),
#: and a conservation, capacity, throughput or certificate bound may be
#: missed by CHECK_TOL units. Delays do not scale with capacities, so these
#: do not apply to them; a delay, metric or objective x may be missed by
#: ``bound_tol(x)``.
ZERO_TOL = 1e-12
CHECK_TOL = 1e-6


def bound_tol(x: float) -> float:
    """Slack of a check of ``x`` that is no rate: a metric, objective or
    delay. CHECK_TOL relative to |x|, and at least CHECK_TOL."""
    return max(CHECK_TOL, CHECK_TOL * abs(x))


class TopologyError(ValueError):
    """Raised for malformed topology input."""


@dataclass(frozen=True)
class Edge:
    u: int
    v: int
    delay: float
    capacity: float


@dataclass(frozen=True)
class Network:
    """Immutable directed graph with per-edge delay (ms) and capacity (Mbps).

    Node identifiers are opaque strings; internally nodes get dense integer
    indices in declaration order so runs are deterministic. ``node_index``
    maps each name to its index, and ``heads[k]`` is edge k's head node;
    ``arc_tail``/``arc_head`` hold every edge's tail and head as integer
    arrays, and ``delay_array``/``capacity_array`` its delay and capacity;
    ``out_capacity``/``in_capacity`` hold each node's total capacity out and
    in, summed in edge order.
    ``flow_unit`` is 2**ceil(log2(largest capacity)), or 1.0 when no edge
    has capacity; ``zero_tol`` and ``check_tol`` are ZERO_TOL and CHECK_TOL
    in that unit. ``max_path_delay``, the sum of the n-1 largest edge
    delays, bounds the delay of every simple path. ``least_delays[u, v]``
    is the least delay of a u->v walk, capacity ignored (inf where v is
    unreachable), computed on first read.
    """

    nodes: tuple[str, ...]
    edges: tuple[Edge, ...]
    out_edges: tuple[tuple[int, ...], ...] = field(init=False, repr=False)
    in_edges: tuple[tuple[int, ...], ...] = field(init=False, repr=False)
    heads: tuple[int, ...] = field(init=False, repr=False, compare=False)
    arc_tail: np.ndarray = field(init=False, repr=False, compare=False)
    arc_head: np.ndarray = field(init=False, repr=False, compare=False)
    delay_array: np.ndarray = field(init=False, repr=False, compare=False)
    capacity_array: np.ndarray = field(init=False, repr=False, compare=False)
    out_capacity: np.ndarray = field(init=False, repr=False, compare=False)
    in_capacity: np.ndarray = field(init=False, repr=False, compare=False)
    node_index: dict[str, int] = field(init=False, repr=False, compare=False)
    flow_unit: float = field(init=False, repr=False, compare=False)
    zero_tol: float = field(init=False, repr=False, compare=False)
    check_tol: float = field(init=False, repr=False, compare=False)
    max_path_delay: float = field(init=False, repr=False, compare=False)
    # ``least_delays`` once read. A cached_property would write ``__dict__``,
    # after which CPython 3.11 reads every attribute of the network slower.
    _least_delays: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in self.nodes:  # one token of topology text, before any '#'
            if not isinstance(name, str) or name.split() != [name] or "#" in name:
                msg = "must be a non-empty string without whitespace or '#'"
                raise TopologyError(f"node name {name!r} {msg}")
        if len(set(self.nodes)) != len(self.nodes):
            raise TopologyError("duplicate node identifier")
        for e in self.edges:
            if not (0 <= e.u < len(self.nodes) and 0 <= e.v < len(self.nodes)):
                raise TopologyError("edge endpoint out of range")
            if e.u == e.v:
                raise TopologyError("self-loops are not allowed")
            if not (math.isfinite(e.delay) and math.isfinite(e.capacity)):
                raise TopologyError("non-finite delay or capacity")
            if e.delay < 0:
                raise TopologyError("negative delay")
            if e.capacity < 0:
                raise TopologyError("negative capacity")
        n = len(self.nodes)
        tails = [e.u for e in self.edges]
        heads = tuple(e.v for e in self.edges)
        out, inc = adjacency(n, tails, heads)
        object.__setattr__(self, "out_edges", tuple(tuple(x) for x in out))
        object.__setattr__(self, "in_edges", tuple(tuple(x) for x in inc))
        object.__setattr__(self, "heads", heads)
        arc_tail = np.array(tails, dtype=np.intp)
        arc_head = np.array(heads, dtype=np.intp)
        capacity = np.array([e.capacity for e in self.edges], dtype=np.float64)
        arrays = {
            "arc_tail": arc_tail,
            "arc_head": arc_head,
            "delay_array": np.array([e.delay for e in self.edges], dtype=np.float64),
            "capacity_array": capacity,
            "out_capacity": np.bincount(arc_tail, weights=capacity, minlength=n),
            "in_capacity": np.bincount(arc_head, weights=capacity, minlength=n),
        }
        for name, a in arrays.items():
            a.flags.writeable = False  # the network is immutable
            object.__setattr__(self, name, a)
        object.__setattr__(
            self, "node_index", {name: i for i, name in enumerate(self.nodes)}
        )
        # Every path delay is at most the sum of all delays, so path delays
        # and rate-weighted delay sums stay finite.
        if not math.isfinite(sum(e.delay for e in self.edges)):
            raise TopologyError("the sum of edge delays overflows a float")
        longest = sorted(self.delay_array.tolist(), reverse=True)[: len(self.nodes) - 1]
        object.__setattr__(self, "max_path_delay", sum(longest))
        cap = max((e.capacity for e in self.edges), default=0.0)
        mantissa, exp = math.frexp(cap)  # cap = mantissa * 2**exp, exactly
        try:
            unit = math.ldexp(1.0, exp - (mantissa == 0.5)) if cap > 0 else 1.0
        except OverflowError:
            raise TopologyError(
                f"capacity {cap} is too large: its flow unit 2**{exp} overflows a float"
            ) from None
        object.__setattr__(self, "flow_unit", unit)
        object.__setattr__(self, "zero_tol", ZERO_TOL * unit)
        object.__setattr__(self, "check_tol", CHECK_TOL * unit)

    @property
    def least_delays(self) -> np.ndarray:
        """The n x n read-only array of least walk delays, computed on first
        read: the min-plus closure of the edge delays, one pivot node at a
        time (Floyd-Warshall). Each entry is a sum of edge delays, so
        integer delays stay exact."""
        if self._least_delays is None:
            n = len(self.nodes)
            dist = np.full((n, n), math.inf)
            np.minimum.at(dist, (self.arc_tail, self.arc_head), self.delay_array)
            np.fill_diagonal(dist, 0.0)
            for k in range(n):
                np.minimum(dist, dist[:, k, None] + dist[k], out=dist)
            dist.flags.writeable = False
            object.__setattr__(self, "_least_delays", dist)
        return self._least_delays

    def index_of(self, node: str) -> int:
        try:
            return self.node_index[node]
        except KeyError:
            raise KeyError(f"unknown node {node!r}") from None

    def capacities(self) -> np.ndarray:
        return self.capacity_array.copy()

    def has_integer_delays(self) -> bool:
        return all(float(e.delay).is_integer() for e in self.edges)


def adjacency(n: int, tails, heads) -> tuple[list[list[int]], list[list[int]]]:
    """Out- and in-edge lists of an ``n``-node graph whose edge k runs from
    node ``tails[k]`` to node ``heads[k]``: each node's edges, ascending."""
    out = [[] for _ in range(n)]
    inc = [[] for _ in range(n)]
    for k, (u, v) in enumerate(zip(tails, heads)):
        out[u].append(k)
        inc[v].append(k)
    return out, inc


def node_flows(graph, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(outflow, inflow) of every node of ``graph`` under the edge flow
    ``x``: the node-edge incidence times x, one ``bincount`` per side. Each
    node's sum runs over its edges in index order, as a loop would."""
    n = len(graph.nodes)
    return (
        np.bincount(graph.arc_tail, weights=x, minlength=n),
        np.bincount(graph.arc_head, weights=x, minlength=n),
    )


def unbalanced_nodes(
    graph, x: np.ndarray, s: int, t: int, tol: float
) -> tuple[list[int], np.ndarray, np.ndarray]:
    """The nodes other than ``s`` and ``t`` whose outflow and inflow under
    the edge flow ``x`` differ by more than ``tol``, in node order, and the
    ``node_flows`` they were read from."""
    outflow, inflow = node_flows(graph, x)
    bad = np.abs(outflow - inflow) > tol
    bad[[s, t]] = False
    return np.flatnonzero(bad).tolist(), outflow, inflow


@dataclass(frozen=True)
class Path:
    """Simple directed path, stored as an ordered tuple of edge indices."""

    edges: tuple[int, ...]

    def nodes(self, net: Network) -> tuple[str, ...]:
        seq = [net.edges[self.edges[0]].u]
        for k in self.edges:
            if net.edges[k].u != seq[-1]:
                raise ValueError("path edges are not contiguous")
            seq.append(net.edges[k].v)
        names = tuple(net.nodes[i] for i in seq)
        if len(set(names)) != len(names):
            raise ValueError("path repeats a node")
        return names

    def delay(self, net: Network) -> float:
        return sum(net.edges[k].delay for k in self.edges)


def _parse_number(token: str, what: str, lineno: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise TopologyError(f"line {lineno}: bad {what} {token!r}") from None
    if not math.isfinite(value):
        raise TopologyError(f"line {lineno}: non-finite {what} {token!r}")
    if value < 0:
        raise TopologyError(f"line {lineno}: negative {what}")
    return value


def load_topology(text: str) -> Network:
    """Parse a line-oriented topology file.

    Directives: ``node <id>``, ``edge <u> <v> <delay_ms> <capacity_mbps>``,
    ``uedge ...`` (expands to both directions), ``#`` comments.
    """
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
            d = _parse_number(parts[3], "delay", lineno)
            c = _parse_number(parts[4], "capacity", lineno)
            edges.append(Edge(index[u], index[v], d, c))
            if kind == "uedge":
                edges.append(Edge(index[v], index[u], d, c))
        else:
            raise TopologyError(f"line {lineno}: unknown directive {kind!r}")
    return Network(tuple(nodes), tuple(edges))


def _fmt(x: float) -> str:
    return str(int(x)) if float(x).is_integer() else repr(float(x))


def serialize_topology(net: Network) -> str:
    """Normalized topology text; inverse of load_topology on its own output."""
    lines = [f"node {n}" for n in net.nodes]
    for e in net.edges:
        lines.append(
            f"edge {net.nodes[e.u]} {net.nodes[e.v]} {_fmt(e.delay)} {_fmt(e.capacity)}"
        )
    return "\n".join(lines) + "\n"


#: (delay ms, capacity Mbps) per undirected link of the six-datacenter
#: EC2 measurement set (OR Oregon, VA Virginia, IR Ireland, TO Tokyo,
#: SI Singapore, SP Sao Paulo).
_EC2_LINKS = {
    ("OR", "VA"): (41, 82),
    ("OR", "IR"): (86, 86),
    ("OR", "TO"): (68, 138),
    ("OR", "SI"): (117, 74),
    ("OR", "SP"): (104, 67),
    ("VA", "IR"): (54, 72),
    ("VA", "TO"): (101, 41),
    ("VA", "SI"): (127, 52),
    ("VA", "SP"): (82, 70),
    ("IR", "TO"): (138, 56),
    ("IR", "SI"): (117, 44),
    ("IR", "SP"): (120, 61),
    ("TO", "SI"): (45, 166),
    ("TO", "SP"): (151, 41),
    ("SI", "SP"): (182, 33),
}

_EC2_NODES = ("OR", "VA", "IR", "TO", "SI", "SP")


def builtin_ec2() -> Network:
    """Complete graph on the six EC2 datacenters, each undirected link
    expanded to two independent directed edges."""
    index = {n: i for i, n in enumerate(_EC2_NODES)}
    edges = []
    for (u, v), (d, c) in _EC2_LINKS.items():
        edges.append(Edge(index[u], index[v], float(d), float(c)))
        edges.append(Edge(index[v], index[u], float(d), float(c)))
    return Network(_EC2_NODES, tuple(edges))


def shortest_path_by_delay(
    net: Network, residual: np.ndarray, s: str, t: str
) -> Path | None:
    """Minimum-delay s->t path over edges with residual capacity above the
    network's ``zero_tol``.

    Ties are broken toward the lexicographically smallest node-identifier
    sequence. Returns None when t is unreachable.
    """
    si, ti = net.index_of(s), net.index_of(t)
    if si == ti:
        raise ValueError("source and sink must differ")
    residual = np.asarray(residual, dtype=np.float64)
    if residual.shape != (len(net.edges),):
        raise ValueError("residual must have one entry per edge")
    if np.any(residual < -net.zero_tol):
        raise ValueError("residual entries must be nonnegative")

    # Dijkstra with (delay, node-name path) keys; the path component makes
    # the tie-break deterministic. Graphs here are small enough that carrying
    # the path in the heap is cheap.
    heap: list[tuple[float, tuple[str, ...], int, tuple[int, ...]]] = [
        (0.0, (net.nodes[si],), si, ())
    ]
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
            # The popped path's nodes are all settled, so paths stay simple.
            if residual[k] <= net.zero_tol or e.v in settled:
                continue
            heapq.heappush(
                heap,
                (dist + e.delay, names + (net.nodes[e.v],), e.v, edge_seq + (k,)),
            )
    return None
