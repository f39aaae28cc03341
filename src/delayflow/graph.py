"""Directed network model, topology I/O, and delay-based shortest paths."""

from __future__ import annotations

import heapq
import math
from dataclasses import FrozenInstanceError, dataclass
from functools import partial

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


#: The checks of every edge of a network, in the order each edge meets
#: them. The first edge that fails one fails with the first it fails.
_EDGE_FAULTS = (
    "edge endpoint out of range",
    "self-loops are not allowed",
    "non-finite delay or capacity",
    "negative delay",
    "negative capacity",
)


class Network:
    """Immutable directed graph with per-edge delay (ms) and capacity (Mbps).

    Node identifiers are opaque strings; internally nodes get dense integer
    indices in declaration order so runs are deterministic. ``node_index``
    maps each name to its index. Edge k runs from node ``tails[k]`` to node
    ``heads[k]`` with delay ``delays[k]``, as given (tuples, for
    per-element reads); ``arc_tail``/``arc_head`` hold the same endpoints
    as integer arrays, and ``delay_array``/``capacity_array`` each edge's
    delay and capacity; ``out_capacity``/``in_capacity`` hold each node's
    total capacity out and in, summed in edge order. ``edges`` holds every
    edge as an ``Edge``: the ones passed in, or, for a network made by
    ``from_arrays``, ones built on first read.
    ``flow_unit`` is 2**ceil(log2(largest capacity)), or 1.0 when no edge
    has capacity; ``zero_tol`` and ``check_tol`` are ZERO_TOL and CHECK_TOL
    in that unit. ``max_path_delay``, the sum of the n-1 largest edge
    delays, bounds the delay of every simple path. ``least_delays[u, v]``
    is the least delay of a u->v walk, capacity ignored (inf where v is
    unreachable), computed on first read.
    """

    nodes: tuple[str, ...]
    tails: tuple[int, ...]
    heads: tuple[int, ...]
    delays: tuple[float, ...]
    out_edges: tuple[tuple[int, ...], ...]
    in_edges: tuple[tuple[int, ...], ...]
    arc_tail: np.ndarray
    arc_head: np.ndarray
    delay_array: np.ndarray
    capacity_array: np.ndarray
    out_capacity: np.ndarray
    in_capacity: np.ndarray
    node_index: dict[str, int]
    flow_unit: float
    zero_tol: float
    check_tol: float
    max_path_delay: float

    def __init__(self, nodes: tuple[str, ...], edges: tuple[Edge, ...]):
        edges = tuple(edges)
        self._build(
            nodes,
            [e.u for e in edges],
            [e.v for e in edges],
            [e.delay for e in edges],
            [e.capacity for e in edges],
        )
        object.__setattr__(self, "_edges", edges)

    @classmethod
    def from_arrays(cls, nodes, tails, heads, delays, capacities) -> Network:
        """The network whose edge k runs from node ``tails[k]`` to node
        ``heads[k]`` with delay ``delays[k]`` and capacity
        ``capacities[k]``, checked as ``Network(nodes, edges)`` checks it,
        without an ``Edge`` object."""
        net = cls.__new__(cls)
        net._build(nodes, tails, heads, delays, capacities)
        return net

    def _build(self, nodes, tails, heads, delays, capacities) -> None:
        put = partial(object.__setattr__, self)  # the class refuses assignment
        nodes = tuple(nodes)
        for name in nodes:  # one token of topology text, before any '#'
            if not isinstance(name, str) or name.split() != [name] or "#" in name:
                msg = "must be a non-empty string without whitespace or '#'"
                raise TopologyError(f"node name {name!r} {msg}")
        if len(set(nodes)) != len(nodes):
            raise TopologyError("duplicate node identifier")
        n = len(nodes)
        arc_tail, arc_head = np.array(tails), np.array(heads)
        for a in (arc_tail, arc_head):  # an endpoint that is no integer fails first
            if a.size and a.dtype.kind not in "biu":
                raise TopologyError(_EDGE_FAULTS[0])
        arc_tail, arc_head = arc_tail.astype(np.intp), arc_head.astype(np.intp)
        delay = np.array(delays, dtype=np.float64)
        capacity = np.array(capacities, dtype=np.float64)
        # Edges that fail any check: a negative or NaN number has no
        # least value >= 0, and an infinite one is the greater.
        bad = (
            (np.minimum(arc_tail, arc_head) < 0)
            | (np.maximum(arc_tail, arc_head) >= n)
            | (arc_tail == arc_head)
            | ~(np.minimum(delay, capacity) >= 0)
            | (np.maximum(delay, capacity) == math.inf)
        )
        if bad.any():
            k = int(bad.argmax())
            u, v, d, c = int(arc_tail[k]), int(arc_head[k]), float(delay[k]), float(capacity[k])
            fails = (
                not (0 <= u < n and 0 <= v < n),
                u == v,
                not (math.isfinite(d) and math.isfinite(c)),
                d < 0,
                c < 0,
            )
            raise TopologyError(_EDGE_FAULTS[fails.index(True)])
        put("nodes", nodes)
        put("tails", tuple(arc_tail.tolist()))
        put("heads", tuple(arc_head.tolist()))
        put("delays", tuple(delays))
        out, inc = adjacency(n, self.tails, self.heads)
        put("out_edges", tuple(map(tuple, out)))
        put("in_edges", tuple(map(tuple, inc)))
        arrays = {
            "arc_tail": arc_tail,
            "arc_head": arc_head,
            "delay_array": delay,
            "capacity_array": capacity,
            "out_capacity": np.bincount(arc_tail, weights=capacity, minlength=n),
            "in_capacity": np.bincount(arc_head, weights=capacity, minlength=n),
        }
        for name, a in arrays.items():
            a.flags.writeable = False  # the network is immutable
            put(name, a)
        put("node_index", {name: i for i, name in enumerate(nodes)})
        # Every path delay is at most the sum of all delays, so path delays
        # and rate-weighted delay sums stay finite.
        if not math.isfinite(sum(self.delays)):
            raise TopologyError("the sum of edge delays overflows a float")
        put("max_path_delay", sum(np.sort(delay)[::-1][: n - 1].tolist()))
        cap = float(capacity.max()) if capacity.size else 0.0
        mantissa, exp = math.frexp(cap)  # cap = mantissa * 2**exp, exactly
        try:
            unit = math.ldexp(1.0, exp - (mantissa == 0.5)) if cap > 0 else 1.0
        except OverflowError:
            raise TopologyError(
                f"capacity {cap} is too large: its flow unit 2**{exp} overflows a float"
            ) from None
        put("flow_unit", unit)
        put("zero_tol", ZERO_TOL * unit)
        put("check_tol", CHECK_TOL * unit)
        put("_edges", None)
        put("_least_delays", None)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.nodes, self.tails, self.heads, self.delays) == (
            other.nodes,
            other.tails,
            other.heads,
            other.delays,
        ) and np.array_equal(self.capacity_array, other.capacity_array)

    def __hash__(self):
        return hash((self.nodes, self.tails, self.heads, self.delays))

    def __repr__(self):
        return f"Network(nodes={self.nodes!r}, edges={self.edges!r})"

    # ``edges`` and ``least_delays`` are kept by ``object.__setattr__``. A
    # cached_property would write ``__dict__``, after which CPython 3.11
    # reads every attribute of the network slower.
    @property
    def edges(self) -> tuple[Edge, ...]:
        if self._edges is None:
            caps = self.capacity_array.tolist()
            edges = tuple(map(Edge, self.tails, self.heads, self.delays, caps))
            object.__setattr__(self, "_edges", edges)
        return self._edges

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
        return all(float(d).is_integer() for d in self.delays)


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
        tails, heads, nodes = net.tails, net.heads, net.nodes
        u = tails[self.edges[0]]
        names = [nodes[u]]
        for k in self.edges:
            if tails[k] != u:
                raise ValueError("path edges are not contiguous")
            u = heads[k]
            names.append(nodes[u])
        if len(set(names)) != len(names):
            raise ValueError("path repeats a node")
        return tuple(names)

    def delay(self, net: Network) -> float:
        return sum([net.delays[k] for k in self.edges])


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


def _check_numbers(lines: list[str], rows: list[int], delays, capacities) -> None:
    """Raise the error of the first edge whose delay or capacity is
    non-finite or negative: edge k was read from line ``rows[k]``, whose
    numbers ``_parse_number`` reads again. Each list is checked whole
    first: a finite sum has no NaN or infinity in it, and then its least
    value shows a negative one. A sum that overflows only costs the scan."""
    if all(math.isfinite(sum(x)) and min(x, default=0.0) >= 0 for x in (delays, capacities)):
        return
    for k, (d, c) in enumerate(zip(delays, capacities)):
        if not (0 <= d < math.inf and 0 <= c < math.inf):
            lineno = rows[k]
            _, _, _, delay, capacity = lines[lineno - 1].split()
            _parse_number(delay, "delay", lineno)
            _parse_number(capacity, "capacity", lineno)


def load_topology(text: str) -> Network:
    """Parse a line-oriented topology file.

    Directives: ``node <id>``, ``edge <u> <v> <delay_ms> <capacity_mbps>``,
    ``uedge ...`` (expands to both directions), ``#`` comments. Lines are
    counted as ``str.splitlines`` splits them, and numbers read by Python
    ``float``. Each line goes into index and number lists; the numbers are
    checked over the whole lists, and an error names the first faulty line.
    """
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    nodes: list[str] = []
    index: dict[str, int] = {}
    tails: list[int] = []
    heads: list[int] = []
    delays: list[float] = []
    capacities: list[float] = []
    rows: list[int] = []  # the line each edge was read from
    try:
        for lineno, parts in enumerate(map(str.split, lines), start=1):
            if not parts:
                continue
            kind = parts[0]
            if kind == "edge" or kind == "uedge":
                if len(parts) != 5:
                    raise TopologyError(
                        f"line {lineno}: expected '{kind} <u> <v> <delay> <capacity>'"
                    )
                _, u, v, d, c = parts
                try:
                    a, b = index[u], index[v]
                except KeyError:
                    name = v if u in index else u
                    raise TopologyError(f"line {lineno}: unknown node {name!r}") from None
                try:
                    d, c = float(d), float(c)
                except ValueError:  # one of them raises
                    _parse_number(d, "delay", lineno)
                    _parse_number(c, "capacity", lineno)
                tails.append(a)
                heads.append(b)
                delays.append(d)
                capacities.append(c)
                rows.append(lineno)
                if kind == "uedge":
                    tails.append(b)
                    heads.append(a)
                    delays.append(d)
                    capacities.append(c)
                    rows.append(lineno)
            elif kind == "node":
                if len(parts) != 2:
                    raise TopologyError(f"line {lineno}: expected 'node <id>'")
                name = parts[1]
                if name in index:
                    raise TopologyError(f"line {lineno}: duplicate node {name!r}")
                index[name] = len(nodes)
                nodes.append(name)
            else:
                raise TopologyError(f"line {lineno}: unknown directive {kind!r}")
    except TopologyError:
        _check_numbers(lines, rows, delays, capacities)  # an earlier line wins
        raise
    _check_numbers(lines, rows, delays, capacities)
    return Network.from_arrays(nodes, tails, heads, delays, capacities)


def _fmt(x: float) -> str:
    return str(int(x)) if float(x).is_integer() else repr(float(x))


def serialize_topology(net: Network) -> str:
    """Normalized topology text; inverse of load_topology on its own output.
    Each distinct number is formatted once."""
    names = net.nodes
    capacities = net.capacity_array.tolist()
    text = dict.fromkeys([*net.delays, *capacities])
    for x in text:
        text[x] = _fmt(x)
    lines = [f"node {n}" for n in names]
    lines += [
        f"edge {names[u]} {names[v]} {text[d]} {text[c]}"
        for u, v, d, c in zip(net.tails, net.heads, net.delays, capacities)
    ]
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
    if residual.shape != (len(net.heads),):
        raise ValueError("residual must have one entry per edge")
    if np.any(residual < -net.zero_tol):
        raise ValueError("residual entries must be nonnegative")

    # Dijkstra with (delay, node-name path) keys; the path component makes
    # the tie-break deterministic. Graphs here are small enough that carrying
    # the path in the heap is cheap.
    blocked = (residual <= net.zero_tol).tolist()
    heads, delays, names = net.heads, net.delays, net.nodes
    heap: list[tuple[float, tuple[str, ...], int, tuple[int, ...]]] = [
        (0.0, (names[si],), si, ())
    ]
    settled = [False] * len(names)
    while heap:
        dist, seq, u, edge_seq = heapq.heappop(heap)
        if settled[u]:
            continue
        settled[u] = True
        if u == ti:
            return Path(edge_seq)
        for k in net.out_edges[u]:
            v = heads[k]
            # The popped path's nodes are all settled, so paths stay simple.
            if blocked[k] or settled[v]:
                continue
            heapq.heappush(heap, (dist + delays[k], seq + (names[v],), v, edge_seq + (k,)))
    return None
