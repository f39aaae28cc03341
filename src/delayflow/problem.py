"""Problem model: commodities, piecewise-linear utilities, the average-delay
counterpart LPs, and flow-metric evaluation."""

from __future__ import annotations

import enum
import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass

import numpy as np

from delayflow.graph import Network, Path, unbalanced_nodes
from delayflow.lp import CsrRows, LinearProgram


@dataclass(frozen=True)
class PLFunction:
    """Piecewise-linear function given by breakpoints (a_k, u_k), a_0 = 0,
    strictly increasing a_k; the last segment extends with its final slope."""

    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        pts = tuple((float(a), float(u)) for a, u in self.points)
        object.__setattr__(self, "points", pts)
        if not pts:
            raise ValueError("PLFunction needs at least one breakpoint")
        for a, u in pts:
            if not (math.isfinite(a) and math.isfinite(u)):
                raise ValueError(f"breakpoint ({a}, {u}) is not finite")
        if pts[0][0] != 0.0:
            raise ValueError("first breakpoint must be at a=0")
        for (a0, _), (a1, _) in zip(pts, pts[1:]):
            if a1 <= a0:
                raise ValueError("breakpoint abscissae must strictly increase")
        for k, (slope, intercept) in enumerate(self.segments()):
            if not (math.isfinite(slope) and math.isfinite(intercept)):
                raise ValueError(
                    f"segment {k} (slope {slope}, intercept {intercept}) is not finite"
                )

    def slopes(self) -> list[float]:
        s = [
            (u1 - u0) / (a1 - a0)
            for (a0, u0), (a1, u1) in zip(self.points, self.points[1:])
        ]
        return s or [0.0]

    def segments(self) -> list[tuple[float, float]]:
        """(slope, intercept-at-zero) per segment, extended rightward."""
        out = []
        for (a0, u0), slope in zip(self.points, self.slopes()):
            out.append((slope, u0 - slope * a0))
        return out

    def value(self, a: float) -> float:
        if a < 0:
            raise ValueError("argument must be nonnegative")
        pts = self.points
        for (a0, u0), (a1, u1) in zip(pts, pts[1:]):
            if a <= a1:
                return u0 + (u1 - u0) / (a1 - a0) * (a - a0)
        a0, u0 = pts[-1]
        return u0 + self.slopes()[-1] * (a - a0)


IDENTITY = PLFunction(((0.0, 0.0), (1.0, 1.0)))


def scaled_identity(w: float) -> PLFunction:
    return PLFunction(((0.0, 0.0), (1.0, float(w))))


def _slope_scales(u: PLFunction) -> list[float]:
    """Per segment, the magnitude its computed slope's rounding error scales
    with: its breakpoints' largest |u| over its width. A narrow segment's
    slope carries more rounding than the slope itself suggests."""
    pts = u.points
    scales = [
        max(abs(u0), abs(u1)) / (a1 - a0) for (a0, u0), (a1, u1) in zip(pts, pts[1:])
    ]
    return scales or [0.0]


def _check_pl_shape(u: PLFunction, concave: bool) -> str | None:
    """None when u(0) >= 0, no slope is negative and the slopes never
    increase (``concave``) or never decrease; else the first violation."""
    if u.points[0][1] < 0:
        return f"u(0) = {u.points[0][1]} is negative"
    slopes = u.slopes()
    for k, s in enumerate(slopes):
        if s < 0:
            return f"segment {k} has negative slope {s} (not non-decreasing)"
    turn, shape = ("increase", "concave") if concave else ("decrease", "convex")
    scales = _slope_scales(u)
    for k, (s0, s1) in enumerate(zip(slopes, slopes[1:])):
        # Relative to the slopes compared and to the rounding each carries.
        tol = 1e-12 * max(1.0, abs(s0), abs(s1), scales[k], scales[k + 1])
        if (s1 > s0 + tol) if concave else (s1 < s0 - tol):
            return f"slopes {turn} at segment {k + 1} ({s0} -> {s1}, not {shape})"
    return None


def validate_utility_t(u: PLFunction) -> str | None:
    """Throughput utilities must be concave, non-decreasing, non-negative.
    Returns None when ok, else a description of the violation."""
    return _check_pl_shape(u, concave=True)


def validate_utility_d(u: PLFunction) -> str | None:
    """Delay penalties must be convex, non-decreasing, non-negative, and
    sublinear under argument scaling (U(sigma*a) <= sigma*U(a) for sigma>=1),
    which for PL functions is exactly: every segment line extended to a=0
    has a non-negative intercept."""
    msg = _check_pl_shape(u, concave=False)
    if msg:
        return msg
    segments = zip(u.points, u.segments(), _slope_scales(u))
    for k, ((a0, u0), (slope, intercept), scale) in enumerate(segments):
        # u0 - slope*a0 carries the slope's rounding times a0.
        if intercept < -1e-12 * max(1.0, abs(u0), abs(slope * a0), abs(a0) * scale):
            return (
                f"segment {k} line y = {slope}*a + {intercept} has negative "
                "intercept, so scaling the argument can outgrow the value"
            )
    return None


@dataclass(frozen=True)
class Commodity:
    source: str
    sink: str
    R: float = 0.0
    D: float = math.inf
    w: float = 1.0
    utility_t: PLFunction = IDENTITY
    utility_d: PLFunction = IDENTITY

    def __post_init__(self):
        if self.source == self.sink:
            raise ValueError("source and sink must differ")
        if not (math.isfinite(self.R) and self.R >= 0):
            raise ValueError(f"R must be finite and nonnegative, got {self.R}")
        if not self.D > 0:
            raise ValueError(f"D must be positive, got {self.D}")
        if not self.w >= 0:
            raise ValueError(f"w must be nonnegative, got {self.w}")


class Objective(enum.Enum):
    SUM_THROUGHPUT_UTILITY = "SumThroughputUtility"
    SUM_DELAY_PENALTY = "SumDelayPenalty"
    MIN_THROUGHPUT_UTILITY = "MinThroughputUtility"
    MAX_DELAY_PENALTY = "MaxDelayPenalty"

    @property
    def is_delay(self) -> bool:
        return self in (Objective.SUM_DELAY_PENALTY, Objective.MAX_DELAY_PENALTY)

    @property
    def combine(self) -> Callable[[Iterable[float]], float]:
        """How the per-commodity values combine into the objective: ``sum``,
        ``min`` (max-min throughput) or ``max`` (min-max delay)."""
        if self in (Objective.SUM_THROUGHPUT_UTILITY, Objective.SUM_DELAY_PENALTY):
            return sum
        return min if self is Objective.MIN_THROUGHPUT_UTILITY else max


@dataclass(frozen=True)
class ProblemSpec:
    """A network, its commodities and the objective, checked once, here:
    every endpoint is a node, each commodity meets the objective's
    conditions (a concave throughput utility, or a convex sublinear delay
    penalty with R > 0), and the objective stays finite at the largest
    metrics the network allows. So a spec that exists is valid."""

    network: Network
    commodities: tuple[Commodity, ...]
    objective: Objective

    def __post_init__(self):
        if not self.commodities:
            raise ValueError("need at least one commodity")
        net = self.network
        idx = net.node_index
        for c in self.commodities:
            for node in (c.source, c.sink):
                if node not in idx:
                    raise ValueError(f"unknown node {node!r}")
        for i, c in enumerate(self.commodities):
            if self.objective.is_delay:
                msg = validate_utility_d(c.utility_d)
                if msg:
                    raise ValueError(f"commodity {i} delay utility: {msg}")
                if c.R <= 0:
                    raise ValueError(
                        f"commodity {i}: delay objectives need R > 0 "
                        "(average delay undefined at zero rate)"
                    )
            else:
                msg = validate_utility_t(c.utility_t)
                if msg:
                    raise ValueError(f"commodity {i} throughput utility: {msg}")
        # A commodity carries at most its source's out-capacity, and no
        # simple path is slower than ``max_path_delay``. So a utility that
        # overflows a float is an input error, found here.
        longest = net.max_path_delay
        out_capacity = net.out_capacity.tolist()
        most = []
        for c in self.commodities:
            cap = out_capacity[idx[c.source]]
            most.append(CommodityMetrics(cap, longest, cap * longest, longest))
        objective_value(self, tuple(most))


@dataclass(frozen=True)
class FlowSolution:
    """Per-commodity path flows; the path-form of a point of the feasible
    multi-commodity flow polytope. Any sequence of (Path, rate) sequences
    is accepted and stored as nested tuples."""

    flows: tuple[tuple[tuple[Path, float], ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "flows", tuple(tuple(pf) for pf in self.flows))

    def edge_flow(self, net: Network, i: int) -> np.ndarray:
        """Commodity i's flow on every edge: one ``bincount`` over its paths'
        edges, which adds the rates in path order, as a loop would."""
        flow = self.flows[i]
        edges = np.array([k for path, _ in flow for k in path.edges], dtype=np.intp)
        rates = [rate for path, rate in flow for _ in path.edges]
        return np.bincount(edges, weights=rates, minlength=len(net.edges))

    def check_feasible(
        self, net: Network, commodities: tuple[Commodity, ...], tol: float | None = None
    ) -> list[str]:
        """Conservation, capacity, and nonnegativity violations (empty if ok),
        each allowed to miss by ``tol``, by default ``net.check_tol``."""
        if tol is None:
            tol = net.check_tol
        issues = []
        total = np.zeros(len(net.edges))
        for i, flow in enumerate(self.flows):
            for path, rate in flow:
                if rate < -tol:
                    issues.append(f"commodity {i}: negative path rate {rate}")
            x = self.edge_flow(net, i)
            total += x
            c = commodities[i]
            s, t = net.index_of(c.source), net.index_of(c.sink)
            bad, outflow, inflow = unbalanced_nodes(net, x, s, t, tol)
            for v in bad:
                # A node without in- or out-edges reads 0, as an empty sum.
                ins = inflow[v] if net.in_edges[v] else 0
                outs = outflow[v] if net.out_edges[v] else 0
                issues.append(
                    f"commodity {i}: conservation violated at {net.nodes[v]} "
                    f"(in {ins}, out {outs})"
                )
        for k in np.flatnonzero(total > net.capacity_array + tol).tolist():
            e = net.edges[k]
            issues.append(
                f"capacity exceeded on {net.nodes[e.u]}->{net.nodes[e.v]} "
                f"({total[k]} > {e.capacity})"
            )
        return issues


@dataclass(frozen=True)
class CommodityMetrics:
    throughput: float
    max_delay: float
    total_delay: float
    avg_delay: float


def evaluate_metrics(net: Network, sol: FlowSolution) -> tuple[CommodityMetrics, ...]:
    """Per commodity of ``sol``: |f|, the total rate; M(f), the largest
    delay of a path carrying more than ``net.zero_tol`` (0 when none does);
    T(f), the rate-weighted delay sum; and T(f)/|f| (0 when |f| is 0)."""
    out = []
    for flow in sol.flows:
        thr = sum(rate for _, rate in flow)
        total_d = sum(r * p.delay(net) for p, r in flow)
        max_d = max((p.delay(net) for p, r in flow if r > net.zero_tol), default=0.0)
        avg_d = total_d / thr if thr > 0 else 0.0
        out.append(CommodityMetrics(thr, max_d, total_d, avg_d))
    return tuple(out)


def objective_value(spec: ProblemSpec, metrics: tuple[CommodityMetrics, ...]) -> float:
    """The target objective evaluated at a solution's metrics. Throughput
    objectives are maximized; delay objectives report the penalty being
    minimized. Always a finite plain ``float``, whatever type the metrics
    hold; raises ValueError when a utility overflows to a non-finite value."""
    obj = spec.objective
    comms = spec.commodities
    if obj.is_delay:
        vals = [c.utility_d.value(m.max_delay) for c, m in zip(comms, metrics)]
    else:
        vals = [c.utility_t.value(m.throughput) for c, m in zip(comms, metrics)]
    value = float(obj.combine(vals))
    if not math.isfinite(value):
        raise ValueError(f"the {obj.value} objective overflows a float ({value})")
    return value


@dataclass(frozen=True)
class CounterpartMap:
    """Maps counterpart-LP variables back to model quantities. Columns
    ``arc_base[i]:arc_base[i+1]`` hold commodity i's arc flows (on the
    physical network, its flow on each edge). After the arcs come K rate
    columns |f_i|, then K epigraph columns and, for max-min objectives, one
    bound column; or, with a rate profile, the single scale column t."""

    arc_base: tuple[int, ...]

    def edge_flows(self, x: np.ndarray) -> list[np.ndarray]:
        """One view of ``x`` per commodity: its flow on each of its arcs."""
        b = self.arc_base
        return [x[lo:hi] for lo, hi in zip(b, b[1:])]


def build_counterpart(
    spec: ProblemSpec, graphs=None, profile: list[float] | None = None
) -> tuple[LinearProgram, CounterpartMap]:
    """Average-delay-aware counterpart LP of ``spec``.

    Throughput objectives get the relaxation with T(f_i) <= D_i*|f_i| and
    |f_i| >= R_i; delay objectives pin |f_i| = R_i and bound T(f_i) <=
    D_i*R_i, minimizing the penalty of the average delay T_i/R_i. PL
    utilities enter exactly through one epigraph variable per commodity.

    By default every commodity routes over the physical network.
    ``graphs`` instead gives one graph per commodity with the integer shape
    that ``decompose`` reads plus ``source`` (None when the commodity has
    no arcs), ``sink``, the integer arrays ``arc_tail`` and ``arc_head``,
    and ``edge_of``: arc j runs from node ``arc_tail[j]`` to
    ``arc_head[j]`` along physical edge ``edge_of[j]`` and counts against
    its capacity. These are the exact solver's time-expanded graphs, on
    which every walk meets its deadline, so they get no average-delay row.
    With ``profile`` the objective becomes max t subject to
    |f_i| >= t*profile_i.

    Rows, per commodity: the source row (net outflow - |f_i| = 0, or
    -|f_i| = 0 without a source), conservation at the other non-sink nodes
    in node order, then the profile row, or the requirement, delay and
    epigraph rows; then one capacity row per physical edge that some arc
    uses, in edge order; then the max-min bound rows. The entries are
    written per block, as (row, column, value) arrays: conservation from
    the graph's ``arc_tail``/``arc_head`` (the node-edge incidence), delay
    and epigraph rows as whole-array products, and capacity rows ranked by
    a ``bincount`` of the arcs' physical edges.
    """
    net = spec.network
    comms = spec.commodities
    K = len(comms)
    if graphs is None:
        every_edge = np.arange(len(net.edges))
        shapes = [
            (net, net.index_of(c.source), net.index_of(c.sink), every_edge)
            for c in comms
        ]
    else:
        shapes = [(g, g.source, g.sink, g.edge_of) for g in graphs]
    arc_base = [0]
    for *_, edges in shapes:
        arc_base.append(arc_base[-1] + len(edges))
    rate0 = arc_base[-1]  # |f_i| is column rate0 + i
    aux0 = nvars = rate0 + K  # then the epigraph columns, or the scale t
    bound_var = None
    if profile is not None:
        nvars += 1
    else:
        nvars += K
        if spec.objective.combine is not sum:
            bound_var = nvars
            nvars += 1

    is_delay = spec.objective.is_delay
    # Arc-sized blocks as (row, column, value) arrays; the few
    # per-commodity entries as lists, the last block.
    all_arcs = np.arange(rate0)
    blocks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    row_of: list[int] = []
    col_of: list[int] = []
    val_of: list[float] = []
    relations: list[str] = []
    rhs: list[float] = []

    def entry(row: int, col: int, val: float) -> None:
        row_of.append(row)
        col_of.append(col)
        val_of.append(val)

    for i, (c, (g, s, t, edges)) in enumerate(zip(comms, shapes)):
        arcs = all_arcs[arc_base[i] : arc_base[i + 1]]
        # Row of each node: the source row comes first, then the other
        # nodes in order; the sink has none (row -1, dropped by from_triplets).
        top = len(rhs)
        pos = np.arange(top + 1, top + 1 + len(g.nodes))
        pos[t + 1 :] -= 1
        if s is not None:
            pos[s + 1 :] -= 1
            pos[s] = top
        pos[t] = -1
        # +1 at the row of every arc's tail, -1 at its head's.
        blocks.append((pos[g.arc_tail], arcs, np.ones(arcs.size)))
        blocks.append((pos[g.arc_head], arcs, np.full(arcs.size, -1.0)))
        entry(top, rate0 + i, -1.0)
        n_rows = len(g.nodes) - (s is not None)
        relations += ["="] * n_rows
        rhs += [0.0] * n_rows
        row = top + n_rows
        if profile is not None:
            entry(row, rate0 + i, 1.0)
            entry(row, aux0, -profile[i])
            relations.append(">=")
            rhs.append(0.0)
            continue
        # Throughput requirement.
        if is_delay or c.R > 0:
            entry(row, rate0 + i, 1.0)
            relations.append("=" if is_delay else ">=")
            rhs.append(c.R)
            row += 1
        # Average-delay bound, dropped when D_i is infinite and on
        # time-expanded graphs, whose walks all meet the deadline.
        bounded = graphs is None and math.isfinite(c.D)
        if bounded or is_delay:  # rows on T(f_i), the rate-weighted delay sum
            delays = net.delay_array[edges]
        if bounded:
            blocks.append((np.full(arcs.size, row), arcs, delays))
            relations.append("<=")
            if is_delay:
                rhs.append(c.D * c.R)
            else:
                entry(row, rate0 + i, -c.D)
                rhs.append(0.0)
            row += 1
        # Epigraph rows for the PL utility.
        if is_delay:
            # aux_i >= U_d(T_i / R_i): R_i*aux_i - slope*T_i >= intercept*R_i
            segs = c.utility_d.segments()
            slopes = np.array([slope for slope, _ in segs])
            blocks.append((
                np.repeat(np.arange(row, row + len(segs)), arcs.size),
                np.tile(arcs, len(segs)),
                np.outer(-slopes, delays).ravel(),
            ))
            for k, (_, intercept) in enumerate(segs):
                entry(row + k, aux0 + i, c.R)
                relations.append(">=")
                rhs.append(intercept * c.R)
        else:
            # aux_i <= U_t(|f_i|): aux_i - slope*f_i <= intercept
            for k, (slope, intercept) in enumerate(c.utility_t.segments()):
                entry(row + k, aux0 + i, 1.0)
                entry(row + k, rate0 + i, -slope)
                relations.append("<=")
                rhs.append(intercept)

    # Link capacity coupling: one row per physical edge that some arc uses,
    # in edge order (on the physical network, every edge).
    arc_edge = np.concatenate([np.asarray(edges, dtype=np.intp) for *_, edges in shapes])
    used = np.bincount(arc_edge, minlength=len(net.edges)) > 0
    cap_rows = (len(rhs) - 1 + np.cumsum(used))[arc_edge]
    cap_rhs = net.capacity_array[used]
    blocks.append((cap_rows, all_arcs, np.ones(rate0)))
    relations += ["<="] * cap_rhs.size
    rhs_parts = [rhs, cap_rhs]

    objective = np.zeros(nvars)
    sense = "min" if is_delay and profile is None else "max"
    if profile is not None:
        objective[aux0] = 1.0
    elif bound_var is None:  # sum objectives
        objective[aux0 : aux0 + K] = 1.0
    else:  # max-min: the bound lies below every utility or above every penalty
        objective[bound_var] = 1.0
        top = len(relations)
        for i in range(K):
            entry(top + i, bound_var, 1.0)
            entry(top + i, aux0 + i, -1.0)
        relations += [">=" if is_delay else "<="] * K
        rhs_parts.append(np.zeros(K))

    lists = (np.array(row_of, dtype=np.intp), np.array(col_of, dtype=np.intp), np.array(val_of))
    rows, cols, vals = (np.concatenate(part) for part in zip(*blocks, lists))
    matrix = CsrRows.from_triplets(rows, cols, vals, (len(relations), nvars))
    lp = LinearProgram(sense, objective, matrix, tuple(relations), np.concatenate(rhs_parts))
    return lp, CounterpartMap(tuple(arc_base))


def make_tcdm(
    net: Network, demands: list[tuple[str, str, float, float]]
) -> ProblemSpec:
    """Throughput-constrained weighted max-delay minimization: demands are
    (source, sink, R, w); no delay bound."""
    comms = tuple(
        Commodity(s, t, R=R, D=math.inf, w=w, utility_d=scaled_identity(w))
        for s, t, R, w in demands
    )
    return ProblemSpec(net, comms, Objective.SUM_DELAY_PENALTY)


def make_dcum(
    net: Network, demands: list[tuple[str, str, float, PLFunction]]
) -> ProblemSpec:
    """Delay-constrained throughput-utility maximization: demands are
    (source, sink, D, utility_t); no throughput requirement."""
    comms = tuple(
        Commodity(s, t, R=0.0, D=D, utility_t=u) for s, t, D, u in demands
    )
    return ProblemSpec(net, comms, Objective.SUM_THROUGHPUT_UTILITY)


# -- problem spec JSON ------------------------------------------------------

_OBJECTIVE_NAMES = {o.value: o for o in Objective}


def _number(obj: dict, key: str, default) -> float:
    value = obj.get(key, default)
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{key} must be a number, got {value!r}") from None


def _pl_from_json(obj, key: str) -> PLFunction:
    points = obj.get("points") if isinstance(obj, dict) else None
    try:
        pts = tuple((float(a), float(u)) for a, u in points)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{key} points must be a list of [a, u] number pairs") from None
    try:
        return PLFunction(pts)
    except ValueError as e:
        raise ValueError(f"{key}: {e}") from None


def _pl_to_json(u: PLFunction):
    return {"points": [[a, v] for a, v in u.points]}


def _known_keys(obj: dict, keys: tuple[str, ...]) -> None:
    """Raise ValueError naming the first key of ``obj`` not in ``keys``."""
    for key in obj:
        if key not in keys:
            raise ValueError(f"unknown key {key!r} (expected one of {', '.join(keys)})")


def _commodity_from_json(c) -> Commodity:
    if not isinstance(c, dict):
        raise ValueError(f"must be a JSON object, got {c!r}")
    _known_keys(c, ("src", "dst", "R", "D", "w", "utility_t", "utility_d"))
    for key in ("src", "dst"):
        if not isinstance(c.get(key), str):
            raise ValueError(f"{key} must be a node name, got {c.get(key)!r}")
    return Commodity(
        source=c["src"],
        sink=c["dst"],
        R=_number(c, "R", 0.0),
        D=_number(c, "D", "inf"),
        w=_number(c, "w", 1.0),
        utility_t=_pl_from_json(c["utility_t"], "utility_t") if "utility_t" in c else IDENTITY,
        utility_d=_pl_from_json(c["utility_d"], "utility_d") if "utility_d" in c else IDENTITY,
    )


def problem_from_json(doc, net: Network) -> ProblemSpec:
    """Parse a problem document; a ValueError names the first bad field or
    unknown key. Missing keys take their defaults."""
    if not isinstance(doc, dict):
        raise ValueError("problem must be a JSON object")
    _known_keys(doc, ("objective", "commodities"))
    name = doc.get("objective")
    if not isinstance(name, str) or name not in _OBJECTIVE_NAMES:
        raise ValueError(f"unknown objective {name!r}")
    raw = doc.get("commodities")
    if not isinstance(raw, list):
        raise ValueError(f"commodities must be a list, got {raw!r}")
    comms = []
    for i, c in enumerate(raw):
        try:
            comms.append(_commodity_from_json(c))
        except ValueError as e:
            raise ValueError(f"commodity {i}: {e}") from None
    return ProblemSpec(net, tuple(comms), _OBJECTIVE_NAMES[name])


def problem_to_json(spec: ProblemSpec) -> dict:
    return {
        "objective": spec.objective.value,
        "commodities": [
            {
                "src": c.source,
                "dst": c.sink,
                "R": c.R,
                "D": "inf" if math.isinf(c.D) else c.D,
                "w": c.w,
                "utility_t": _pl_to_json(c.utility_t),
                "utility_d": _pl_to_json(c.utility_d),
            }
            for c in spec.commodities
        ],
    }
