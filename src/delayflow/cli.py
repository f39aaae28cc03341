"""Command-line interface: run solvers, verify reports, reproduce the EC2
experiment sweeps, and dump random instances."""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import sys

import numpy as np

from delayflow.algorithms import (
    Counterpart,
    InfeasibleError,
    SolveReport,
    apply_pass,
    apply_pass_m,
    apply_pass_t,
    missed_guarantees,
    solve_counterpart,
    solve_pass,
    solve_pass_m,
    solve_pass_t,
)
from delayflow.baselines import solve_exact, solve_greedy
from delayflow.gen import random_problem
from delayflow.graph import (
    Network,
    Path,
    bound_tol,
    builtin_ec2,
    load_topology,
    serialize_topology,
)
from delayflow.lp import SolverError
from delayflow.problem import (
    IDENTITY,
    Commodity,
    CommodityMetrics,
    FlowSolution,
    Objective,
    ProblemSpec,
    evaluate_metrics,
    json_number,
    make_dcum,
    make_tcdm,
    objective_value,
    problem_from_json,
    problem_to_json,
    scaled_identity,
)

_SOLVERS = ("pass", "pass-m", "pass-t", "greedy", "exact")
#: A commodity's metrics, in report key and CSV column order.
_METRICS = tuple(f.name for f in dataclasses.fields(CommodityMetrics))


class UsageError(ValueError):
    pass


def _load_net(arg: str) -> Network:
    if arg == "ec2":
        return builtin_ec2()
    try:
        with open(arg) as fh:
            return load_topology(fh.read())
    except OSError as e:
        raise UsageError(f"cannot read topology {arg!r}: {e}") from None


def _run_solver(spec: ProblemSpec, algo: str, eps: float | None) -> SolveReport:
    if algo == "pass":
        if eps is None:
            raise UsageError("--eps is required for --algo pass")
        return solve_pass(spec, eps)
    if algo == "pass-m":
        return solve_pass_m(spec)
    if algo == "pass-t":
        return solve_pass_t(spec)
    if algo == "greedy":
        return solve_greedy(spec)
    return solve_exact(spec)


def _flows_to_json(net: Network, flows) -> list:
    out = []
    for pf in flows:
        out.append(
            [
                {
                    "edges": list(p.edges),
                    "nodes": list(p.nodes(net)),
                    "rate": r,
                    "delay": p.delay(net),
                }
                for p, r in pf
            ]
        )
    return out


def _flows_from_json(doc, spec: ProblemSpec) -> tuple[FlowSolution, list[str]]:
    """Path flows of a report, and the issues of path records whose
    ``nodes`` or ``delay`` are not the ones their edges give. Each path must
    be a simple path from its commodity's source to its sink, with a list
    of nodes; its rate and delay are JSON numbers (``json_number``)."""
    if not isinstance(doc, list) or not all(isinstance(pf, list) for pf in doc):
        raise ValueError("corrupt report: path flows must be a list of path lists")
    if len(doc) != len(spec.commodities):
        raise ValueError(
            f"corrupt report: {len(doc)} path-flow lists for "
            f"{len(spec.commodities)} commodities"
        )
    net = spec.network
    n_edges = len(net.heads)
    flows = []
    issues = []
    for i, (pf, c) in enumerate(zip(doc, spec.commodities)):
        paths = []
        for p in pf:
            path = Path(tuple(p["edges"]))
            for k in path.edges:
                if type(k) is not int or not 0 <= k < n_edges:
                    raise ValueError(
                        f"corrupt report: path edge index {k!r} is not an "
                        f"edge of the topology (0..{n_edges - 1})"
                    )
            try:
                nodes = path.nodes(net) if path.edges else None
            except ValueError:  # not contiguous, or repeats a node
                nodes = None
            if nodes is None or (nodes[0], nodes[-1]) != (c.source, c.sink):
                raise ValueError(
                    f"corrupt report: commodity {i}: edges {list(path.edges)} are "
                    f"not a simple path from {c.source} to {c.sink}"
                )
            where = f"commodity {i}: path {list(path.edges)}: "
            rate = json_number(p["rate"], f"corrupt report: {where}rate")
            if not math.isfinite(rate):
                raise ValueError(
                    f"corrupt report: commodity {i}: path rate {rate} is not finite"
                )
            recorded = p["nodes"]
            if not isinstance(recorded, list):
                raise ValueError(
                    f"corrupt report: commodity {i}: path nodes {recorded!r} are not a list"
                )
            issues += _mismatch("delay", p["delay"], path.delay(net), where)
            if recorded != list(nodes):
                issues.append(f"{where}recorded nodes {recorded} != recomputed {list(nodes)}")
            paths.append((path, rate))
        flows.append(paths)
    return FlowSolution(flows), issues


def report_to_json(spec: ProblemSpec, report: SolveReport) -> dict:
    net = spec.network
    doc = {
        "algorithm": report.algorithm,
        "objective": report.objective,
        "feasible": report.feasible,
        "epsilon": report.epsilon,
        "epsilon_max": report.epsilon_max,
        "epsilon_min": report.epsilon_min,
        "wall_time": report.wall_time,
        "topology": serialize_topology(net),
        "problem": problem_to_json(spec),
        "flows": _flows_to_json(net, report.solution.flows),
        "metrics": [{name: getattr(m, name) for name in _METRICS} for m in report.metrics],
    }
    if report.counterpart is not None:
        doc["counterpart_flows"] = _flows_to_json(net, report.counterpart.flows)
    return doc


def _mismatch(name: str, recorded, got: float | None, where: str = "") -> list[str]:
    """The issue, prefixed by ``where``, of a report whose ``recorded``
    value of ``name`` is not the recomputed ``got``, if it is not; where
    ``got`` is None, only null is. Otherwise a ``recorded`` value that is
    not a JSON number makes the report corrupt (ValueError)."""
    if got is None:
        if recorded is None:
            return []
        got = "null"
    elif abs(got - json_number(recorded, f"corrupt report: {where}{name}")) <= bound_tol(got):
        return []
    return [f"{where}recorded {name} {recorded} != recomputed {got}"]


def verify_report(doc: dict) -> list[str]:
    """Re-derive every claim in a serialized report from its embedded
    topology, problem, and flows. Returns a list of violations: those of
    the report's own fields, those of a PASS-family report's replay of its
    rule on its ``counterpart_flows``, then ``missed_guarantees`` of its
    algorithm.

    Feasibility allows the network's ``check_tol``, recorded values
    ``bound_tol``."""
    topology, feasible = doc["topology"], doc["feasible"]
    if not isinstance(topology, str):
        raise ValueError(
            f"corrupt report: topology must be a string, not {type(topology).__name__}"
        )
    if not isinstance(feasible, bool):
        raise ValueError(f"corrupt report: feasible must be true or false, not {feasible!r}")
    net = load_topology(topology)
    spec = problem_from_json(doc["problem"], net)
    sol, issues = _flows_from_json(doc["flows"], spec)
    if len(doc["metrics"]) != len(spec.commodities):
        raise ValueError(
            f"corrupt report: {len(doc['metrics'])} metrics records for "
            f"{len(spec.commodities)} commodities"
        )
    issues += sol.check_feasible(net, spec.commodities)
    metrics = evaluate_metrics(net, sol)
    for i, (m, rec) in enumerate(zip(metrics, doc["metrics"])):
        for name in _METRICS:
            issues += _mismatch(name, rec[name], getattr(m, name), f"commodity {i}: ")
    issues += _mismatch("objective", doc["objective"], objective_value(spec, metrics))

    algo = doc["algorithm"]
    hat_metrics = eps = eps_max = replay = None
    if algo in ("PASS", "PASS-M", "PASS-T"):
        hat, hat_issues = _flows_from_json(doc["counterpart_flows"], spec)
        issues += [
            "counterpart: " + s
            for s in hat_issues + hat.check_feasible(net, spec.commodities)
        ]
        cp = Counterpart(spec, hat, 0.0)
        if algo == "PASS":
            eps = json_number(doc["epsilon"], "corrupt report: epsilon")
            if not 0.0 < eps < 1.0:
                # A NaN, infinite or zero epsilon would void or break every
                # certificate below.
                issues.append(f"epsilon {doc['epsilon']} outside (0, 1)")
                return issues
        try:
            if algo == "PASS":
                replay = apply_pass(cp, eps)
            else:
                replay = apply_pass_m(cp) if algo == "PASS-M" else apply_pass_t(cp)
        except ValueError as e:  # a negative counterpart total, or an infinite D for PASS-M
            return issues + [f"{algo} cannot be replayed on counterpart_flows: {e}"]
        if sol.flows != replay.solution.flows:
            issues.append(f"flows differ from {algo} replayed on counterpart_flows")
        hat_metrics, eps_max = evaluate_metrics(net, hat), replay.epsilon_max
    for name in ("epsilon", "epsilon_max", "epsilon_min"):
        # GREEDY and EXACT record none.
        issues += _mismatch(name, doc[name], getattr(replay, name, None))
    if not feasible and (algo != "GREEDY" or not missed_guarantees(spec, algo, metrics)):
        # solve_greedy's rule; every other solver's result is feasible.
        issues.append("feasible false, but only a GREEDY result that misses a requirement is")
    try:
        return issues + missed_guarantees(
            spec, algo, metrics, hat_metrics, eps, eps_max, feasible
        )
    except ValueError as e:  # an unknown algorithm
        return issues + [str(e)]


# -- experiments -------------------------------------------------------------

#: The CSV columns; f, M, T and A are each commodity's ``_METRICS``, in order.
_CSV_HEADER = [
    "experiment", "R", "D", "w1", "w2", "eps", "algo", "objective", "feasible",
    *(f"{short}{k}" for k in (1, 2) for short in "fMTA"),
    "eps_max", "eps_min",
]


def _fmt6(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return str(int(x))
    if isinstance(x, float) and math.isinf(x):
        return "inf"
    return f"{x:.6f}" if isinstance(x, float) else str(x)


def _csv_row(experiment, params, report: SolveReport) -> list[str]:
    cells = [
        experiment,
        params.get("R"),
        params.get("D"),
        params.get("w1"),
        params.get("w2"),
        params.get("eps"),
        report.algorithm,
        report.objective,
        report.feasible,
        *(getattr(m, name) for m in report.metrics for name in _METRICS),
        report.epsilon_max,
        report.epsilon_min,
    ]
    return [_fmt6(c) for c in cells]


#: The EC2 sweeps' commodities: Virginia -> Singapore, Oregon -> Tokyo.
EC2_PAIRS = (("VA", "SI"), ("OR", "TO"))

#: The ``delayflow experiment`` sweeps, in the order the docs list them.
EXPERIMENTS = ("tcdm-eps", "tcdm-rate", "dcum-eps", "utility-weights")


def run_experiment(name: str, writer) -> list[tuple[dict, ProblemSpec, SolveReport]]:
    """Write one EC2 sweep as CSV and return its (params, spec, report)
    rows in row order. Each spec's counterpart is solved once, and every
    exact solve of the sweep shares one cache."""
    if name not in EXPERIMENTS:
        raise UsageError(f"unknown experiment {name!r}")
    net = builtin_ec2()
    exact = functools.partial(solve_exact, cache={})
    rows: list[tuple[dict, ProblemSpec, SolveReport]] = []

    def emit(params, spec, reports):
        for rep in reports:
            writer.writerow(_csv_row(name, params, rep))
            rows.append((params, spec, rep))

    writer.writerow(_CSV_HEADER)
    eps_grid = [k / 100 for k in range(1, 100)]
    if name == "tcdm-eps":
        spec = make_tcdm(net, [(s, t, 230.0, 1.0) for s, t in EC2_PAIRS])
        cp = solve_counterpart(spec)
        fixed = [apply_pass_t(cp), solve_greedy(spec), exact(spec)]
        for eps in eps_grid:
            emit({"R": 230.0, "eps": eps}, spec, [apply_pass(cp, eps), *fixed])
    elif name == "tcdm-rate":
        for r in range(116, 240):
            spec = make_tcdm(net, [(s, t, float(r), 1.0) for s, t in EC2_PAIRS])
            cp = solve_counterpart(spec)
            reports = [apply_pass(cp, 0.03), apply_pass_t(cp), solve_greedy(spec)]
            reports.append(exact(spec))
            emit({"R": float(r), "eps": 0.03}, spec, reports)
    elif name == "dcum-eps":
        spec = make_dcum(net, [(s, t, 150.0, IDENTITY) for s, t in EC2_PAIRS])
        cp = solve_counterpart(spec)
        fixed = [apply_pass_m(cp), solve_greedy(spec), exact(spec)]
        for eps in eps_grid:
            emit({"D": 150.0, "eps": eps}, spec, [apply_pass(cp, eps), *fixed])
    else:  # utility-weights
        for w1 in range(1, 11):
            for w2 in range(1, 11):
                comms = tuple(
                    Commodity(s, t, R=80.0, D=150.0, w=w, utility_t=scaled_identity(w))
                    for (s, t), w in zip(EC2_PAIRS, (float(w1), float(w2)))
                )
                spec = ProblemSpec(net, comms, Objective.SUM_THROUGHPUT_UTILITY)
                cp = solve_counterpart(spec)
                reports = [apply_pass(cp, 0.03), apply_pass_m(cp), apply_pass_t(cp)]
                reports += [solve_greedy(spec), exact(spec)]
                params = {"R": 80.0, "D": 150.0, "w1": w1, "w2": w2, "eps": 0.03}
                emit(params, spec, reports)
    return rows


# -- entry points ------------------------------------------------------------


def _open_out(path: str, **kwargs):
    try:
        return open(path, "w", **kwargs)
    except OSError as e:
        raise UsageError(f"cannot write {path!r}: {e}") from None


def _write_out(path: str | None, text: str) -> None:
    """Write ``text`` to ``path``, or print it when there is no path."""
    if not path:
        print(text)
        return
    with _open_out(path) as fh:
        fh.write(text + "\n")


def cmd_solve(args) -> int:
    net = _load_net(args.topo)
    try:
        with open(args.problem) as fh:
            spec = problem_from_json(json.load(fh), net)
    except OSError as e:
        raise UsageError(f"cannot read problem {args.problem!r}: {e}") from None
    except json.JSONDecodeError as e:
        raise UsageError(f"malformed problem file: {e}") from None
    try:
        report = _run_solver(spec, args.algo, args.eps)
    except InfeasibleError as e:
        print(f"infeasible: {e}", file=sys.stderr)
        return 2
    doc = report_to_json(spec, report)
    text = json.dumps(doc, indent=2)
    _write_out(args.out, text)
    if not report.feasible:
        # Only a result's missed guarantee makes a solver flag it infeasible.
        missed = missed_guarantees(spec, report.algorithm, report.metrics)
        print(f"infeasible: {missed[0]}", file=sys.stderr)
        return 2
    return 0


def cmd_verify(args) -> int:
    try:
        with open(args.report) as fh:
            doc = json.load(fh)
        issues = verify_report(doc)
    except OSError as e:
        raise UsageError(f"cannot read report: {e}") from None
    except (KeyError, TypeError, json.JSONDecodeError) as e:
        raise UsageError(f"corrupt report: {e}") from None
    for msg in issues:
        print(msg, file=sys.stderr)
    if issues:
        return 2
    print("ok")
    return 0


def cmd_experiment(args) -> int:
    out = _open_out(args.out, newline="") if args.out else sys.stdout
    try:
        run_experiment(args.name, csv.writer(out))
    finally:
        if args.out:
            out.close()
    return 0


def cmd_gen(args) -> int:
    rng = np.random.default_rng(args.seed)
    spec = random_problem(rng)
    doc = {
        "topology": serialize_topology(spec.network),
        "problem": problem_to_json(spec),
    }
    text = json.dumps(doc, indent=2)
    _write_out(args.out, text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delayflow",
        description="Multi-commodity flow optimization under delay constraints",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run one solver and write a JSON report")
    p.add_argument("--topo", required=True, help="topology file or 'ec2'")
    p.add_argument("--problem", required=True, help="problem JSON file")
    p.add_argument("--algo", required=True, choices=_SOLVERS)
    p.add_argument("--eps", type=float, help="deletion fraction in (0,1)")
    p.add_argument("--out", help="report path (default stdout)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="re-check a report's claims")
    p.add_argument("report", help="report JSON path")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("experiment", help="run a builtin EC2 sweep to CSV")
    p.add_argument("name", choices=EXPERIMENTS)
    p.add_argument("--out", help="CSV path (default stdout)")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("gen", help="emit a seeded random instance")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except SolverError as e:
        print(f"error: solver failure: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
