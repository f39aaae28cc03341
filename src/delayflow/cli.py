"""Command-line interface: run solvers, verify reports, reproduce the EC2
experiment sweeps, and dump random instances."""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

import numpy as np

from delayflow.algorithms import (
    InfeasibleError,
    SolveReport,
    check_lemma1,
    solve_pass,
    solve_pass_m,
    solve_pass_t,
)
from delayflow.baselines import solve_exact, solve_greedy
from delayflow.gen import random_problem
from delayflow.graph import Network, Path, builtin_ec2, load_topology, serialize_topology
from delayflow.lp import SolverError
from delayflow.problem import (
    IDENTITY,
    VERIFY_TOL,
    Commodity,
    FlowSolution,
    Objective,
    ProblemSpec,
    evaluate_metrics,
    make_dcum,
    make_tcdm,
    objective_value,
    problem_from_json,
    problem_to_json,
    scaled_identity,
)

_SOLVERS = ("pass", "pass-m", "pass-t", "greedy", "exact")


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


def _flows_from_json(doc, spec: ProblemSpec) -> FlowSolution:
    """Path flows of a report; each path must be a simple path from its
    commodity's source to its sink."""
    if len(doc) != len(spec.commodities):
        raise ValueError(
            f"corrupt report: {len(doc)} path-flow lists for "
            f"{len(spec.commodities)} commodities"
        )
    net = spec.network
    n_edges = len(net.edges)
    flows = []
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
            rate = float(p["rate"])
            if not math.isfinite(rate):
                raise ValueError(
                    f"corrupt report: commodity {i}: path rate {rate} is not finite"
                )
            paths.append((path, rate))
        flows.append(paths)
    return FlowSolution(flows)


def report_to_json(spec: ProblemSpec, report: SolveReport) -> dict:
    net = spec.network
    doc = {
        "algorithm": report.algorithm,
        "objective": report.objective,
        "feasible": report.feasible,
        "epsilon": report.epsilon,
        "epsilon_max": report.epsilon_max,
        "epsilon_min": report.epsilon_min,
        "lambda": report.lam,
        "wall_time": report.wall_time,
        "topology": serialize_topology(net),
        "problem": problem_to_json(spec),
        "flows": _flows_to_json(net, report.solution.flows),
        "metrics": [
            {
                "throughput": m.throughput,
                "max_delay": m.max_delay,
                "total_delay": m.total_delay,
                "avg_delay": m.avg_delay,
            }
            for m in report.metrics
        ],
    }
    if report.counterpart is not None:
        doc["counterpart_flows"] = _flows_to_json(net, report.counterpart.flows)
    return doc


def verify_report(doc: dict) -> list[str]:
    """Re-derive every claim in a serialized report from its embedded
    topology, problem, and flows. Returns a list of violations."""
    tol = VERIFY_TOL
    topology = doc["topology"]
    if not isinstance(topology, str):
        raise ValueError(
            f"corrupt report: topology must be a string, not {type(topology).__name__}"
        )
    net = load_topology(topology)
    spec = problem_from_json(doc["problem"], net)
    sol = _flows_from_json(doc["flows"], spec)
    if len(doc["metrics"]) != len(spec.commodities):
        raise ValueError(
            f"corrupt report: {len(doc['metrics'])} metrics records for "
            f"{len(spec.commodities)} commodities"
        )
    issues = sol.check_feasible(net, spec.commodities, tol)
    metrics = evaluate_metrics(net, sol)
    for i, (m, rec) in enumerate(zip(metrics, doc["metrics"])):
        for name, got in (
            ("throughput", m.throughput),
            ("max_delay", m.max_delay),
            ("total_delay", m.total_delay),
            ("avg_delay", m.avg_delay),
        ):
            if not abs(got - float(rec[name])) <= max(tol, tol * abs(got)):
                issues.append(
                    f"commodity {i}: recorded {name} {rec[name]} "
                    f"!= recomputed {got}"
                )
    obj = objective_value(spec, metrics)
    if not abs(obj - float(doc["objective"])) <= max(tol, tol * abs(obj)):
        issues.append(f"recorded objective {doc['objective']} != recomputed {obj}")

    algo = doc["algorithm"]
    hat = None
    if "counterpart_flows" in doc:
        hat = _flows_from_json(doc["counterpart_flows"], spec)
        issues += [
            "counterpart: " + s
            for s in hat.check_feasible(net, spec.commodities, tol)
        ]
    if algo == "PASS":
        eps = float(doc["epsilon"])
        if not 0.0 < eps < 1.0:
            # A NaN, infinite or zero epsilon would void or break every
            # certificate below.
            issues.append(f"epsilon {doc['epsilon']} outside (0, 1)")
            return issues
        for i, (c, m) in enumerate(zip(spec.commodities, metrics)):
            if m.throughput < (1 - eps) * c.R - tol:
                issues.append(
                    f"commodity {i}: throughput {m.throughput} below "
                    f"(1-eps)*R = {(1 - eps) * c.R}"
                )
            if math.isfinite(c.D) and m.max_delay > c.D / eps + tol:
                issues.append(
                    f"commodity {i}: max delay {m.max_delay} exceeds "
                    f"D/eps = {c.D / eps}"
                )
        if hat is not None:
            for i in range(len(spec.commodities)):
                ok, slack = check_lemma1(net, hat.flows[i], sol.flows[i], eps)
                if not ok:
                    issues.append(
                        f"commodity {i}: deletion inequality violated "
                        f"(slack {slack})"
                    )
    elif algo == "PASS-M":
        for i, (c, m) in enumerate(zip(spec.commodities, metrics)):
            if m.max_delay > c.D + tol:
                issues.append(
                    f"commodity {i}: max delay {m.max_delay} exceeds bound {c.D}"
                )
        if hat is not None and doc.get("epsilon_max") is not None:
            eps_max = float(doc["epsilon_max"])
            if not 0.0 <= eps_max <= 1.0:
                issues.append(f"epsilon_max {doc['epsilon_max']} outside [0, 1]")
                return issues
            hat_metrics = evaluate_metrics(net, hat)
            for i, (hm, m) in enumerate(zip(hat_metrics, metrics)):
                if m.throughput < (1 - eps_max) * hm.throughput - tol:
                    issues.append(
                        f"commodity {i}: throughput {m.throughput} below "
                        f"(1-eps_max)*counterpart = {(1 - eps_max) * hm.throughput}"
                    )
    elif algo == "PASS-T":
        for i, (c, m) in enumerate(zip(spec.commodities, metrics)):
            if m.throughput < c.R - tol:
                issues.append(
                    f"commodity {i}: throughput {m.throughput} below "
                    f"requirement {c.R}"
                )
    elif algo in ("GREEDY", "EXACT"):
        for i, (c, m) in enumerate(zip(spec.commodities, metrics)):
            if math.isfinite(c.D) and m.max_delay > c.D + tol:
                issues.append(
                    f"commodity {i}: max delay {m.max_delay} exceeds bound {c.D}"
                )
            if doc["feasible"] and m.throughput < c.R - tol:
                issues.append(
                    f"commodity {i}: throughput {m.throughput} below "
                    f"requirement {c.R}"
                )
    else:
        issues.append(f"unknown algorithm {algo!r}")
    return issues


# -- experiments -------------------------------------------------------------

_CSV_HEADER = [
    "experiment",
    "R",
    "D",
    "w1",
    "w2",
    "eps",
    "algo",
    "objective",
    "feasible",
    "f1",
    "M1",
    "T1",
    "A1",
    "f2",
    "M2",
    "T2",
    "A2",
    "eps_max",
    "eps_min",
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
    m1, m2 = report.metrics
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
        m1.throughput,
        m1.max_delay,
        m1.total_delay,
        m1.avg_delay,
        m2.throughput,
        m2.max_delay,
        m2.total_delay,
        m2.avg_delay,
        report.epsilon_max,
        report.epsilon_min,
    ]
    return [_fmt6(c) for c in cells]


#: The EC2 sweeps' commodities: Virginia -> Singapore, Oregon -> Tokyo.
EC2_PAIRS = (("VA", "SI"), ("OR", "TO"))


def _utility_spec(net, w1, w2):
    (s1, t1), (s2, t2) = EC2_PAIRS
    return ProblemSpec(
        net,
        (
            Commodity(s1, t1, R=80.0, D=150.0, w=w1, utility_t=scaled_identity(w1)),
            Commodity(s2, t2, R=80.0, D=150.0, w=w2, utility_t=scaled_identity(w2)),
        ),
        Objective.SUM_THROUGHPUT_UTILITY,
    )


def run_experiment(name: str, writer) -> None:
    net = builtin_ec2()
    writer.writerow(_CSV_HEADER)
    eps_grid = [k / 100 for k in range(1, 100)]
    if name == "tcdm-eps":
        spec = make_tcdm(net, [(s, t, 230.0, 1.0) for s, t in EC2_PAIRS])
        fixed = [
            solve_pass_t(spec),
            solve_greedy(spec),
            solve_exact(spec, deadline_cap=900.0),
        ]
        for eps in eps_grid:
            params = {"R": 230.0, "eps": eps}
            writer.writerow(_csv_row(name, params, solve_pass(spec, eps)))
            for rep in fixed:
                writer.writerow(_csv_row(name, params, rep))
    elif name == "tcdm-rate":
        cache: dict = {}
        for r in range(116, 240):
            spec = make_tcdm(net, [(s, t, float(r), 1.0) for s, t in EC2_PAIRS])
            params = {"R": float(r), "eps": 0.03}
            for rep in (
                solve_pass(spec, 0.03),
                solve_pass_t(spec),
                solve_greedy(spec),
                solve_exact(spec, cache=cache, deadline_cap=900.0),
            ):
                writer.writerow(_csv_row(name, params, rep))
    elif name == "dcum-eps":
        spec = make_dcum(net, [(s, t, 150.0, IDENTITY) for s, t in EC2_PAIRS])
        fixed = [solve_pass_m(spec), solve_greedy(spec), solve_exact(spec)]
        for eps in eps_grid:
            params = {"D": 150.0, "eps": eps}
            writer.writerow(_csv_row(name, params, solve_pass(spec, eps)))
            for rep in fixed:
                writer.writerow(_csv_row(name, params, rep))
    elif name == "utility-weights":
        for w1 in range(1, 11):
            for w2 in range(1, 11):
                spec = _utility_spec(net, float(w1), float(w2))
                params = {"R": 80.0, "D": 150.0, "w1": w1, "w2": w2, "eps": 0.03}
                for rep in (
                    solve_pass(spec, 0.03),
                    solve_pass_m(spec),
                    solve_pass_t(spec),
                    solve_greedy(spec),
                    solve_exact(spec),
                ):
                    writer.writerow(_csv_row(name, params, rep))
    else:
        raise UsageError(f"unknown experiment {name!r}")


# -- entry points ------------------------------------------------------------


def cmd_solve(args) -> int:
    net = _load_net(args.topo)
    try:
        with open(args.problem) as fh:
            spec = problem_from_json(json.load(fh), net)
    except OSError as e:
        raise UsageError(f"cannot read problem {args.problem!r}: {e}") from None
    except json.JSONDecodeError as e:
        raise UsageError(f"malformed problem file: {e}") from None
    if args.algo == "pass" and args.eps is not None and not 0 < args.eps < 1:
        raise UsageError("--eps must lie in (0, 1)")
    try:
        report = _run_solver(spec, args.algo, args.eps)
    except InfeasibleError as e:
        print(f"infeasible: {e}", file=sys.stderr)
        return 2
    doc = report_to_json(spec, report)
    text = json.dumps(doc, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0 if report.feasible else 2


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
    out = open(args.out, "w", newline="") if args.out else sys.stdout
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
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
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
    p.add_argument(
        "name", choices=["tcdm-eps", "tcdm-rate", "dcum-eps", "utility-weights"]
    )
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
