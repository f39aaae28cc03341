import csv
import dataclasses
import hashlib
import io
import json
import sys
import time

import numpy as np
import pytest
import scipy
from scipy.optimize._highspy._core import HighsModelStatus

from delayflow import algorithms, baselines
from delayflow import lp as lp_module
from delayflow.cli import _csv_row, main, report_to_json, verify_report
from delayflow.graph import Path, load_topology, serialize_topology
from delayflow.problem import (
    FlowSolution,
    evaluate_metrics,
    make_tcdm,
    objective_value,
    problem_from_json,
    problem_to_json,
)


@pytest.fixture
def two_parallel_files(tmp_path, two_parallel):
    topo = tmp_path / "net.topo"
    topo.write_text(serialize_topology(two_parallel))
    prob = tmp_path / "prob.json"
    prob.write_text(
        json.dumps(
            {
                "objective": "SumDelayPenalty",
                "commodities": [{"src": "s", "dst": "t", "R": 2.0}],
            }
        )
    )
    return str(topo), str(prob)


@pytest.mark.parametrize(
    "algo,extra",
    [
        ("pass", ["--eps", "0.5"]),
        ("pass-t", []),
        ("greedy", []),
        ("exact", []),
    ],
)
def test_solve_verify_round_trip(two_parallel_files, tmp_path, algo, extra):
    topo, prob = two_parallel_files
    out = str(tmp_path / "report.json")
    rc = main(
        ["solve", "--topo", topo, "--problem", prob, "--algo", algo, "--out", out]
        + extra
    )
    assert rc == 0
    assert main(["verify", out]) == 0


def test_verify_catches_corrupted_rate(two_parallel_files, tmp_path, capsys):
    topo, prob = two_parallel_files
    out = tmp_path / "report.json"
    main(
        ["solve", "--topo", topo, "--problem", prob, "--algo", "pass-t",
         "--out", str(out)]
    )
    doc = json.loads(out.read_text())
    doc["flows"][0][0]["rate"] += 5.0  # overload the fast edge
    out.write_text(json.dumps(doc))
    assert main(["verify", str(out)]) == 2
    err = capsys.readouterr().err
    assert "capacity exceeded" in err and "s->t" in err


def test_verify_catches_delay_certificate_violation(
    two_parallel_files, tmp_path, capsys
):
    topo, prob = two_parallel_files
    out = tmp_path / "report.json"
    main(
        ["solve", "--topo", topo, "--problem", prob, "--algo", "pass", "--eps",
         "0.5", "--out", str(out)]
    )
    doc = json.loads(out.read_text())
    # claim a much smaller epsilon: the slow path now breaks M <= D/eps
    doc["problem"]["commodities"][0]["D"] = 0.1
    doc["epsilon"] = 0.05
    # move the surviving flow onto the slow edge to break the bound
    doc["flows"][0] = [
        {"edges": [1], "nodes": ["s", "t"], "rate": 1.0, "delay": 10.0}
    ]
    doc["counterpart_flows"][0] = doc["flows"][0]
    doc["metrics"][0] = {
        "throughput": 1.0,
        "max_delay": 10.0,
        "total_delay": 10.0,
        "avg_delay": 10.0,
    }
    doc["objective"] = 10.0
    out.write_text(json.dumps(doc))
    assert main(["verify", str(out)]) == 2
    assert "D/eps" in capsys.readouterr().err


def _report(two_parallel_files, tmp_path, algo, d=None):
    """The JSON report of one solve on two_parallel (R = 2), with the delay
    bound ``d`` when given; PASS runs at eps 0.5."""
    topo, prob = two_parallel_files
    if d is not None:
        with open(prob) as fh:
            body = json.load(fh)
        body["commodities"][0]["D"] = d
        prob = tmp_path / "bounded.json"
        prob.write_text(json.dumps(body))
    out = tmp_path / f"{algo}.json"
    argv = ["solve", "--topo", topo, "--problem", str(prob), "--algo", algo]
    assert main(argv + ["--eps", "0.5", "--out", str(out)]) == 0
    return json.loads(out.read_text())


def _rerecord(doc):
    """Record the metrics and objective of the report's (edited) flows."""
    net = load_topology(doc["topology"])
    spec = problem_from_json(doc["problem"], net)
    sol = FlowSolution(
        [(Path(tuple(p["edges"])), p["rate"]) for p in pf] for pf in doc["flows"]
    )
    metrics = evaluate_metrics(net, sol)
    doc["metrics"] = [dataclasses.asdict(m) for m in metrics]
    doc["objective"] = objective_value(spec, metrics)


def _slow_path_only(doc):
    """Move PASS's surviving unit of rate onto the slow edge: the floor
    (1-eps)*R still holds, but T + eps*|f_hat|*M = 10 + 0.5*2*10 > 11."""
    doc["flows"][0] = [{"edges": [1], "nodes": ["s", "t"], "rate": 1.0, "delay": 10.0}]
    _rerecord(doc)


def _half_rate(doc):
    """Halve PASS-M's kept path: below (1-eps_max)*|f_hat| = 0.5*2, with
    eps_max replayed from the counterpart, not read from the report."""
    doc["flows"][0][0]["rate"] = 0.5
    _rerecord(doc)


def _commodity(**fields):
    return lambda doc: doc["problem"]["commodities"][0].update(fields)


@pytest.mark.parametrize(
    "algo,d,corrupt,message",
    [
        ("pass", None, lambda doc: doc.update(epsilon=0.25),
         "commodity 0: throughput 1.0 below (1-eps)*R = 1.5"),
        ("pass", None, _slow_path_only,
         "commodity 0: deletion inequality violated (slack -9.0)"),
        ("pass-m", 6.0, _commodity(D=0.5), "commodity 0: max delay 1.0 exceeds bound 0.5"),
        ("pass-m", 6.0, _half_rate,
         "commodity 0: throughput 0.5 below (1-eps_max)*counterpart = 1.0"),
        ("pass-t", None, _commodity(R=3.0), "commodity 0: throughput 2.0 below requirement 3.0"),
        ("greedy", None, _commodity(D=5.0), "commodity 0: max delay 10.0 exceeds bound 5.0"),
        ("greedy", None, _commodity(R=3.0), "commodity 0: throughput 2.0 below requirement 3.0"),
        ("exact", None, _commodity(D=5.0), "commodity 0: max delay 10.0 exceeds bound 5.0"),
        ("exact", None, _commodity(R=3.0), "commodity 0: throughput 2.0 below requirement 3.0"),
    ],
    ids=["pass-floor", "pass-deletion", "pass-m-bound", "pass-m-floor", "pass-t-requirement",
         "greedy-bound", "greedy-requirement", "exact-bound", "exact-requirement"],
)
def test_verify_catches_each_guarantee(
    two_parallel_files, tmp_path, capsys, algo, d, corrupt, message
):
    doc = _report(two_parallel_files, tmp_path, algo, d)
    corrupt(doc)
    out = tmp_path / "report.json"
    out.write_text(json.dumps(doc))
    assert main(["verify", str(out)]) == 2
    assert message + "\n" in capsys.readouterr().err


def _pass_m_strays(doc):
    doc["counterpart_flows"][0] = []


def _no_flows(doc):
    """Delete every flow and record the metrics of none: every PASS
    guarantee on EC2 DCUM (R = 0) still holds."""
    doc["flows"] = [[] for _ in doc["flows"]]
    _rerecord(doc)


def _no_counterpart(doc):
    _no_flows(doc)
    del doc["counterpart_flows"]


def _negative_counterpart(doc):
    for p in doc["counterpart_flows"][0]:
        p["rate"] = -p["rate"]


@pytest.mark.parametrize(
    "algo,corrupt,rc,message",
    [
        ("pass-t", lambda doc: doc["counterpart_flows"][0][0].update(rate=0.0), 2,
         "flows differ from PASS-T replayed on counterpart_flows"),
        ("pass-t", lambda doc: doc["counterpart_flows"][0][0].update(rate=5.0), 2,
         "flows differ from PASS-T replayed on counterpart_flows"),
        ("pass-m", _pass_m_strays, 2, "flows differ from PASS-M replayed on counterpart_flows"),
        ("pass-m", lambda doc: doc.update(epsilon_max=True), 1,
         "error: corrupt report: epsilon_max must be a number, got True"),
        ("pass-m", lambda doc: doc.update(epsilon_min=0.25), 2,
         "recorded epsilon_min 0.25 != recomputed 0.5"),
        ("ec2-pass", _no_flows, 2, "flows differ from PASS replayed on counterpart_flows"),
        ("ec2-pass-m", _no_counterpart, 1,
         "error: corrupt report: counterpart_flows must be a list, got nothing"),
        ("pass", _negative_counterpart, 2,
         "PASS cannot be replayed on counterpart_flows: deletion amount -1.0 outside [0, -2.0]"),
        ("pass-m", _commodity(D="inf"), 2, "PASS-M cannot be replayed on counterpart_flows: "
         "commodity 0: PASS-M needs a finite delay bound"),
        ("ec2-pass", lambda doc: doc.update(epsilon_max=0.7, epsilon_min="x"), 2,
         "recorded epsilon_max 0.7 != recomputed null"),
        ("ec2-greedy", lambda doc: doc.update(epsilon=0.5, epsilon_max=0.9), 2,
         "recorded epsilon 0.5 != recomputed null"),
    ],
    ids=["pass-t-rate-0", "pass-t-rate-5", "pass-m-strays", "pass-m-eps-max-true",
         "pass-m-eps-min", "ec2-pass-no-flows", "ec2-pass-m-no-counterpart",
         "pass-negative-counterpart", "pass-m-unbounded", "ec2-pass-eps-max",
         "ec2-greedy-eps"],
)
def test_verify_binds_report_to_its_counterpart(
    two_parallel_files, tmp_path, capsys, request, algo, corrupt, rc, message
):
    """Each PASS-family report's flows and epsilons are its rule replayed on
    its counterpart flows, which it must carry. An ``ec2-`` case corrupts
    a report of ``ec2_dcum_reports``, the others one on two_parallel."""
    if algo.startswith("ec2-"):
        doc = json.loads(request.getfixturevalue("ec2_dcum_reports")[algo[4:]])
    else:
        doc = _report(two_parallel_files, tmp_path, algo, 6.0 if algo == "pass-m" else None)
    corrupt(doc)
    out = tmp_path / "report.json"
    out.write_text(json.dumps(doc))
    assert main(["verify", str(out)]) == rc
    assert message + "\n" in capsys.readouterr().err


@pytest.mark.parametrize(
    "corrupt,message",
    [
        (lambda doc: doc.update(feasible=1), "feasible must be true or false, got 1"),
        (lambda doc: doc.update(feasible="yes"), "feasible must be true or false, got 'yes'"),
        (lambda doc: doc.update(feasible=None), "feasible must be true or false, got None"),
        (lambda doc: doc["flows"].__setitem__(0, {}), "flows[0] must be a list, got {}"),
        (lambda doc: doc.update(flows={}), "flows must be a list, got {}"),
        (lambda doc: doc["counterpart_flows"].__setitem__(0, {}),
         "counterpart_flows[0] must be a list, got {}"),
        (lambda doc: doc.update(metrics=None), "metrics must be a list, got None"),
        (lambda doc: doc["metrics"].__setitem__(0, list(doc["metrics"][0].values())),
         "metrics[0] must be a JSON object, got [1.0, 1.0, 1.0, 1.0]"),
        (lambda doc: doc["flows"][0][0].update(edges=5), "flows[0][0].edges must be a list, got 5"),
        (lambda doc: doc["metrics"][0].__delitem__("throughput"),
         "commodity 0: throughput must be a number, got nothing"),
        (lambda doc: doc.update(algorithm=5),
         "algorithm must be one of PASS, PASS-M, PASS-T, GREEDY, EXACT, got 5"),
        (lambda doc: [doc["algorithm"]], "the report must be a JSON object, got ['PASS']"),
    ],
    ids=["feasible-1", "feasible-str", "feasible-none", "path-list-object", "flows-object",
         "counterpart-path-list-object", "metrics-null", "metrics-record-list", "edges-int",
         "throughput-missing", "algorithm-int", "report-list"],
)
def test_verify_rejects_mistyped_fields(two_parallel_files, tmp_path, capsys, corrupt, message):
    """Each case edits a PASS report in place, or returns the document that
    replaces it."""
    doc = _report(two_parallel_files, tmp_path, "pass")
    doc = corrupt(doc) or doc
    out = tmp_path / "report.json"
    out.write_text(json.dumps(doc))
    assert main(["verify", str(out)]) == 1
    assert capsys.readouterr().err == f"error: corrupt report: {message}\n"


def _set_path(key, value, flows="flows"):
    return lambda doc: doc[flows][0][0].update({key: value})


@pytest.mark.parametrize(
    "corrupt,rc,message",
    [
        (_set_path("delay", -1), 2, "commodity 0: path [0]: recorded delay -1 != recomputed 1.0"),
        (_set_path("delay", float("nan")), 2, "path [0]: recorded delay nan != recomputed 1.0"),
        (_set_path("nodes", ["XX"]), 2,
         "commodity 0: path [0]: recorded nodes ['XX'] != recomputed ['s', 't']"),
        (_set_path("nodes", []), 2, "path [0]: recorded nodes [] != recomputed ['s', 't']"),
        (_set_path("delay", 99, "counterpart_flows"), 2,
         "counterpart: commodity 0: path [0]: recorded delay 99 != recomputed 1.0"),
        (_set_path("nodes", "st"), 1,
         "error: corrupt report: commodity 0: path [0]: nodes must be a list, got 'st'"),
        (_set_path("nodes", {}), 1,
         "error: corrupt report: commodity 0: path [0]: nodes must be a list, got {}"),
        (_set_path("delay", "x"), 1,
         "error: corrupt report: commodity 0: path [0]: delay must be a number, got 'x'"),
        (_set_path("delay", None), 1,
         "error: corrupt report: commodity 0: path [0]: delay must be a number, got None"),
        (_set_path("delay", True), 1,
         "error: corrupt report: commodity 0: path [0]: delay must be a number, got True"),
        # Each value below equals the recorded number it replaces.
        (_set_path("rate", "1.0"), 1,
         "error: corrupt report: commodity 0: path [0]: rate must be a number, got '1.0'"),
        (lambda doc: doc["metrics"][0].update(throughput=" 1.0 "), 1,
         "error: corrupt report: commodity 0: throughput must be a number, got ' 1.0 '"),
        (lambda doc: doc["metrics"][0].update(max_delay=True), 1,
         "error: corrupt report: commodity 0: max_delay must be a number, got True"),
        (lambda doc: doc.update(objective="1.0"), 1,
         "error: corrupt report: objective must be a number, got '1.0'"),
        (lambda doc: doc.update(epsilon="0.5"), 1,
         "error: corrupt report: epsilon must be a number, got '0.5'"),
        (lambda doc: doc.update(epsilon=None), 1,
         "error: corrupt report: epsilon must be a number, got None"),
    ],
    ids=["delay-negative", "delay-nan", "nodes-other", "nodes-empty", "counterpart-delay",
         "nodes-str", "nodes-object", "delay-str", "delay-none", "delay-bool", "rate-str",
         "metric-str", "metric-bool", "objective-str", "epsilon-str", "epsilon-none"],
)
def test_verify_recomputes_path_nodes_and_delay(
    two_parallel_files, tmp_path, capsys, corrupt, rc, message
):
    """A path record's ``nodes`` and ``delay`` restate its ``edges``: a
    mismatch is a violation. A mistyped value, or a recorded number that is
    not a JSON number (``json_number``), makes a corrupt report."""
    doc = _report(two_parallel_files, tmp_path, "pass")
    corrupt(doc)
    out = tmp_path / "report.json"
    out.write_text(json.dumps(doc))
    assert main(["verify", str(out)]) == rc
    assert message + "\n" in capsys.readouterr().err


_ZERO_DELAY_TOPOLOGY = """node n0
node n1
node n2
node n3
node n4
edge n0 n2 0 4
edge n1 n0 2 3
edge n1 n3 2 1
edge n1 n4 0 2
edge n2 n0 0 4
edge n2 n1 0 3
edge n2 n3 0 3
edge n2 n4 1 2
edge n3 n0 2 5
edge n3 n2 0 2
edge n4 n0 2 1
edge n4 n2 0 5
"""


def test_exact_cancels_zero_delay_cycles(tmp_path, capsys):
    """Zero-delay cycles let a walk within a deadline revisit nodes at no
    cost; the exact solver's simple paths lose nothing by that. 14 is the
    optimum that ``_oracle_throughput`` in test_baselines.py finds by brute
    force."""
    topo = tmp_path / "net.topo"
    topo.write_text(_ZERO_DELAY_TOPOLOGY)
    prob = tmp_path / "prob.json"
    prob.write_text(json.dumps({
        "objective": "SumThroughputUtility",
        "commodities": [
            {"src": "n0", "dst": "n4", "D": 1},
            {"src": "n1", "dst": "n0", "D": 3, "utility_t": {"points": [[0, 0], [1, 2]]}},
        ],
    }))
    out = tmp_path / "report.json"
    argv = ["solve", "--topo", str(topo), "--problem", str(prob), "--algo", "exact"]
    assert main(argv + ["--out", str(out)]) == 0
    assert json.loads(out.read_text())["objective"] == 14.0
    assert main(["verify", str(out)]) == 0
    assert capsys.readouterr().out.endswith("ok\n")


def test_exact_past_its_path_budget_is_one_line_and_exit_1(tmp_path, capsys):
    """On a complete 12-node digraph n0 has millions of simple paths to
    n11; the exact solver stops at its path budget, well before any LP."""
    nodes = [f"n{i}" for i in range(12)]
    topo = tmp_path / "net.topo"
    topo.write_text(
        "".join(f"node {v}\n" for v in nodes)
        + "".join(f"edge {u} {v} 1 1\n" for u in nodes for v in nodes if u != v)
    )
    prob = tmp_path / "prob.json"
    prob.write_text(json.dumps({
        "objective": "SumThroughputUtility",
        "commodities": [{"src": "n0", "dst": "n11"}],
    }))
    argv = ["solve", "--topo", str(topo), "--problem", str(prob), "--algo", "exact"]
    t0 = time.perf_counter()
    assert main(argv) == 1
    assert time.perf_counter() - t0 < 10.0
    assert capsys.readouterr().err == (
        f"error: solver failure: more than {baselines.PATH_BUDGET} simple n0->n11 "
        "paths within delay 11.0, the exact solver's path budget\n"
    )


def _nan_rates(doc):
    for p in doc["flows"][0]:
        p["rate"] = float("nan")


def _nan_records(doc):
    doc["metrics"][0]["max_delay"] = float("nan")
    doc["objective"] = float("nan")


#: (exit code, start of stderr) of the cases below that are not corrupt
#: reports, by message.
_NOT_CORRUPT = {
    "recorded objective nan != recomputed": (
        2, "commodity 0: recorded max_delay nan != recomputed 10.0"),
}


@pytest.mark.parametrize(
    "corrupt,message",
    [
        # An explicit id names the case where the message no longer does.
        pytest.param(lambda doc: doc["flows"][0][0].update(edges=[999]),
                     "flows[0][0].edges[0] must be an edge index (0..1), got 999",
                     id="<lambda>-edge index 999"),
        pytest.param(lambda doc: doc["flows"].append(doc["flows"][0]),
                     "flows holds 2 entries for 1 commodities", id="<lambda>-2 path-flow lists"),
        pytest.param(lambda doc: doc.update(metrics=[]),
                     "metrics holds 0 entries for 1 commodities",
                     id="<lambda>-0 metrics records for 1 commodities"),
        (lambda doc: doc["flows"][0][0].update(edges=[]), "not a simple path from s to t"),
        (lambda doc: doc["flows"][0][0].update(edges=[0, 1]), "edges [0, 1] are not a simple"),
        # json.loads reads 1e400 as float("inf"), written back as Infinity.
        *(
            pytest.param(lambda doc, v=v: doc.update(topology=v),
                         f"topology must be a string, got {v!r}",
                         id=f"<lambda>-topology must be a string, not {type(v).__name__}")
            for v in [None, 5, float("inf"), [], {}, True]
        ),
        (_nan_rates, "commodity 0: path rate nan is not finite"),
        (_nan_records, "recorded objective nan != recomputed"),
        (lambda doc: doc["problem"]["commodities"][0].update(R=float("nan")),
         "R must be finite and nonnegative, got nan"),
    ],
)
def test_verify_rejects_malformed_flows(
    two_parallel_files, tmp_path, capsys, corrupt, message
):
    topo, prob = two_parallel_files
    out = tmp_path / "report.json"
    main(
        ["solve", "--topo", topo, "--problem", prob, "--algo", "pass-t",
         "--out", str(out)]
    )
    doc = json.loads(out.read_text())
    corrupt(doc)
    out.write_text(json.dumps(doc))
    rc, start = _NOT_CORRUPT.get(message, (1, "error: corrupt report: "))
    assert main(["verify", str(out)]) == rc
    err = capsys.readouterr().err
    assert err.startswith(start) and message in err


_BAD_PROBLEMS = [
    ({"objective": "SumDelayPenalty", "commodities": 5}, "commodities must be a list"),
    ({"objective": "SumDelayPenalty", "commodities": [5]}, "commodity 0: must be a JSON object"),
    ({"objective": "SumDelayPenalty",
      "commodities": [{"src": "s", "dst": "t", "R": None}]}, "commodity 0: R must be a number"),
    ({"objective": "SumDelayPenalty",
      "commodities": [{"src": "s", "dst": "t", "R": 10**400}]}, "commodity 0: R must be a number"),
    ({"objective": "SumDelayPenalty",
      "commodities": [{"src": ["s"], "dst": "t", "R": 2.0}]}, "commodity 0: src must be a node"),
    ({"objective": "SumDelayPenalty",
      "commodities": [{"src": "s", "dst": "t", "R": 2.0, "utility_d": {"points": 5}}]},
     "commodity 0: utility_d points must be a list"),
    (["SumDelayPenalty"], "problem must be a JSON object"),
    ({"objective": "SumDelayPenalty",
      "commodities": [{"src": "s", "dst": "t", "R": float("nan")}]},
     "commodity 0: R must be finite and nonnegative, got nan"),
    ({"objective": "SumDelayPenalty",
      "commodities": [{"src": "s", "dst": "t", "R": "inf"}]},
     "commodity 0: R must be finite and nonnegative, got inf"),
    ({"objective": "SumDelayPenalty",
      "commodities": [{"src": "s", "dst": "t", "R": 2.0, "D": float("nan")}]},
     "commodity 0: D must be positive, got nan"),
    ({"objective": "SumThroughputUtility",
      "commodities": [{"src": "s", "dst": "t",
                       "utility_t": {"points": [[0, 0], [1, float("nan")]]}}]},
     "commodity 0: utility_t: breakpoint (1.0, nan) is not finite"),
    ({"objective": "SumThroughputUtility",
      "commodities": [{"src": "s", "dst": "t",
                       "utility_t": {"points": [[0, 0], ["inf", 1]]}}]},
     "commodity 0: utility_t: breakpoint (inf, 1.0) is not finite"),
    ({"objective": "SumThroughputUtility",
      "commodities": [{"src": "s", "dst": "t", "w": float("nan")}]},
     "commodity 0: w must be nonnegative, got nan"),
    ({"objective": "SumThroughputUtility",
      "commodities": [{"src": "s", "dst": "t",
                       "utility_t": {"points": [[0, 0], [1e-300, 1e300]]}}]},
     "commodity 0: utility_t: segment 0 (slope inf, intercept nan) is not finite"),
    ({"objective": "SumDelayPenalty",
      "commodities": [{"src": "s", "dst": "t", "R": 1.0,
                       "utility_d": {"points": [[0, 0], [100, 200], [1000, 300]]}}]},
     "commodity 0 delay utility: slopes decrease at segment 1"),
    ({"objective": "MaxDelayPenalty", "commodities": [{"src": "s", "dst": "t", "R": 0}]},
     "commodity 0: delay objectives need R > 0"),
    # Strings and booleans are not JSON numbers, whatever float() makes of them.
    ({"objective": "SumDelayPenalty",
      "commodities": [{"src": "s", "dst": "t", "R": 2.0, "D": " 150 "}]},
     "commodity 0: D must be a number, got ' 150 '"),
    ({"objective": "SumDelayPenalty",
      "commodities": [{"src": "s", "dst": "t", "R": 2.0, "w": True}]},
     "commodity 0: w must be a number, got True"),
    ({"objective": "SumDelayPenalty", "commodities": [{"src": "s", "dst": "t", "R": "5"}]},
     "commodity 0: R must be a number, got '5'"),
    ({"objective": "SumThroughputUtility",
      "commodities": [{"src": "s", "dst": "t", "utility_t": {"points": [[0, 0], ["1", "1"]]}}]},
     "commodity 0: utility_t points must be a list of [a, u] number pairs"),
]


@pytest.mark.parametrize("body,message", _BAD_PROBLEMS)
def test_malformed_problem_exits_1(two_parallel_files, tmp_path, capsys, body, message):
    topo, prob = two_parallel_files
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(body))
    rc = main(["solve", "--topo", topo, "--problem", str(bad), "--algo", "pass-t"])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")
    # the same body embedded in a report
    out = tmp_path / "report.json"
    main(["solve", "--topo", topo, "--problem", prob, "--algo", "pass-t", "--out", str(out)])
    doc = json.loads(out.read_text())
    doc["problem"] = body
    out.write_text(json.dumps(doc))
    assert main(["verify", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: corrupt report: problem: {message}")


@pytest.fixture(scope="module")
def ec2_dcum_reports(ec2_sweeps):
    """JSON reports of PASS (eps 0.3), PASS-M and GREEDY of the dcum-eps
    sweep."""
    return {
        rep.algorithm.lower(): json.dumps(report_to_json(spec, rep))
        for params, spec, rep in ec2_sweeps["dcum-eps"].rows
        if params["eps"] == 0.3 and rep.algorithm in ("PASS", "PASS-M", "GREEDY")
    }


#: PASS-M's epsilon_max on EC2 DCUM at D = 150.
_DCUM_EPS_MAX = 0.5065415721095999


@pytest.mark.parametrize(
    "algo,value,message",
    [
        *(
            pytest.param("pass-m", v, f"recorded epsilon_max {v} != recomputed {_DCUM_EPS_MAX}",
                         id=f"pass-m-{v}")
            for v in (float("nan"), float("inf"), 5.0)
        ),
        ("pass", float("nan"), "epsilon nan outside (0, 1)"),
        ("pass", float("inf"), "epsilon inf outside (0, 1)"),
        ("pass", 0.0, "epsilon 0.0 outside (0, 1)"),
    ],
)
def test_verify_rejects_epsilon_out_of_range(
    ec2_dcum_reports, tmp_path, capsys, algo, value, message
):
    doc = json.loads(ec2_dcum_reports[algo])
    doc["epsilon_max" if algo == "pass-m" else "epsilon"] = value
    out = tmp_path / "report.json"
    out.write_text(json.dumps(doc))
    assert main(["verify", str(out)]) == 2
    assert capsys.readouterr().err == message + "\n"


def _highs_fails(monkeypatch):
    monkeypatch.setattr(lp_module, "_AUTO_TABLEAU_CELLS", 0)
    monkeypatch.setattr(
        lp_module, "linprog", lambda model, presolve: (HighsModelStatus.kSolveError, None)
    )


def _highs_breaks_rows(monkeypatch):
    monkeypatch.setattr(lp_module, "_AUTO_TABLEAU_CELLS", 0)
    monkeypatch.setattr(
        lp_module,
        "linprog",
        lambda model, presolve: (
            HighsModelStatus.kOptimal,
            np.full(model.num_col, 1e3),
        ),
    )


#: ``solve_lp``'s message when HiGHS calls a bounded LP unbounded.
UNBOUNDED = "LP solver failure: an LP engine reported the LP unbounded"


def _highs_says_unbounded(monkeypatch):
    monkeypatch.setattr(lp_module, "_AUTO_TABLEAU_CELLS", 0)
    monkeypatch.setattr(
        lp_module, "linprog", lambda model, presolve: (HighsModelStatus.kUnbounded, None)
    )


def _simplex_stalls_highs_fails(monkeypatch):
    """The tableau gives the LP up, and HiGHS fails on it too."""
    monkeypatch.setattr(lp_module, "simplex_iterations", lambda *args: False)
    monkeypatch.setattr(
        lp_module, "linprog", lambda model, presolve: (HighsModelStatus.kSolveError, None)
    )


def _highs_binding_missing(monkeypatch):
    """Importing the HiGHS binding raises ImportError."""
    monkeypatch.setattr(lp_module, "_AUTO_TABLEAU_CELLS", 0)
    monkeypatch.setitem(sys.modules, lp_module._BINDING, None)
    lp_module._highs.cache_clear()


@pytest.mark.parametrize(
    "algo,patch,message",
    [
        ("pass", _highs_fails, "LP solver failure: HiGHS model status kSolveError"),
        ("pass-t", _highs_breaks_rows, "LP solver failure: HiGHS solution violates"),
        ("exact", _highs_fails, "LP solver failure: HiGHS model status kSolveError"),
        ("exact", _highs_says_unbounded, UNBOUNDED),
        ("pass-t", _highs_says_unbounded, UNBOUNDED),
        ("pass", _simplex_stalls_highs_fails, "LP solver failure: HiGHS model status kSolveError"),
        (
            "pass",
            _highs_binding_missing,
            f"cannot import HiGHS (scipy.optimize._highspy._core) with scipy {scipy.__version__}:",
        ),
    ],
)
def test_solver_failure_exits_1(two_parallel_files, capsys, monkeypatch, algo, patch, message):
    topo, prob = two_parallel_files
    patch(monkeypatch)
    rc = main(
        ["solve", "--topo", topo, "--problem", prob, "--algo", algo, "--eps", "0.5"]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: solver failure: " + message)
    assert "Traceback" not in err


def test_solve_rejects_non_finite_capacity(two_parallel_files, tmp_path, capsys):
    _, prob = two_parallel_files
    topo = tmp_path / "inf.topo"
    topo.write_text("node s\nnode t\nedge s t 5 inf\n")
    rc = main(["solve", "--topo", str(topo), "--problem", prob, "--algo", "pass-t"])
    assert rc == 1
    assert "line 3: non-finite capacity" in capsys.readouterr().err


@pytest.mark.parametrize(
    "topology,message",
    [
        ("node s\nnode t\nedge s t 1 1e308\n",
         "capacity 1e+308 is too large: its flow unit 2**1024 overflows a float"),
        ("node s\nnode m\nnode t\nedge s m 1e308 1\nedge m t 1e308 1\n",
         "the sum of edge delays overflows a float"),
    ],
    ids=["capacity", "delay-sum"],
)
def test_overflowing_topology_exits_1(two_parallel_files, tmp_path, capsys, topology, message):
    topo, prob = two_parallel_files
    big = tmp_path / "big.topo"
    big.write_text(topology)
    for algo in ("pass-t", "greedy", "exact"):
        rc = main(["solve", "--topo", str(big), "--problem", prob, "--algo", algo])
        err = capsys.readouterr().err
        assert rc == 1 and err == f"error: {message}\n", algo
    # the same topology embedded in a report
    out = tmp_path / "report.json"
    main(["solve", "--topo", topo, "--problem", prob, "--algo", "pass-t", "--out", str(out)])
    doc = json.loads(out.read_text())
    doc["topology"] = topology
    out.write_text(json.dumps(doc))
    assert main(["verify", str(out)]) == 1
    assert capsys.readouterr().err == f"error: corrupt report: topology: {message}\n"


def test_solve_rejects_bad_epsilon(two_parallel_files, capsys):
    topo, prob = two_parallel_files
    rc = main(
        ["solve", "--topo", topo, "--problem", prob, "--algo", "pass", "--eps", "1.5"]
    )
    assert rc == 1
    assert "eps" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--topo", "{topo}", "--problem", "{prob}", "--algo", "pass-t",
         "--out", "{missing}"],
        ["experiment", "tcdm-eps", "--out", "{dir}"],
        ["gen", "--seed", "1", "--out", "{missing}"],
    ],
    ids=["solve", "experiment", "gen"],
)
def test_unwritable_out_exits_1(two_parallel_files, tmp_path, capsys, argv):
    topo, prob = two_parallel_files
    missing = str(tmp_path / "no-such-dir" / "out.json")
    paths = {"topo": topo, "prob": prob, "missing": missing, "dir": str(tmp_path)}
    rc = main([a.format(**paths) for a in argv])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {argv[-1].format(**paths)!r}: ")
    assert "Traceback" not in err


def test_solve_infeasible_exit_code(two_parallel_files, tmp_path, capsys):
    topo, _ = two_parallel_files
    prob = tmp_path / "big.json"
    prob.write_text(
        json.dumps(
            {
                "objective": "SumDelayPenalty",
                "commodities": [{"src": "s", "dst": "t", "R": 3.0}],
            }
        )
    )
    rc = main(
        ["solve", "--topo", topo, "--problem", str(prob), "--algo", "pass",
         "--eps", "0.1"]
    )
    assert rc == 2
    assert "infeasible" in capsys.readouterr().err


def test_exact_huge_requirement_exits_2_before_any_lp(tmp_path, capsys, monkeypatch):
    """R=1e308 exceeds every source's out-capacity, so the exact solver says
    infeasible before its first LP."""

    def no_lp(lp):
        raise AssertionError("the exact solver solved an LP")

    monkeypatch.setattr(baselines, "solve_lp", no_lp)
    prob = tmp_path / "huge.json"
    prob.write_text(
        json.dumps(
            {
                "objective": "SumDelayPenalty",
                "commodities": [
                    {"src": "VA", "dst": "SI", "R": 1e308},
                    {"src": "OR", "dst": "TO", "R": 230},
                ],
            }
        )
    )
    rc = main(["solve", "--topo", "ec2", "--problem", str(prob), "--algo", "exact"])
    assert rc == 2
    assert capsys.readouterr().err == (
        "infeasible: requirements of VA->SI total 1e+308, above the capacity out of VA (317.0)\n"
    )


_SHORT_ENDPOINTS = [
    (
        {
            "objective": "SumThroughputUtility",
            "commodities": [
                {"src": "VA", "dst": "SI", "R": 0, "D": 150},
                {"src": "OR", "dst": "TO", "R": 1e308, "D": 150},
            ],
        },
        "requirements of OR->TO total 1e+308, above the capacity out of OR (447.0)",
    ),
    (
        {
            "objective": "SumThroughputUtility",
            "commodities": [
                {"src": "VA", "dst": "SI", "R": 200, "D": 150},
                {"src": "VA", "dst": "TO", "R": 200, "D": 150},
            ],
        },
        "requirements of VA->SI, VA->TO total 400.0, above the capacity out of VA (317.0)",
    ),
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "algo", [["pass", "--eps", "0.03"], ["pass-m"], ["pass-t"], ["exact"]],
    ids=["pass", "pass-m", "pass-t", "exact"],
)
@pytest.mark.parametrize("problem,message", _SHORT_ENDPOINTS, ids=["OR-1e308", "VA-shared"])
def test_every_lp_solver_names_a_short_endpoint_before_any_lp(
    tmp_path, capsys, monkeypatch, algo, problem, message
):
    """One endpoint rule for PASS, PASS-M, PASS-T and EXACT: the same
    single line, exit 2, no LP and no numpy warning."""
    calls = []
    for module in (algorithms, baselines):
        monkeypatch.setattr(module, "solve_lp", lambda lp: calls.append(lp))
    prob = tmp_path / "short.json"
    prob.write_text(json.dumps(problem))
    rc = main(["solve", "--topo", "ec2", "--problem", str(prob), "--algo", *algo])
    assert rc == 2
    assert capsys.readouterr().err == f"infeasible: {message}\n"
    assert not calls


#: Valid EC2 problems that generated input found, each of which exited 1 or
#: wrote a report that ``verify`` rejects.
_GENERATED = {
    # The tableau's optimum broke conservation by 27.8 at VA (objective
    # 7513.8 where HiGHS finds 4008.2); its x now fails the row check and
    # HiGHS solves the LP.
    "tableau-x-breaks-rows": ("pass-t", {
        "objective": "MaxDelayPenalty",
        "commodities": [
            {"src": "SP", "dst": "OR", "R": 43.16018508603089, "utility_d": {"points": [
                [0.0, 0.2], [170.3181502343755, 6563.950141364235],
                [423.3018321423987, 16313.593148019583],
                [423.3028321423987, 16313.631686703664],
                [424.3028321423987, 16352.170601277276]]}},
            {"src": "SP", "dst": "OR", "R": 1.5, "utility_d": {"points": [
                [0.0, 967.5169172728513], [65.8906625451624, 1000.4622485454324],
                [230.85333010368598, 1082.9435823246943],
                [231.85333010368598, 1083.4435823246943]]}},
        ],
    }),
    # The tableau left -8.4e-10 on IR->TO and 1.7e-9 on IR->SI, which no
    # flow leaves: a negative rate within check_tol reads 0, and a walk
    # stranded on such a fragment is dropped.
    "rounding-fragment": ("pass-t", {
        "objective": "SumDelayPenalty",
        "commodities": [
            {"src": "IR", "dst": "VA", "R": 198.3988764843983, "D": 921.8035502814324,
             "utility_d": {"points": [
                 [0.0, 698.4293828757799], [153.20964006296214, 13858.372082951231],
                 [191.41306300721408, 17217.406343500603],
                 [377.9294402702611, 33616.85544266515],
                 [378.9294402702611, 33705.80552662428]]}},
            {"src": "SI", "dst": "OR", "R": 57.52055534441893, "utility_d": {"points": [
                [0.0, 977.1416298924398], [7.098163976869029, 977.1416298924398],
                [306.09816397686905, 23459.68344169427],
                [307.09816397686905, 23536.3244876153]]}},
        ],
    }),
    # PASS-M kept every path; the two rates, summed in different orders,
    # gave epsilon_max = -2.1e-16, which verify read as outside [0, 1].
    "pass-m-removes-nothing": ("pass-m", {
        "objective": "SumThroughputUtility",
        "commodities": [
            {"src": "SP", "dst": "SI", "R": 0.0, "D": 690.0796012627657, "utility_t": {
                "points": [[0.0, 791.3274798947882], [67.23152065341365, 2856.7353965781435]]}},
        ],
    }),
    # The row check of the tableau's optimum multiplied D = 1e308 by a rate
    # above 1.8, which overflows a float: numpy's overflow warning.
    "delay-bound-1e308": ("pass --eps 0.03", {
        "objective": "SumThroughputUtility",
        "commodities": [{"src": "VA", "dst": "SI", "D": 1e308},
                        {"src": "OR", "dst": "TO", "D": 150}],
    }),
}

_PENALTY_POINTS = {"points": [
    [0.0, 206.47907838973862], [286.63812872591313, 18269.866604989387],
    [311.5267717705471, 19838.301543197347], [312.5267717705471, 19901.524856922188]]}

#: Counterpart LPs the tableau gave up on, so the solve exited 1 ("simplex
#: iteration failure"); the tableau now hands each to HiGHS.
_TABLEAU_GIVES_UP = {
    # In both, phase 1 found an improving column with no leaving row.
    "no-leaving-row-SI-VA": {
        "objective": "MaxDelayPenalty",
        "commodities": [
            {"src": "SI", "dst": "VA", "w": 0.0, "D": "inf", "R": 2.00001, "utility_d": {
                "points": [[0.0, 845.3018909784842], [0.001, 845.3018909784842],
                           [1.001, 452423.09835357615]]}},
        ],
    },
    "no-leaving-row-IR-SI": {
        "objective": "MaxDelayPenalty",
        "commodities": [
            {"src": "IR", "dst": "SI", "w": 1.0, "D": 969.3513052351585,
             "R": 21.354611961958078, "utility_d": {"points": [
                 [0.0, 1e-05], [0.3333333333333333, 21.44033402902092],
                 [1.3333333333333333, 85.76131611608369]]}},
        ],
    },
    # Phase 2 cycled through its 200 000 pivots (about 7 s).
    "phase-2-stall": {
        "objective": "SumDelayPenalty",
        "commodities": [
            {"src": "OR", "dst": "IR", "w": 1.0, "D": 377.93327315684087,
             "R": 7.0639792971227, "utility_d": _PENALTY_POINTS},
            {"src": "TO", "dst": "OR", "w": 1.0, "D": "inf", "R": 379.9151996650479,
             "utility_d": _PENALTY_POINTS},
        ],
    },
}
_GENERATED.update(
    (f"{name}-{algo.split()[0]}", (algo, problem))
    for name, problem in _TABLEAU_GIVES_UP.items()
    for algo in ("pass-t", "pass --eps 0.1")
)


@pytest.mark.parametrize("algo,problem", _GENERATED.values(), ids=_GENERATED.keys())
def test_generated_problems_solve_and_verify(tmp_path, algo, problem):
    prob = tmp_path / "problem.json"
    prob.write_text(json.dumps(problem))
    report = str(tmp_path / "report.json")
    assert main(["solve", "--topo", "ec2", "--problem", str(prob), "--algo", *algo.split(),
                 "--out", report]) == 0
    assert main(["verify", report]) == 0


def _overflowing(objective: str, **commodity) -> dict:
    """A problem that ``ec2`` can carry, whose utility has a slope of 1e308
    and so overflows a float at any delay or rate above 1."""
    return {"objective": objective, "commodities": [{"src": "VA", "dst": "SI", **commodity}]}


_STEEP = {"points": [[0, 0], [1, 1e308]]}
_PENALTY = _overflowing("SumDelayPenalty", R=50, utility_d=_STEEP)


_UTILITY = _overflowing("SumThroughputUtility", D=150, utility_t=_STEEP)
_OVERFLOWS = "the {} objective overflows a float (inf)"


# The spec is rejected when it is built, before any solver runs, so numpy
# never meets the overflowing coefficients and warns about nothing.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "algo,extra,problem,message",
    [
        ("pass", ["--eps", "0.1"], _PENALTY, _OVERFLOWS.format("SumDelayPenalty")),
        ("pass-m", [], _overflowing("SumDelayPenalty", R=50, D=1000, utility_d=_STEEP),
         _OVERFLOWS.format("SumDelayPenalty")),
        ("pass-t", [], _PENALTY, _OVERFLOWS.format("SumDelayPenalty")),
        ("greedy", [], _PENALTY, _OVERFLOWS.format("SumDelayPenalty")),
        ("exact", [], _PENALTY, _OVERFLOWS.format("SumDelayPenalty")),
        ("pass", ["--eps", "0.1"], _UTILITY, _OVERFLOWS.format("SumThroughputUtility")),
        ("pass-m", [], _UTILITY, _OVERFLOWS.format("SumThroughputUtility")),
        ("pass-t", [], _UTILITY, _OVERFLOWS.format("SumThroughputUtility")),
        ("greedy", [], _UTILITY, _OVERFLOWS.format("SumThroughputUtility")),
        ("exact", [], _UTILITY, _OVERFLOWS.format("SumThroughputUtility")),
    ],
    ids=["pass", "pass-m", "pass-t", "greedy", "exact", "pass-utility_t", "pass-m-utility_t",
         "pass-t-utility_t", "greedy-utility_t", "exact-utility_t"],
)
def test_overflowing_objective_exits_1(tmp_path, capsys, algo, extra, problem, message):
    """An objective that overflows is an input error, not an infeasible
    problem or a report with a non-JSON ``Infinity``."""
    prob = tmp_path / "prob.json"
    prob.write_text(json.dumps(problem))
    out = tmp_path / "report.json"
    argv = ["solve", "--topo", "ec2", "--problem", str(prob), "--algo", algo, "--out", str(out)]
    assert main(argv + extra) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_verify_rejects_overflowing_objective(two_parallel_files, tmp_path, capsys):
    topo, prob = two_parallel_files
    out = tmp_path / "report.json"
    main(["solve", "--topo", topo, "--problem", prob, "--algo", "greedy", "--out", str(out)])
    doc = json.loads(out.read_text())
    doc["problem"]["commodities"][0]["utility_d"] = _STEEP
    doc["objective"] = float("inf")
    out.write_text(json.dumps(doc))
    assert main(["verify", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: corrupt report: problem: the SumDelayPenalty objective overflows a float (inf)\n"
    )


def test_verify_flags_flows_whose_objective_overflows(tmp_path, capsys):
    """A rate far past capacity can overflow the recomputed objective. The
    report is a violation: verify names the capacity it breaks and the
    objective it cannot recompute, and exits 2."""
    prob = tmp_path / "prob.json"
    prob.write_text(json.dumps(
        _overflowing("SumThroughputUtility", D=150, utility_t={"points": [[0, 0], [1, 1e300]]})
    ))
    out = tmp_path / "report.json"
    argv = ["solve", "--topo", "ec2", "--problem", str(prob), "--algo", "greedy", "--out", str(out)]
    assert main(argv) == 0
    doc = json.loads(out.read_text())
    doc["flows"][0][0]["rate"] = 1e308
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "capacity exceeded on VA->SI (1e+308 > 52.0)"
    assert err[-1] == (
        f"recorded objective {doc['objective']} cannot be recomputed: "
        f"{_OVERFLOWS.format('SumThroughputUtility')}"
    )


def test_exact_rejects_fractional_delays(tmp_path, capsys):
    topo = tmp_path / "net.topo"
    topo.write_text("node s\nnode t\nedge s t 1.5 1\n")
    prob = tmp_path / "prob.json"
    prob.write_text(
        json.dumps(
            {
                "objective": "SumDelayPenalty",
                "commodities": [{"src": "s", "dst": "t", "R": 1.0}],
            }
        )
    )
    rc = main(["solve", "--topo", str(topo), "--problem", str(prob), "--algo", "exact"])
    assert rc == 1
    assert "integer delays required" in capsys.readouterr().err


def test_gen_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["gen", "--seed", "42", "--out", str(a)]) == 0
    assert main(["gen", "--seed", "42", "--out", str(b)]) == 0
    assert a.read_text() == b.read_text()
    assert a.read_text() != ""
    doc = json.loads(a.read_text())
    assert "topology" in doc and "problem" in doc


def test_gen_then_solve(tmp_path):
    inst = tmp_path / "inst.json"
    main(["gen", "--seed", "7", "--out", str(inst)])
    doc = json.loads(inst.read_text())
    topo = tmp_path / "net.topo"
    topo.write_text(doc["topology"])
    prob = tmp_path / "prob.json"
    prob.write_text(json.dumps(doc["problem"]))
    out = tmp_path / "report.json"
    rc = main(
        ["solve", "--topo", str(topo), "--problem", str(prob), "--algo", "pass",
         "--eps", "0.2", "--out", str(out)]
    )
    assert rc == 0
    assert main(["verify", str(out)]) == 0


def _gen_seed_3(tmp_path, edit) -> tuple[str, str]:
    """``gen --seed 3``'s topology and problem files, the first commodity
    of the problem changed in place by ``edit``."""
    inst = tmp_path / "inst.json"
    assert main(["gen", "--seed", "3", "--out", str(inst)]) == 0
    doc = json.loads(inst.read_text())
    topo = tmp_path / "net.topo"
    topo.write_text(doc["topology"])
    edit(doc["problem"]["commodities"][0])
    prob = tmp_path / "prob.json"
    prob.write_text(json.dumps(doc["problem"]))
    return str(topo), str(prob)


def test_misspelled_requirement_exits_1(tmp_path, capsys):
    """A misspelled key is an input error, not a commodity that silently
    solves with R = 0."""
    topo, prob = _gen_seed_3(tmp_path, lambda c: c.update(r=c.pop("R")))
    rc = main(["solve", "--topo", topo, "--problem", prob, "--algo", "greedy"])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: commodity 0: unknown key 'r' "
        "(expected one of src, dst, R, D, w, utility_t, utility_d)\n"
    )


def test_missing_requirement_takes_its_default(tmp_path):
    topo, prob = _gen_seed_3(tmp_path, lambda c: c.pop("R"))
    out = str(tmp_path / "report.json")
    rc = main(["solve", "--topo", topo, "--problem", prob, "--algo", "greedy", "--out", out])
    assert rc == 0
    assert main(["verify", out]) == 0


def test_infeasible_report_names_the_commodity_that_misses(tmp_path, capsys):
    """A solver that writes a report flagged infeasible exits 2 with one
    ``infeasible:`` line on stderr, as a solver that raises does; the
    report is still written and verifies."""
    topo, prob = _gen_seed_3(tmp_path, lambda c: c.update(R=1e308))
    out = tmp_path / "report.json"
    rc = main(["solve", "--topo", topo, "--problem", prob, "--algo", "greedy", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == (
        "infeasible: commodity 0: throughput 17.0 below requirement 1e+308\n"
    )
    assert json.loads(out.read_text())["feasible"] is False
    assert main(["verify", str(out)]) == 0


def _first_path_only(doc):
    """Cut EXACT's three VA->SI paths to the first, throughput 52 < R = 100."""
    doc["flows"][0] = doc["flows"][0][:1]
    _rerecord(doc)


@pytest.mark.parametrize(
    "solve,corrupt",
    [(baselines.solve_exact, _first_path_only), (baselines.solve_greedy, lambda doc: None),
     (algorithms.solve_pass_t, lambda doc: None)],
    ids=["exact-cut", "greedy-untouched", "pass-t-untouched"],
)
def test_verify_derives_feasible(ec2, tmp_path, capsys, solve, corrupt):
    """Only a GREEDY result that misses a requirement may say it is
    infeasible; any other report flagged so is one violation."""
    spec = make_tcdm(ec2, [("VA", "SI", 100.0, 1.0)])
    doc = json.loads(json.dumps(report_to_json(spec, solve(spec))))
    corrupt(doc)
    doc["feasible"] = False
    out = tmp_path / "report.json"
    out.write_text(json.dumps(doc))
    assert main(["verify", str(out)]) == 2
    assert capsys.readouterr().err == (
        "feasible false, but only a GREEDY result that misses a requirement is\n"
    )


#: Row count and sha256 of each sweep's CSV. The digests pin the output
#: bit for bit; a change that moves them must explain why.
_SWEEPS = {
    "tcdm-eps": (1 + 99 * 4, "c0566e06f80a36205ca24b4ea2b1aedf7adf7f13806214d58c0904d2af7259ff"),
    "tcdm-rate": (1 + 124 * 4, "976430bdd1cc620cd289ee72161d8494a609b69b7c665dcf4b4462e0ab546cf5"),
    "dcum-eps": (1 + 99 * 4, "3bbc48be366a00e1f87388251b0b82d4da7176d3523f742b49a29b5dafaf3154"),
    "utility-weights": (
        1 + 100 * 5, "f2c65bef4864bdcc8d84df766bda2033ae68723173af84167c2549785e2aa7aa"
    ),
}


def test_experiment_shapes_and_stability(ec2_sweeps):
    assert list(ec2_sweeps) == list(_SWEEPS)
    for name, (n_lines, digest) in _SWEEPS.items():
        sweep = ec2_sweeps[name]
        lines = sweep.text.splitlines()
        assert len(lines) == n_lines, name
        assert lines[0].split(",")[:3] == ["experiment", "R", "D"]
        assert hashlib.sha256(sweep.text.encode()).hexdigest() == digest, name
        # The returned rows are the written ones, so tests may read reports.
        buf = io.StringIO()
        csv.writer(buf).writerows(_csv_row(name, p, rep) for p, _, rep in sweep.rows)
        assert buf.getvalue().splitlines() == lines[1:], name
        # Every EC2 LP is small enough for the deterministic tableau.
        assert sweep.highs_calls == [], name


def test_experiment_solves_each_counterpart_once(ec2_sweeps):
    """The PASS-family rows of a spec share one counterpart LP: 226 builds
    over the four sweeps, where one per PASS-family row would be 748."""
    built = {}
    for name, sweep in ec2_sweeps.items():
        specs = {id(spec) for _, spec, _ in sweep.rows}
        assert {id(spec) for spec in sweep.counterpart_specs} == specs, name
        built[name] = len(sweep.counterpart_specs)
    assert built == {"tcdm-eps": 1, "tcdm-rate": 124, "dcum-eps": 1, "utility-weights": 100}


def test_experiment_utility_weights_shape(ec2_sweeps):
    lines = ec2_sweeps["utility-weights"].text.splitlines()
    assert len(lines) == 1 + 100 * 5
    algos = {line.split(",")[6] for line in lines[1:]}
    assert algos == {"PASS", "PASS-M", "PASS-T", "GREEDY", "EXACT"}


def test_experiment_unknown_name():
    with pytest.raises(SystemExit):
        main(["experiment", "nope"])  # rejected by argparse choices


def test_reports_pass_verify_for_all_algorithms(ec2_sweeps):
    """The dcum-eps rows at eps 0.3 and the utility-weights rows at w = (1, 1)."""
    rows = [row for row in ec2_sweeps["dcum-eps"].rows if row[0]["eps"] == 0.3]
    rows += ec2_sweeps["utility-weights"].rows[:5]
    algos = {rep.algorithm for *_, rep in rows}
    assert algos == {"PASS", "PASS-M", "PASS-T", "GREEDY", "EXACT"}
    for _, spec, rep in rows:
        doc = report_to_json(spec, rep)
        # In memory, rates and metrics are numpy float64, a float subclass.
        assert verify_report(doc) == [], rep.algorithm
        assert verify_report(json.loads(json.dumps(doc))) == [], rep.algorithm
    assert {type(m.throughput) for *_, rep in rows for m in rep.metrics} >= {np.float64}
