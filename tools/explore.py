"""Solve generated EC2 problems, verify each written report, and log every
call that exits 1 or raises and every report that does not verify.

    PYTHONPATH=src python3 tools/explore.py --problems 2000 --log explore.jsonl

Run from the root of a checkout. Draws problems from the ``_ec2_problem``
strategy of tests/test_valid_inputs.py (all four objectives, not
derandomized unless --seed is given) and solves each in-process with
``cli.main`` by PASS (eps 0.1), PASS-M (when every D is finite), PASS-T,
GREEDY and EXACT, each writing its report with ``--out`` to a temporary
directory. Exit 0 and exit 2 (infeasible) are answers, and each report
written is then verified. Every other outcome, and every written report
that ``verify`` does not pass with exit 0, is appended to the log as one
JSON line: the algorithm, the command (``solve`` or ``verify``), its exit
code or exception, its last stderr line, the seconds and the problem.
Ctrl-C stops the run; either way it ends by printing its counts.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import math
import tempfile
import time
from pathlib import Path

from hypothesis import HealthCheck, given, seed, settings

from delayflow.cli import main as cli_main

VALID_INPUTS = Path(__file__).resolve().parent.parent / "tests" / "test_valid_inputs.py"


def _problems():
    spec = importlib.util.spec_from_file_location("valid_inputs", VALID_INPUTS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module._ec2_problem()


def _run(argv) -> tuple[int | str, str]:
    """``cli.main(argv)``'s exit code, or the exception it raised, and its
    last stderr line."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(argv)
    except Exception as e:  # a raise is a finding, logged, not re-raised
        code = f"{type(e).__name__}: {e}"
    return code, (err.getvalue().splitlines() or [""])[-1]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--problems", type=int, default=1000, help="problems to draw")
    p.add_argument("--seed", type=int, help="Hypothesis seed (default: random)")
    p.add_argument("--log", default="explore.jsonl", help="JSON lines appended here")
    args = p.parse_args(argv)
    problems = calls = reports = findings = 0
    with tempfile.TemporaryDirectory() as work, open(args.log, "a") as log:
        problem = Path(work) / "problem.json"
        report = Path(work) / "report.json"

        def finding(algo, command, code, last, t0, doc):
            nonlocal findings
            findings += 1
            log.write(json.dumps({
                "algo": algo, "command": command, "exit": code, "stderr": last,
                "seconds": time.perf_counter() - t0, "problem": doc,
            }) + "\n")
            log.flush()

        @settings(max_examples=args.problems, deadline=None, database=None,
                  suppress_health_check=list(HealthCheck))
        @given(doc=_problems())
        def explore(doc):
            nonlocal problems, calls, reports
            problems += 1
            problem.write_text(json.dumps(doc))
            algos = [["pass", "--eps", "0.1"], ["pass-t"], ["greedy"], ["exact"]]
            if all(c["D"] != "inf" and math.isfinite(c["D"]) for c in doc["commodities"]):
                algos.insert(1, ["pass-m"])
            for algo in algos:
                report.unlink(missing_ok=True)
                t0 = time.perf_counter()
                code, last = _run(["solve", "--topo", "ec2", "--problem", str(problem),
                                   "--algo", *algo, "--out", str(report)])
                calls += 1
                if code not in (0, 2):
                    finding(algo, "solve", code, last, t0, doc)
                elif report.exists():
                    reports += 1
                    t0 = time.perf_counter()
                    code, last = _run(["verify", str(report)])
                    if code != 0:
                        finding(algo, "verify", code, last, t0, doc)

        try:
            (explore if args.seed is None else seed(args.seed)(explore))()
        except KeyboardInterrupt:
            print("interrupted")
    print(f"{problems} problems, {calls} calls, {reports} reports verified, "
          f"{findings} logged to {args.log}")
    return 1 if findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
