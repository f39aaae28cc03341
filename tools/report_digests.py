"""Content digests of every benchmark report, to show a change keeps outputs.

    python3 tools/report_digests.py --seed 1

Run from the root of a checkout. Builds both perfbench workloads for the
seed, makes one pass of their solver calls as ``perfbench/run.py`` does
(one exact cache per pass), serialises each report with
``cli.report_to_json``, re-verifies it with ``cli.verify_report`` and hashes
it without ``wall_time``. Prints one line per workload:

    <workload> <sha256> calls=<n> issues=<m>

then ``corpus``, over the certificate corpus of the test suite: the
``random_problem`` instances of seeds 0-199, each solved by EXACT, PASS (at
the seed's epsilon), PASS-T, GREEDY and, when every delay bound is finite,
PASS-M, in that order. Last comes ``experiments <sha256> rows=<n>``, over the
CSV text of the four ``delayflow experiment`` sweeps (``cli.run_experiment``)
in the order ``cli.EXPERIMENTS`` lists them. Neither line depends on --seed.

Equal digests on two commits mean byte-identical reports. Issues (failed
calls and verification findings) go to stderr, and the exit status is 1
when there are any. perfbench is imported, never modified.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
#: Seeds of the certificate corpus (``CORPUS_SIZE`` in tests/conftest.py).
CORPUS_SIZE = 200


def report_digest(name: str, seed: int) -> tuple[str, int, list[str]]:
    """(sha256, number of calls, issues) of one pass over a workload."""
    import run
    import workloads

    w = workloads.build(name, seed, run.load_reference())
    runner = run.Runner(w)
    caches: dict = {}
    h = hashlib.sha256()
    issues: list[str] = []
    for op in w.ops:
        _hash_call(h, issues, f"{op.solver} {op.key}", op.spec,
                   lambda: runner.call(op, caches))
    return h.hexdigest(), len(w.ops), issues


def corpus_digest() -> tuple[str, int, list[str]]:
    """(sha256, number of calls, issues) of the certificate corpus."""
    import math

    import numpy as np
    from delayflow import baselines
    from delayflow import algorithms as alg
    from delayflow.gen import random_problem

    h = hashlib.sha256()
    issues: list[str] = []
    calls = 0
    for seed in range(CORPUS_SIZE):
        rng = np.random.default_rng(seed)
        spec = random_problem(rng)
        eps = float(rng.uniform(0.05, 0.9))
        solvers = [
            ("exact", lambda: baselines.solve_exact(spec)),
            ("pass", lambda: alg.solve_pass(spec, eps)),
            ("pass-t", lambda: alg.solve_pass_t(spec)),
            ("greedy", lambda: baselines.solve_greedy(spec)),
        ]
        if all(math.isfinite(c.D) for c in spec.commodities):
            solvers.append(("pass-m", lambda: alg.solve_pass_m(spec)))
        for name, solve in solvers:
            _hash_call(h, issues, f"{name} seed={seed}", spec, solve)
        calls += len(solvers)
    return h.hexdigest(), calls, issues


def experiments_digest() -> tuple[str, int]:
    """(sha256, number of data rows) of the four experiment CSVs."""
    import csv
    import io

    from delayflow import cli

    h = hashlib.sha256()
    rows = 0
    for name in cli.EXPERIMENTS:
        buf = io.StringIO()
        rows += len(cli.run_experiment(name, csv.writer(buf)))
        h.update(buf.getvalue().encode())
    return h.hexdigest(), rows


def _hash_call(h, issues: list[str], label: str, spec, solve) -> None:
    """Hash the report of ``solve()`` without its wall time, or its error."""
    from delayflow import cli

    try:
        doc = cli.report_to_json(spec, solve())
    except Exception as e:  # a failed call is an issue, and hashed
        text = f"{type(e).__name__}: {e}"
        issues.append(f"{label}: {text}")
        h.update(f"error {text}\n".encode())
        return
    issues += [f"{label}: {msg}" for msg in cli.verify_report(doc)]
    del doc["wall_time"]
    h.update(json.dumps(doc, sort_keys=True).encode() + b"\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, required=True)
    args = p.parse_args(argv)
    sys.path.insert(0, str(PERFBENCH))
    import run

    run.cap_threads()
    run.import_delayflow()
    failed = False
    for name in (*run.WORKLOADS, "corpus"):
        if name == "corpus":
            digest, calls, issues = corpus_digest()
        else:
            digest, calls, issues = report_digest(name, args.seed)
        for msg in issues:
            print(f"{name}: {msg}", file=sys.stderr)
        print(f"{name} {digest} calls={calls} issues={len(issues)}")
        failed = failed or bool(issues)
    digest, rows = experiments_digest()
    print(f"experiments {digest} rows={rows}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
