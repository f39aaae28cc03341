"""Content digests of every benchmark report, to show a change keeps outputs.

    python3 tools/report_digests.py --seed 1

Run from the root of a checkout. Builds both perfbench workloads for the
seed, makes one pass of their solver calls as ``perfbench/run.py`` does
(one exact cache per pass), serialises each report with
``cli.report_to_json``, re-verifies it with ``cli.verify_report`` and hashes
it without ``wall_time``. Prints one line per workload:

    <workload> <sha256> calls=<n> issues=<m>

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


def report_digest(name: str, seed: int) -> tuple[str, int, list[str]]:
    """(sha256, number of calls, issues) of one pass over a workload."""
    import run
    import workloads
    from delayflow import cli

    w = workloads.build(name, seed, run.load_reference())
    runner = run.Runner(w)
    caches: dict = {}
    h = hashlib.sha256()
    issues: list[str] = []
    for op in w.ops:
        try:
            doc = cli.report_to_json(op.spec, runner.call(op, caches))
        except Exception as e:  # a failed call is an issue, and hashed
            text = f"{type(e).__name__}: {e}"
            issues.append(f"{op.solver} {op.key}: {text}")
            h.update(f"error {text}\n".encode())
            continue
        issues += [f"{op.solver} {op.key}: {msg}" for msg in cli.verify_report(doc)]
        del doc["wall_time"]
        h.update(json.dumps(doc, sort_keys=True).encode() + b"\n")
    return h.hexdigest(), len(w.ops), issues


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, required=True)
    args = p.parse_args(argv)
    sys.path.insert(0, str(PERFBENCH))
    import run

    run.cap_threads()
    run.import_delayflow()
    failed = False
    for name in run.WORKLOADS:
        digest, calls, issues = report_digest(name, args.seed)
        for msg in issues:
            print(f"{name}: {msg}", file=sys.stderr)
        print(f"{name} {digest} calls={calls} issues={len(issues)}")
        failed = failed or bool(issues)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
