"""Record the EXACT optima that ``run.py`` checks every workload's exact
calls against, into ``perfbench/reference.json``.

    python3 perfbench/capture_reference.py --commit <git revision>

Run it only at a commit whose exact solver is trusted: the file is the
yardstick for later changes. The optimum *value* is unique even where two
LP engines return different tied optimal vertices, so it survives an engine
change. The seeds only change inputs of non-exact solvers, so one capture
covers every seed.
"""

from __future__ import annotations

import argparse
import json
import sys

import run

#: Seed used while the benchmark was tuned, and a held-out seed that a
#: claimed gain must also hold on (choosing-metrics section 6.3).
DEV_SEED = 1
HELDOUT_SEED = 90210


def capture(name: str) -> dict[str, float]:
    import workloads

    w = workloads.build(name, DEV_SEED, {})
    runner = run.Runner(w)
    caches: dict = {}
    return {
        op.key: runner.call(op, caches).objective
        for op in w.ops
        if op.solver == "EXACT"
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--commit", required=True, help="revision being captured")
    args = p.parse_args(argv)
    run.cap_threads()
    run.import_delayflow()
    doc = {
        "commit": args.commit,
        "dev_seed": DEV_SEED,
        "heldout_seed": HELDOUT_SEED,
        "ec2-sweeps": capture("ec2-sweeps"),
        "gen-ladder": capture("gen-ladder"),
    }
    with open(run.HERE / "reference.json", "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print({k: len(v) for k, v in doc.items() if isinstance(v, dict)})
    return 0


if __name__ == "__main__":
    sys.exit(main())
