"""Start-up cost: importing delayflow, and solving or verifying an EC2
problem whose LPs all fit the tableau, loads neither scipy.sparse nor
scipy.optimize, which make up most of the import time when loaded. The
first LP too large for the tableau loads scipy's HiGHS binding, and only
that module. Each case runs in a fresh interpreter, since this process has
loaded scipy."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import delayflow
from delayflow.graph import builtin_ec2
from delayflow.problem import make_tcdm, problem_to_json

SRC = Path(delayflow.__file__).resolve().parents[1]
WATCHED = ("scipy.sparse", "scipy.optimize", "scipy.optimize._highspy._core")
MARK = "watched modules loaded: "
REPORT = f"print({MARK!r} + json.dumps([m for m in {WATCHED!r} if m in sys.modules]))\n"


def _loaded(code: str, *args: str, cwd: Path) -> list[list[str]]:
    """Run ``code`` in a fresh interpreter; returns the watched modules
    loaded at each ``REPORT`` line it prints."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", "import json, sys\n" + code, *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return [
        json.loads(line.removeprefix(MARK))
        for line in proc.stdout.splitlines()
        if line.startswith(MARK)
    ]


def test_import_loads_no_scipy_solver_code(tmp_path):
    assert _loaded("import delayflow, delayflow.cli\n" + REPORT, cwd=tmp_path) == [[]]


def test_ec2_solve_and_verify_load_no_scipy_solver_code(tmp_path):
    spec = make_tcdm(builtin_ec2(), [("VA", "SI", 230.0, 1.0), ("OR", "TO", 230.0, 1.0)])
    (tmp_path / "problem.json").write_text(json.dumps(problem_to_json(spec)))
    cli = "from delayflow.cli import main\nassert main(sys.argv[1:]) == 0\n" + REPORT
    solve = ("solve", "--topo", "ec2", "--problem", "problem.json", "--algo", "pass")
    assert _loaded(cli, *solve, "--eps", "0.3", "--out", "report.json", cwd=tmp_path) == [[]]
    assert _loaded(cli, "verify", "report.json", cwd=tmp_path) == [[]]


def test_first_lp_above_the_tableau_threshold_loads_highs(tmp_path):
    # max sum(x) s.t. x_i <= 1: 300 rows and columns, 271,502 tableau cells.
    code = (
        "import numpy as np\n"
        "from delayflow import lp\n"
        "eye = lp.CsrRows.from_dense(np.eye(300))\n"
        "prog = lp.LinearProgram('max', np.ones(300), eye, ('<=',) * 300, np.ones(300))\n"
        "assert (prog.num_rows + 1) * (prog.num_vars + 2 * prog.num_rows + 2)"
        " > lp._AUTO_TABLEAU_CELLS\n"
        + REPORT
        + "assert lp.solve_lp(prog).objective == 300.0\n"
        + REPORT
    )
    assert _loaded(code, cwd=tmp_path) == [[], ["scipy.optimize._highspy._core"]]


def test_binding_loads_alone_and_a_later_scipy_optimize_reuses_it(tmp_path):
    code = (
        "from delayflow import lp\n"
        "core, _ = lp._highs()\n"
        + REPORT
        + "import scipy.optimize\n"
        "from scipy.optimize._highspy import _core\n"
        "assert _core is core\n"
        "res = scipy.optimize.linprog(\n"
        "    [-3, -2], A_ub=[[1, 1], [1, 0]], b_ub=[4, 2], method='highs'\n"
        ")\n"
        "assert res.status == 0 and res.x.tolist() == [2.0, 2.0], res\n"
        + REPORT
    )
    assert _loaded(code, cwd=tmp_path) == [["scipy.optimize._highspy._core"], list(WATCHED)]
