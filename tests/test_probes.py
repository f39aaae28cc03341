"""The benchmark's tracer wraps names that delayflow modules look up at call
time, and skips a name it cannot find. A rename in the library would then
zero that layer's metrics without an error, so every probe must resolve,
and every probe that resolves must still be called."""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from delayflow import lp as lp_module
from delayflow.algorithms import solve_pass, solve_pass_m, solve_pass_t
from delayflow.baselines import solve_exact, solve_greedy
from delayflow.cli import report_to_json, verify_report
from delayflow.graph import builtin_ec2
from delayflow.lp import CsrRows, LinearProgram
from delayflow.problem import IDENTITY, make_dcum, make_tcdm

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

#: Probes that no longer resolve and lose nothing: greedy and exact reach
#: ``evaluate_metrics`` through ``algorithms.build_report``, whose own probe
#: (``delayflow.algorithms.evaluate_metrics``) records those calls.
KNOWN_STALE = {("delayflow.baselines", "evaluate_metrics")}


def _load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up in sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_tracing_probe_resolves(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    probes = {(mod, attr) for mod, attr, *_ in tracing.PROBES}
    missing = set()
    for mod, attr in probes:
        fn = getattr(importlib.import_module(mod), attr, None)
        if fn is None:
            missing.add((mod, attr))
        else:
            assert callable(fn), f"{mod}.{attr}"
    assert missing == KNOWN_STALE
    assert ("delayflow.algorithms", "evaluate_metrics") in probes


def test_every_live_probe_records_a_span(monkeypatch):
    """One solve per solver, one ``verify_report`` and one LP too large for
    the tableau call every probe outside KNOWN_STALE. The exact TCDM solve
    has capacity to spare, so it trims surplus with ``delete_slowest``."""
    tracing = _load_tracing(monkeypatch)
    recorder = tracing.Recorder()
    saved = tracing.install(recorder)
    called = set()
    for mod, attr, _ in saved:  # mark each probe's wrapper when it runs

        def marked(*args, _wrapper=getattr(mod, attr), _key=(mod.__name__, attr), **kwargs):
            called.add(_key)
            return _wrapper(*args, **kwargs)

        setattr(mod, attr, marked)
    try:
        net = builtin_ec2()
        tcdm = make_tcdm(net, [("VA", "SI", 50.0, 1.0)])
        dcum = make_dcum(net, [("VA", "SI", 150.0, IDENTITY)])
        solve_pass_m(dcum)
        solve_pass_t(tcdm)
        solve_greedy(tcdm)
        solve_exact(tcdm, deadline_cap=900.0)
        assert verify_report(report_to_json(tcdm, solve_pass(tcdm, 0.3))) == []
        m = 400
        assert (m + 1) * (3 * m + 2) > lp_module._AUTO_TABLEAU_CELLS
        eye = CsrRows(np.ones(m), np.arange(m), np.arange(m + 1), (m, m))
        big = LinearProgram("max", np.ones(m), eye, ("<=",) * m, np.ones(m))
        assert lp_module.solve_lp(big).objective == m
    finally:
        tracing.uninstall(saved)
    probes = {(mod, attr) for mod, attr, *_ in tracing.PROBES}
    assert probes - KNOWN_STALE - called == set()  # the probes never called
    assert {s.name for s in recorder.spans} == {name for *_, name, _ in tracing.PROBES}
