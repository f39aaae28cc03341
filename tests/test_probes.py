"""The benchmark's tracer wraps names that delayflow modules look up at call
time, and skips a name it cannot find. A rename in the library would then
zero that layer's metrics without an error, so every probe must resolve."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

#: Probes that no longer resolve and lose nothing: greedy and exact reach
#: ``evaluate_metrics`` through ``algorithms.build_report``, whose own probe
#: (``delayflow.algorithms.evaluate_metrics``) records those calls.
KNOWN_STALE = {("delayflow.baselines", "evaluate_metrics")}


def test_every_tracing_probe_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up in sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
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
