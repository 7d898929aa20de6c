"""The benchmark's tracer wraps public functions by (module, attribute).

A renamed or deleted target would only fail the benchmark's traced run,
so this checks that each one still resolves to a callable.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "benchmark" / "tracer.py"


def test_every_tracer_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert len(tracer.TARGETS) > 20
    missing = [name for name, module, attr, _ in tracer.TARGETS
               if not callable(getattr(module, attr, None))]
    assert missing == []
