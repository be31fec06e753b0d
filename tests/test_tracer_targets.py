"""The benchmark's tracer (perfbench/tracing.py) wraps qmanin's functions
by module attribute.  A refactor that moves or renames one of its targets
breaks the benchmark's per-layer metrics, so the targets are checked here.
"""

import importlib.util
from pathlib import Path

import qmanin.coherent
import qmanin.series

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    tracing = _tracing()
    assert tracing.TARGETS
    for name, (module, attr) in tracing.TARGETS.items():
        assert callable(tracing.resolve(module, attr)), name


def test_coherent_binds_sum_series_by_name():
    # the tracer counts series terms by patching this binding
    assert qmanin.coherent.sum_series is qmanin.series.sum_series
