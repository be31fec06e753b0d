"""Names and units of every metric the benchmark reports.

BENCHMARK.json lists the same names; a test keeps the two in step.
"""

from __future__ import annotations

SUBCOMMANDS = ("radius", "operator", "coherent", "kernel", "measure", "symbols",
               "paragrassmann", "verify")

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

# span name -> the aggregates reported for it
_SPANS = {
    "weights.log_weights": ("calls", "s", "self_s"),
    "series.sum_series": ("calls", "s", "self_s"),
    "kernels.csum_logpolar": ("calls",),
    "coherent.kernel": ("calls", "s"),
    "coherent.coherent_norm_sq": ("calls", "s"),
    "coherent.coherent_coefficients": ("calls", "s"),
    "coherent.eigen_residual": ("s",),
    "operators.annihilation_matrix": ("s",),
    "operators.toeplitz_matrix": ("s",),
    "measure.moments": ("s",),
    "measure.gauss": ("calls", "s"),
    "measure.verify_moments": ("s",),
    "measure.verify_resolution_identity": ("s",),
    "measure.verify_density_moments": ("s",),
    "kernels.power_matrix": ("s",),
    "kernels.weighted_gram": ("s",),
    "kernels.log_power_sums": ("s",),
    "symbols.quantize_cs": ("s",),
    "symbols.secondary_toeplitz": ("s",),
    "symbols.quantize_cs_norm_bound": ("s",),
    "symbols.lower_symbol": ("calls", "s", "self_s"),
    "paragrassmann.pg_structure_report": ("s",),
    "jsonio.write": ("s",),
    **{f"acceptance.criterion_{n:02d}": ("s",) for n in range(1, 13)},
}
_COUNTERS = {"series.sum_series.terms": "count", "jsonio.write.bytes": "bytes"}

PER_LAYER = {
    "import.qmanin_s": "s",
    "import.scipy_s": "s",
    "import.mpmath_s": "s",
    **{f"cli.{cmd}.{kind}": "s" for cmd in SUBCOMMANDS for kind in ("cold_s", "inproc_s")},
    **{f"{span}.{agg}": ("count" if agg == "calls" else "s")
       for span, aggs in _SPANS.items() for agg in aggs},
    **_COUNTERS,
    "measure.gauss.recurrence_s": "s",
    "measure.gauss.eigen_s": "s",
    "measure.gauss.repeat_share": "share",
    "trace.overhead": "share",
}


def layer_metrics(layers: dict, counters: dict) -> dict:
    """Per-layer values from aggregated spans and the tracer's counters."""
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0}
    out = {f"{span}.{agg}": layers.get(span, empty)[agg]
           for span, aggs in _SPANS.items() for agg in aggs}
    out.update({name: counters.get(name, 0.0) for name in _COUNTERS})
    recurrence = layers.get("measure.gauss.recurrence", empty)["s"]
    out["measure.gauss.recurrence_s"] = recurrence
    out["measure.gauss.eigen_s"] = out["measure.gauss.s"] - recurrence
    return out
