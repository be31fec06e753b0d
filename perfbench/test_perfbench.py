"""Tests of the benchmark itself: every check rejects a deliberately wrong
value, the tracer counts exactly the calls made, and the metric names match
BENCHMARK.json.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import cliops  # noqa: E402
import metrics  # noqa: E402
import refs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

FACTORIAL = {"kind": "factorial"}
CONSTANT = {"kind": "constant", "params": {"c": 1.0}}


# -- reference checks -----------------------------------------------------------

def test_kernel_check_rejects_relative_error():
    mu, lam = 0.7 - 0.2j, 1.1 + 0.9j
    exact = cmath.exp(mu.conjugate() * lam)
    assert refs.check_values(exact, refs.kernel_closed_form(FACTORIAL, mu, lam), 1e-10, "").ok
    assert not refs.check_values(exact * (1 + 1e-6),
                                 refs.kernel_closed_form(FACTORIAL, mu, lam), 1e-10, "").ok
    geometric = 1 / (1 - mu.conjugate() * 0.5)
    assert refs.check_values(geometric, refs.kernel_closed_form(CONSTANT, mu, 0.5), 1e-12, "").ok


def test_direct_kernel_sum_matches_closed_form_at_unit_q():
    mu, lam = 1.3 + 0.4j, -0.8 + 1.6j
    assert refs.max_rel(refs.kernel_direct(FACTORIAL, 1.0, mu, lam),
                        cmath.exp(mu.conjugate() * lam)) < 1e-13


def _laguerre_rule(order):
    """Gauss-Laguerre: the exact rule for t-density e^{-t}/pi, whose moments
    are the factorial targets j!/pi at |q| = 1."""
    nodes, weights = np.polynomial.laguerre.laggauss(order)
    return nodes, weights / math.pi


def test_moment_check_rejects_any_scaled_mass():
    nodes, masses = _laguerre_rule(8)
    assert refs.check_moments(nodes, masses, FACTORIAL, 1.0, 15).ok
    for i in range(len(masses)):
        bad = masses.copy()
        bad[i] *= 1 + 1e-6
        assert not refs.check_moments(nodes, bad, FACTORIAL, 1.0, 15).ok, i


def test_moment_targets_follow_q():
    logs = refs.moment_target_logs(FACTORIAL, 0.9, 3)
    for j, got in enumerate(logs):
        want = math.log(math.factorial(j) / math.pi * 0.9 ** (-j * (j + 1)))
        assert got == pytest.approx(want, rel=1e-14)


def test_band_and_coefficient_checks_reject_a_flipped_sign():
    q = 0.9 * cmath.exp(0.4j)
    band = refs.annihilation_band(FACTORIAL, q, 6)
    assert band[2, 3] == pytest.approx(q ** -3 * math.sqrt(3))
    bad = band.copy()
    bad[2, 3] *= -1
    assert refs.check_matrix(band, refs.annihilation_band(FACTORIAL, q, 6), 1e-12, "").ok
    assert not refs.check_matrix(bad, band, 1e-10, "").ok
    assert np.array_equal(refs.adjoint_band(FACTORIAL, q, 6), band.conj().T)

    lam = 1.2 - 0.3j
    coeffs = refs.coherent_coefficients(FACTORIAL, q, lam, 10)
    assert coeffs[3] == pytest.approx(lam ** 3 * q ** 6 / math.sqrt(6))
    flipped = coeffs.copy()
    flipped[4] *= -1
    assert not refs.check_matrix(flipped, coeffs, 1e-11, "").ok


def test_identity_norm_bound_and_nilpotency_checks():
    assert refs.check_identity(np.eye(4), 1e-12, "").ok
    off = np.eye(4)
    off[1, 2] = 1e-6
    assert not refs.check_identity(off, 1e-11, "").ok

    band = refs.annihilation_band(FACTORIAL, 1.0, 5)
    norm = np.linalg.norm(band, 2)
    assert refs.check_norm_bound(norm * 1.01, band, "").ok
    assert not refs.check_norm_bound(norm * 0.99, band, "").ok

    assert refs.check_nilpotent(band, 6).ok
    assert not refs.check_nilpotent(band, 5).ok
    assert not refs.check_nilpotent(np.eye(3), 3).ok


# -- CLI artifact checks --------------------------------------------------------

def _run_cli(op, outdir):
    from qmanin import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(cliops.argv(op, outdir))
    return code, out.getvalue(), err.getvalue()


def _flip_largest_entry(path: Path):
    doc = json.loads(path.read_text())
    res = doc["result"]
    entries = (res.get("matrix") or res)["entries"]
    cells = [(abs(complex(*c)), i, j) for i, row in enumerate(entries)
             for j, c in enumerate(row)]
    _, i, j = max(cells)
    entries[i][j] = [-x for x in entries[i][j]]
    path.write_text(json.dumps(doc))


def _flip_csv_value(path: Path):
    lines = path.read_text().splitlines()
    cells = lines[5].split(",")
    cells[2] = repr(-float(cells[2]))
    lines[5] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _flip_coeff(path: Path):
    doc = json.loads(path.read_text())
    doc["result"]["state"]["coeffs"][2] = [-x for x in doc["result"]["state"]["coeffs"][2]]
    path.write_text(json.dumps(doc))


def _scale_mass(path: Path):
    doc = json.loads(path.read_text())
    doc["result"]["quadrature"]["masses"][3] *= 1 + 1e-6
    path.write_text(json.dumps(doc))


def _shift_radius(path: Path):
    doc = json.loads(path.read_text())
    doc["result"]["value"] = 1.05
    path.write_text(json.dumps(doc))


MUTATIONS = {
    "radius": ("radius.json", _shift_radius),
    "operator": ("operator.json", _flip_largest_entry),
    "coherent": ("coherent.json", _flip_coeff),
    "kernel": ("kernel.csv", _flip_csv_value),
    "measure": ("measure.json", _scale_mass),
    "symbols": ("quantize_cs.json", _flip_largest_entry),
    "paragrassmann": ("paragrassmann.json", _flip_largest_entry),
}


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_cli_checks_pass_then_reject_a_mutated_artifact(name, tmp_path):
    op = next(o for o in cliops.subcommand_ops(cliops.rng(7, 0)) if o.name == name)
    code, out, err = _run_cli(op, tmp_path)
    checks = cliops.check_op(op, code, out, err, tmp_path)
    assert checks and all(c.ok for c in checks), checks
    artifact, mutate = MUTATIONS[name]
    mutate(tmp_path / artifact)
    assert not all(c.ok for c in cliops.check_op(op, code, out, err, tmp_path))


def test_symbols_check_rejects_a_wrong_lower_symbol(tmp_path):
    op = next(o for o in cliops.subcommand_ops(cliops.rng(7, 0)) if o.name == "symbols")
    code, out, err = _run_cli(op, tmp_path)
    _flip_csv_value(tmp_path / "lower_symbol.csv")
    assert not all(c.ok for c in cliops.check_op(op, code, out, err, tmp_path))


def test_verify_and_refusal_checks(tmp_path):
    op = next(o for o in cliops.subcommand_ops(cliops.rng(7, 0)) if o.name == "verify")
    passing = "\n".join(f"PASS criterion {n:02d} [x]: ok" for n in range(1, 13))
    assert all(c.ok for c in cliops.check_op(op, 0, passing, "", tmp_path))
    one_fail = passing.replace("PASS criterion 07", "FAIL criterion 07")
    assert not all(c.ok for c in cliops.check_op(op, 1, one_fail, "", tmp_path))
    assert not all(c.ok for c in cliops.check_op(op, 0, one_fail, "", tmp_path))

    refusal = cliops.REFUSALS[0]
    assert cliops.check_op(refusal, 2, "", "error: overflow", tmp_path)[0].ok
    assert not cliops.check_op(refusal, 1, "", "Traceback (most recent call last):",
                               tmp_path)[0].ok
    assert not cliops.check_op(refusal, 2, "", "Traceback (most recent call last):",
                               tmp_path)[0].ok
    assert not cliops.check_op(refusal, 0, "", "", tmp_path)[0].ok


def test_configs_depend_on_the_seed_only():
    a = cliops.subcommand_ops(cliops.rng(3, 0))
    assert a == cliops.subcommand_ops(cliops.rng(3, 0))
    assert a != cliops.subcommand_ops(cliops.rng(4, 0))
    assert [o.name for o in cliops.round_ops(cliops.rng(3, 0))][-2:] == [
        r.name for r in cliops.REFUSALS]


# -- tracer -----------------------------------------------------------------------

def _sample_work(tmp_path):
    """A little of every workload: series points, a rule pipeline, two
    acceptance criteria and a CLI subcommand."""
    import workloads

    ops = (workloads.SeriesGrid(5, 0, tmp_path).round(0)
           + workloads.Quadrature(5, 0, tmp_path).round(0)[:2]
           + [workloads.Acceptance(5, 0, tmp_path).round(0)[n] for n in (3, 4)]
           + workloads.CliInProcess(5, 0, tmp_path).round(0)[5:6])
    for _label, fn, _check in ops:
        fn()


def _profile_counts(work):
    """Calls per target counted by sys.setprofile, with no wrapper in place."""
    codes = {tracing.resolve(*where).__code__: name
             for name, where in tracing.TARGETS.items()}
    counts = dict.fromkeys(tracing.TARGETS, 0)

    def profiler(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            counts[codes[frame.f_code]] += 1

    sys.setprofile(profiler)
    try:
        work()
    finally:
        sys.setprofile(None)
    return counts


def test_wrapped_call_counts_equal_unwrapped(tmp_path):
    import workloads  # noqa: F401  (imports qmanin.cli and acceptance first)

    unwrapped = _profile_counts(lambda: _sample_work(tmp_path / "a"))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        _sample_work(tmp_path / "b")
    finally:
        tracer.uninstall()
    layers = tracing.aggregate(tracer.spans)
    wrapped = {name: layers.get(name, {"calls": 0})["calls"] for name in tracing.TARGETS}
    wrapped["acceptance.criterion"] = sum(row["calls"] for name, row in layers.items()
                                          if name.startswith("acceptance.criterion_"))
    assert wrapped == unwrapped
    # the functions bound by `from .x import y` in other modules were reached
    for name in ("series.sum_series", "kernels.csum_logpolar", "measure.gauss",
                 "coherent.coherent_coefficients", "jsonio.write"):
        assert unwrapped[name] > 0, name
    assert tracer.counters["series.sum_series.terms"] > 0
    assert tracer.gauss_calls == layers["measure.gauss"]["calls"]


def test_uninstall_restores_every_binding():
    import workloads  # noqa: F401
    import qmanin

    def snapshot():
        mods = [m for n, m in sys.modules.items() if n.startswith("qmanin")]
        return {(m.__name__, k): v for m in mods for k, v in vars(m).items()
                if callable(v)} | {
            ("WeightSequence", "log_weights"): vars(qmanin.WeightSequence)["log_weights"],
            ("MomentSequence", "from_weights"): vars(qmanin.MomentSequence)["from_weights"]}

    before = snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    assert qmanin.coherent.sum_series is not before[("qmanin.coherent", "sum_series")]
    tracer.uninstall()
    after = snapshot()
    assert all(after[k] is v for k, v in before.items())


def test_self_time_subtracts_direct_children():
    spans = [["outer", 0.0, 10.0, -1, "op"], ["inner", 1.0, 4.0, 0, "op"],
             ["inner", 5.0, 6.0, 0, "op"], ["leaf", 2.0, 3.0, 1, "op"]]
    agg = tracing.aggregate(spans)
    assert agg["outer"] == {"calls": 1, "s": 10.0, "self_s": 6.0}
    assert agg["inner"] == {"calls": 2, "s": 4.0, "self_s": 3.0}


# -- metric names, import parsing, the entry point ----------------------------------

def test_metric_names_match_benchmark_json():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == metrics.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)


def test_import_tree_takes_outermost_package_modules():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       scipy._lib",
        "import time:       200 |        300 |     scipy",
        "import time:       400 |        400 |       numpy.linalg",
        "import time:       500 |        900 |     scipy.integrate",
        "import time:        50 |       1250 |   qmanin.measure",
        "import time:        10 |       1260 | qmanin",
    ])
    got = run.import_tree_seconds(text, ("qmanin", "scipy", "mpmath"))
    assert got == {"qmanin": pytest.approx(0.00126), "scipy": pytest.approx(0.0012),
                   "mpmath": 0.0}


def test_main_refuses_a_tree_without_qmanin(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "quadrature", "--seconds", "1"]) == 2
