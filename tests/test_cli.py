import csv
import io
import json
import math
import os
import re
import resource
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import TABLE_ENTRY_ULPS, rounding_error, sqrt_reference
import qmanin
from qmanin.cli import (MAX_BASIS, MAX_CUTOFF, MAX_GRID_POINTS, RunConfig, _KEYS,
                        _grid_points, main, parse_manin_symbol)
from qmanin import WeightSequence, errors
from qmanin.errors import ConfigError


def run(tmp_path, *argv):
    return main(["--out", str(tmp_path), *argv])


def load(tmp_path, name):
    return json.loads((tmp_path / name).read_text())


def config_args(tmp_path, config):
    """``--config`` and a file holding ``config``; nothing for None."""
    if config is None:
        return []
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    return ["--config", str(cfg)]


def run_cold(tmp_path, argv, config, preexec_fn=None):
    """The CLI in a fresh interpreter, with ``config`` passed by --config;
    ``preexec_fn`` runs in the child before the interpreter starts."""
    # a RuntimeWarning is an error in the child, as the suite makes it in process
    env = dict(os.environ, PYTHONPATH=str(Path(qmanin.__file__).parents[1]),
               PYTHONWARNINGS="error::RuntimeWarning")
    return subprocess.run(
        [sys.executable, "-m", "qmanin.cli", "--out", str(tmp_path), *argv,
         *config_args(tmp_path, config)],
        capture_output=True, text=True, env=env, timeout=120, preexec_fn=preexec_fn)


def test_radius_constant_unit(tmp_path):
    assert run(tmp_path, "radius", "--weights", "constant", "--q", "1") == 0
    doc = load(tmp_path, "radius.json")
    assert doc["result"]["value"] == 1.0
    assert doc["config"]["weights"]["kind"] == "constant"


def test_coherent_artifact(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lambda": [1.0, 1.0], "tol": 1e-14}))
    assert run(tmp_path, "coherent", "--config", str(cfg)) == 0
    doc = load(tmp_path, "coherent.json")
    assert doc["result"]["residual"] <= 1e-10
    assert doc["result"]["state"]["coeffs"][0] == [1.0, 0.0]


def test_out_of_phase_space_exit_code(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lambda": [1.5, 0.0]}))
    code = run(tmp_path, "coherent", "--config", str(cfg),
               "--weights", "constant", "--q", "1")
    assert code == 3


def test_config_error_exit_code(tmp_path):
    assert run(tmp_path, "radius", "--weights", "nonsense") == 2
    assert run(tmp_path, "radius", "--q", "0") == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(tmp_path, "radius", "--config", str(bad)) == 2


def test_no_error_exits_1():
    # exit 1 is verify's own return value when a criterion fails; main()
    # exits 2 for an error without an exit_code
    codes = {getattr(cls, "exit_code", 2) for cls in vars(errors).values()
             if isinstance(cls, type) and issubclass(cls, errors.QmaninError)}
    assert codes == {2, 3, 4}


_REFUSALS = [
    (("operator", "--q", "0.1", "--cutoff", "400"), None,     # |q|^-400 overflows
     "|q|**-305 overflows"),
    (("kernel",), {"grid": {"rmax": "abc"}}, "grid values must be numbers"),
    (("measure",), {"basis": "abc"}, "'basis'"),
    (("radius",), {"cap": "abc"}, "'cap'"),
    (("radius",), {"horizon": "abc"}, "'horizon'"),
    (("paragrassmann",), {"l": "abc"}, "'l'"),
    (("paragrassmann",), {"pg_weights": ["x", 1, 2]}, "'pg_weights'"),
    (("paragrassmann",), {"l": 3, "pg_weights": 5}, "'pg_weights'"),
    (("coherent",), {"lambda": [1, "x"]}, "cannot parse complex number"),
    (("symbols",), {"window": "abc"}, "'window'"),
    (("symbols",), {"phase_symbol": "(abc) L^1"}, "cannot parse complex number 'abc'"),
    (("coherent",), {"cutoff": float("inf")},      # JSON Infinity
     "invalid config value"),
    (("operator", "--cutoff", "400"), {"symbol": "th^400"},   # sqrt(400!) overflows
     "entries must be finite"),
    (("radius",), {"weights": {"kind": "explicit"}}, "weight spec"),
    (("radius",), {"weights": {"kind": "constant", "params": [2.0]}}, "weight spec"),
    (("radius",), {"cap": 0}, "config key 'cap'"),        # a key no subcommand reads
    (("symbols",), {"normalized": "false"},        # a string, not JSON false
     "'normalized'"),
    (("coherent",), {"lambda": 30},                # |a_n| passes 1e308
     "too large for a double"),
    (("kernel",), {"grid": {"rmax": 30, "nr": 2, "ntheta": 1}},   # K = e^900
     "the norm at lambda = (30+0j)"),
    (("kernel",), {"mu": 30, "grid": {"rmax": 30, "nr": 2, "ntheta": 1}},
     "the kernel at lambda = (30+0j)"),
    (("symbols",), {"grid": {"rmax": 27, "rmin": 27, "nr": 1, "ntheta": 1},
                    "window": 1024, "order": 4, "cutoff": 4, "normalized": False},
     "unnormalized lower symbol at lambda = (27+0j)"),
    (("radius",), {"horizon": 10**306},            # a key no subcommand reads
     "config key 'horizon'"),
    (("radius",), {"horizon": 10**400},
     "config key 'horizon'"),
    (("coherent",), {"tol": "nan"}, "invalid config value for 'tol'"),   # a string
    (("coherent", "--tol", "inf"), None, "positive finite number, got inf"),
    (("paragrassmann",), {"l": 3, "pg_weights": [1e300, 1e-300, 1.0]},
     "w_1 / w_0"),
    (("coherent",), {"lamda": [2, 0]},             # a key no subcommand reads
     "config key 'lamda'"),
    (("radius",), {"horizon": 10**308}, "config key 'horizon'"),
    (("coherent",), {"cutoff": 3.7}, "invalid config value for 'cutoff': 3.7"),
    (("measure",), {"order": True}, "invalid config value for 'order': True"),
    (("measure",), {"basis": 2.5}, "'basis'"),
    (("measure",), {"basis": -1}, "basis must be at least 0, got -1"),
    (("symbols",), {"window": True}, "'window'"),
    (("paragrassmann",), {"l": 3.5}, "'l'"),
    (("radius",), {"horizon": 20.5}, "'horizon'"),
    (("kernel",), {"grid": {"nr": 1.5}}, "nr must be an integer, got 1.5"),
    (("kernel",), {"grid": {"ntheta": True}}, "ntheta must be an integer, got True"),
    (("kernel",), {"grid": {"rmxa": 0.5, "nr": 2, "ntheta": 1}},   # a misspelt rmax
     "no grid key 'rmxa'"),
    (("kernel",), {"grid": [["rmax", 0.5], ["nr", 2], ["ntheta", 1]]},
     "grid must be a JSON object"),
    # every key given is checked at load, also where the subcommand reads none
    (("verify", "--cutoff", "5000"), None, "cutoff 5000 exceeds the cap 1024"),
    (("radius",), {"window": 2000}, "window 2000 exceeds the cap 1024"),
    # a weights object holds exactly the keys its kind reads, each a number
    (("radius",), {"weights": {"kind": "constant", "parms": {"c": 2}}},
     "no weight spec key 'parms'"),
    (("radius",), {"weights": {"kind": "factorial", "params": {"s": 3}}},
     "no weight spec key 's'"),
    (("radius",), {"weights": {"kind": "constant", "params": {"c": True}}},
     "weight spec values must be numbers"),
    (("radius",), {"weights": {"kind": "explicit", "table": [1, "2"]}},
     "weight spec values must be numbers"),
    (("paragrassmann",), {"l": 3, "pg_weights": [1, "2", True]},
     "invalid config value for 'pg_weights'"),
    # a JSON bool is not a number, where float(true) would read as 1.0
    (("coherent",), {"tol": True}, "invalid config value for 'tol': True"),
    (("radius",), {"q": True}, "invalid config value for 'q': True"),
    (("coherent",), {"lambda": True}, "invalid config value for 'lambda': True"),
    (("kernel",), {"mu": False}, "invalid config value for 'mu': False"),
    (("kernel",), {"mu": [1, True]}, "invalid config value for 'mu': [1, True]"),
    (("radius",), {"cap": True}, "config key 'cap'"),
    (("kernel",), {"grid": {"rmax": True, "nr": 2, "ntheta": 1}},
     "grid values must be numbers"),
    (("kernel",), {"grid": {"rmin": False}}, "grid values must be numbers"),
    (("coherent",), {"tol": float("nan")}, "positive finite number, got nan"),   # JSON NaN
    # a number or a count is a JSON number, where float("5") would read 5
    (("coherent",), {"cutoff": "5"}, "invalid config value for 'cutoff': '5'"),
    (("radius",), {"horizon": "100"}, "config key 'horizon'"),
    (("paragrassmann",), {"l": "3"}, "invalid config value for 'l': '3'"),
    (("radius",), {"cap": "1e6"}, "config key 'cap'"),
    (("coherent",), {"tol": "1e-8"}, "invalid config value for 'tol': '1e-8'"),
    (("kernel",), {"grid": {"nr": "2", "ntheta": 1, "rmax": "0.5"}},
     "grid values must be numbers"),
    (("kernel",), {"grid": {"nr": "2", "ntheta": 1, "rmax": 0.5}},
     "nr must be an integer, got '2'"),
    (("coherent",), {"lambda": ["0.5", "0"]}, "cannot parse complex number"),
    (("radius",), {"q": ["1", "0"]}, "cannot parse complex number"),
    # a symbol key is a JSON string in its grammar, checked at load
    (("radius",), {"symbol": "(abc) th"}, "cannot parse complex number 'abc'"),
    (("radius",), {"phase_symbol": "zz"}, "cannot parse symbol term 'zz'"),
    (("operator",), {"symbol": 1}, "invalid config value for 'symbol': 1"),
    # a key whose constraint reads its own value alone is checked at load
    (("operator",), {"cap": 0.5}, "config key 'cap'"),     # keys no subcommand reads
    (("operator",), {"cap": float("inf")}, "config key 'cap'"),
    (("operator",), {"horizon": 3}, "config key 'horizon'"),
    (("operator",), {"l": 1}, "nilpotency order must be at least 2, got 1"),
    (("operator",), {"pg_weights": [1, -2, 3]}, "w_1 = -2.0 violates w_n > 0"),
    # a refused weight names its key
    (("radius",), {"pg_weights": [1, -2]},
     "invalid config value for 'pg_weights': w_1 = -2.0 violates w_n > 0"),
    (("radius",), {"pg_weights": []}, "invalid config value for 'pg_weights'"),
    (("radius",), {"weights": {"kind": "explicit", "table": [1, -2]}},
     "invalid config value for 'weights': w_1 = -2.0 violates w_n > 0"),
    # a point whose modulus passes a double
    (("coherent",), {"lambda": [1e308, 1.7e308]},
     "the point (1e+308+1.7e+308j) has a modulus past the double range"),
    (("kernel",), {"mu": [1e308, 1.7e308]},
     "the point (1e+308+1.7e+308j) has a modulus past the double range"),
    # a log weight or a band entry past a double
    (("coherent", "--weights", "power-factorial:-1e306"), None,
     "log w_58 of power-factorial(-1e+306) weights is past the double range"),
    (("kernel", "--weights", "power-factorial:1e307"), None,
     "log w_12 of power-factorial(1e+307) weights is past the double range"),
    (("coherent", "--weights", "power-factorial:600"), {"lambda": [1.5, 0]},
     "the annihilation band entry of column 11 is past the double range"),
    # a_j(1) = |q|^{j(j+1)/2} / sqrt(w_j) and the node powers in the linear domain
    (("measure", "--q", "1e4"), {"order": 1},
     "the Gram matrix at basis = 10 is past the double range"),
    # moments past a table's horizon, refused as the moment sequence is built
    (("measure", "--weights", "explicit:1,2,3"), {"order": 4},
     "w_7 requested but only indices <= 2 are materialized"),
    (("symbols", "--weights", "explicit:1,2,3"), {"order": 4},
     "w_7 requested but only indices <= 2 are materialized"),
]


def _refused(code, stderr, text):
    assert code == 2, stderr
    assert stderr.startswith("error: ")
    assert text in stderr
    assert "Traceback" not in stderr


# the ids name each case by its argv and config alone, as argvN-configN
@pytest.mark.parametrize("argv, config, text", _REFUSALS, ids=[
    f"argv{i}-{'None' if c is None else f'config{i}'}" for i, (_, c, _) in enumerate(_REFUSALS)])
def test_refusals_exit_2_without_traceback(tmp_path, capsys, argv, config, text):
    # in process: an uncaught exception fails the test where a cold run
    # would print its traceback, and a warning, which a cold run would print
    # before the error line, is recorded
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(tmp_path, *argv, *config_args(tmp_path, config))
    assert caught == []
    _refused(code, capsys.readouterr().err, text)


# perfbench's two cli-cold refusals, in a fresh interpreter
@pytest.mark.parametrize("argv, config, text", _REFUSALS[:2], ids=["argv0-None", "argv1-config1"])
def test_refusals_exit_2_cold(tmp_path, argv, config, text):
    proc = run_cold(tmp_path, argv, config)
    _refused(proc.returncode, proc.stderr, text)


def test_coherent_band_entry_inside_a_double(tmp_path):
    # w_n / w_{n-1} = n^300 passes a double, its square root does not
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lambda": [1.5, 0]}))
    assert run(tmp_path, "coherent", "--weights", "power-factorial:300",
               "--config", str(cfg)) == 0
    assert load(tmp_path, "coherent.json")["result"]["residual"] <= 1e-12


@pytest.mark.parametrize("table, entry", [("1e-300,1e300,1", 1e300),
                                          ("1e300,1e-300,1", 1e-300)])
def test_table_band_entry_whose_quotient_leaves_a_double(tmp_path, table, entry):
    # w_1 / w_0 = 1e600 or 1e-600 leaves a double; (w_1 / w_0)^{1/2} does not
    assert run(tmp_path, "operator", "--weights", f"explicit:{table}",
               "--cutoff", "2", "--q", "1") == 0
    re_, im_ = load(tmp_path, "operator.json")["result"]["entries"][0][1]
    assert math.isclose(re_, entry, rel_tol=1e-15) and im_ == 0.0


@pytest.mark.parametrize("table", [(5e-324, 1.7e308, 1.0),    # (w_1 / w_0)^{1/2} passes a double
                                   (1.7e308, 5e-324, 1.0)])   # it is 1.7e-316, subnormal
def test_extreme_table_quotients_warn_nothing(tmp_path, capsys, table):
    # sqrt(w_1) / sqrt(w_0) at the ends of the double range, in-process, so
    # that no warning can hide in a subprocess's stderr
    w = WeightSequence.explicit(table)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(tmp_path, "operator", "--weights", f"explicit:{','.join(map(repr, table))}",
                   "--cutoff", "2", "--q", "1")
    assert caught == []
    if table[0] < table[1]:
        assert code == 2
        assert "error: operator entries must be finite" in capsys.readouterr().err
        return
    assert code == 0
    entries = load(tmp_path, "operator.json")["result"]["entries"]
    for k in (1, 2):
        assert rounding_error(complex(*entries[k - 1][k]),
                              sqrt_reference(w, k)) <= TABLE_ENTRY_ULPS


def test_precision_cap_refusal_exits_4_without_traceback(tmp_path):
    # factorial moments at |q| = 1e-30 need about 47,000 digits at order 20
    proc = run_cold(tmp_path, ("measure", "--q", "1e-30"), {"order": 20})
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr.startswith("error: ")
    assert "largest achievable order is 2" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("q, reason", [
    ("1e-155", "a Gauss node overflows float64"),            # the node is about 1e310
    ("1e300", "a nonzero Gauss node underflows float64"),    # the node is about 1e-600
])
def test_gauss_node_past_the_double_range_exits_4(tmp_path, capsys, q, reason):
    # in process, so that a warning is recorded rather than printed
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(tmp_path, "measure", "--q", q, *config_args(
            tmp_path, {"order": 1, "basis": 0}))
    assert caught == []
    assert code == 4
    err = capsys.readouterr().err
    assert reason in err and "largest achievable order is 0" in err
    assert not (tmp_path / "measure.json").exists()


def test_negative_node_rule_exits_4_without_nan(tmp_path):
    # the Hankel matrix is definite, but the order-2 rule has a node t < 0
    proc = run_cold(tmp_path, ("measure", "--q", "1.3"), {"order": 2})
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr.startswith("error: ")
    assert "nan" not in proc.stderr and "Traceback" not in proc.stderr
    assert not (tmp_path / "measure.json").exists()


def _limit_address_space():
    # 1 GiB: enough for the CLI, while a 10^9-element weight tuple built
    # before the order check would fail fast with MemoryError
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_paragrassmann_order_cap_exits_2_before_allocating(tmp_path):
    proc = run_cold(tmp_path, ("paragrassmann",), {"l": 10**9},
                    preexec_fn=_limit_address_space)
    assert proc.returncode == 2, proc.stderr
    assert "exceeds the cap 256" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv, config", [
    (("operator", "--cutoff", "100000"), None),
    (("kernel",), {"grid": {"nr": 100_000, "ntheta": 100_000}}),
    (("symbols",), {"window": 1_000_000}),
    (("measure",), {"basis": 100_000}),
])
def test_size_caps_exit_2_before_allocating(tmp_path, argv, config):
    proc = run_cold(tmp_path, argv, config, preexec_fn=_limit_address_space)
    assert proc.returncode == 2, proc.stderr
    assert "exceeds the cap" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_size_caps_admit_their_limits(tmp_path):
    assert RunConfig({"cutoff": MAX_CUTOFF})["cutoff"] == MAX_CUTOFF
    with pytest.raises(ConfigError):
        RunConfig({"cutoff": MAX_CUTOFF + 1})
    grid = RunConfig({"grid": {"nr": 1000, "ntheta": MAX_GRID_POINTS // 1000}})["grid"]
    assert _grid_points(grid).size == MAX_GRID_POINTS
    with pytest.raises(ConfigError):
        RunConfig({"grid": {"nr": 1001, "ntheta": MAX_GRID_POINTS // 1000}})
    cfg = tmp_path / "cfg.json"
    for cmd, key, cap in (("measure", "basis", MAX_BASIS), ("symbols", "window", MAX_CUTOFF)):
        cfg.write_text(json.dumps({key: cap + 1}))
        assert run(tmp_path, cmd, "--config", str(cfg)) == 2


def test_radius_samples_stay_finite_for_fast_growing_weights(tmp_path):
    # a factorial table at q = 1e-5: r_n = (|q|^{-(n+1)} w_n^{1/n})^{1/2}
    # passes a double near n = 120, its log samples do not
    table = [float(math.factorial(n)) for n in range(171)]
    proc = run_cold(tmp_path, ("radius", "--q", "1e-5"),
                    {"weights": {"kind": "explicit", "table": table}})
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    doc = load(tmp_path, "radius.json")
    samples = doc["result"]["samples"]
    n = [s["n"] for s in samples]
    assert n[0] == 1 and n[-1] == 170 and len(n) > 100
    assert all(isinstance(s["log_r"], float) and math.isfinite(s["log_r"])
               for s in samples)
    assert samples[-1]["log_r"] > 709      # r_n itself is beyond a double
    assert doc["result"]["value"] == "inf"


def test_rule_radius_is_exact_without_samples(tmp_path):
    # power-factorial(-0.5) at q = 1: R = 0, the one-point phase space
    proc = run_cold(tmp_path, ("radius", "--weights", "power-factorial:-0.5", "--q", "1"),
                    None)
    assert proc.returncode == 0, proc.stderr
    doc = load(tmp_path, "radius.json")
    assert doc["result"] == {"value": 0.0, "uncertainty": 0.0, "extreme": True,
                             "boundary_verdict": "converges"}
    assert set(doc["config"]) == {"weights", "q"}


def test_outside_a_rules_phase_space_exits_3_at_once(tmp_path):
    # the same weights at lambda = 1e-4: refused before any term is summed
    proc = run_cold(tmp_path, ("coherent", "--weights", "power-factorial:-0.5",
                               "--q", "1"), {"lambda": [1e-4, 0]})
    assert proc.returncode == 3, proc.stderr
    assert "norm series diverges at lambda = (0.0001+0j)" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_terms_growing_at_the_cap_exit_4_at_once(tmp_path):
    # factorial weights at q = 1 have R = inf, but at lambda = 1e8 the terms
    # still grow at the 200,000-term cap: exit 4, not 3 (outside the phase
    # space)
    proc = run_cold(tmp_path, ("coherent",), {"lambda": [1e8, 0], "q": 1})
    assert proc.returncode == 4, proc.stderr
    assert "could not certify tail <= 1e-12 within 200000 terms" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_a_table_series_its_entries_cannot_certify_exits_4(tmp_path, capsys):
    # an explicit table has no point outside the phase space: a kernel grid
    # at |lambda| >= 1 under 1,001 ones exits 4, naming the table's length
    cfg = {"weights": {"kind": "explicit", "table": [1.0] * 1001}, "q": 1,
           "grid": {"rmin": 1.0, "rmax": 1.5, "nr": 2, "ntheta": 2}}
    assert run(tmp_path, "kernel", *config_args(tmp_path, cfg)) == 4
    assert "could not certify tail <= 1e-12 within 1001 terms" in capsys.readouterr().err


def test_coherent_norm_past_a_double_exits_2_without_summing(tmp_path, monkeypatch, capsys):
    # factorial weights at q = 1, lambda = 400: the cutoff 162,831 comes
    # from the closed form e^{|lambda|^2}, which passes a double, so the
    # state is refused with no term of its norm series summed
    from qmanin import coherent

    def summed(*args, **kwargs):
        raise AssertionError("a series was summed")

    monkeypatch.setattr(coherent, "sum_series", summed)
    monkeypatch.setattr(coherent, "sum_series_rows", summed)
    state = coherent.coherent_coefficients(400.0, WeightSequence.factorial(), 1.0)
    assert state.n_cutoff == 162_831 and math.isinf(state.norm_sq)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lambda": [400, 0]}))
    assert run(tmp_path / "out", "coherent", "--config", str(cfg)) == 2
    assert capsys.readouterr().err == ("error: the coherent state at lambda = (400+0j) "
                                       "has coefficients too large for a double\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("weights,summed", [("factorial", 0), ("power-factorial:2", 1)])
def test_coherent_norm_past_a_double_is_refused_before_a_coefficient(
        tmp_path, monkeypatch, capsys, weights, summed):
    # lambda = 400 is refused from its truncation alone: no coefficient row
    # is formed, and the summed norm series (power-factorial(2), I_0(800))
    # is summed once
    from qmanin import coherent

    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    def formed(*args, **kwargs):
        raise AssertionError("a coefficient row was formed")

    monkeypatch.setattr(coherent, "sum_series", counted(coherent.sum_series))
    monkeypatch.setattr(coherent, "sum_series_rows", counted(coherent.sum_series_rows))
    monkeypatch.setattr(coherent, "coeff_log_arrays", formed)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lambda": [400, 0]}))
    assert run(tmp_path / "out", "coherent", "--weights", weights,
               "--config", str(cfg)) == 2
    assert capsys.readouterr().err == ("error: the coherent state at lambda = (400+0j) "
                                       "has coefficients too large for a double\n")
    assert len(calls) == summed
    assert not (tmp_path / "out").exists()


def test_integral_numbers_are_counts(tmp_path):
    # an integral float is the integer it equals: 4.0 runs cutoff 4
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"cutoff": 4.0}))
    assert run(tmp_path, "operator", "--config", str(cfg)) == 0
    doc = load(tmp_path, "operator.json")
    assert doc["config"]["cutoff"] == 4 and type(doc["config"]["cutoff"]) is int
    assert len(doc["result"]["entries"]) == 5


def test_grid_embeds_the_values_that_ran(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": {"rmax": 0.5, "nr": 2.0, "ntheta": 1}}))
    assert run(tmp_path, "kernel", "--config", str(cfg)) == 0
    assert load(tmp_path, "kernel.json")["config"]["grid"] == {
        "rmax": 0.5, "rmin": 0.25, "nr": 2, "ntheta": 1}


def _run_raw(tmp_path, raw: bytes, stdin: bool):
    """The CLI in a fresh interpreter on config text ``raw``, from a file or
    from stdin; stdin decodes strictly, as under a UTF-8 locale."""
    env = dict(os.environ, PYTHONPATH=str(Path(qmanin.__file__).parents[1]),
               PYTHONIOENCODING="utf-8:strict", PYTHONWARNINGS="error::RuntimeWarning")
    path = tmp_path / "cfg.json"
    path.write_bytes(raw)
    return subprocess.run(
        [sys.executable, "-m", "qmanin.cli", "--out", str(tmp_path), "radius",
         "--config", "-" if stdin else str(path)],
        input=raw if stdin else None, capture_output=True, env=env, timeout=120)


@pytest.mark.parametrize("raw, stdin", [
    (b"\xff\xfe{}", False),                     # not UTF-8
    (b"\xff\xfe{}", True),
    (b"[" * 200_000, False),                     # nested past the parser's recursion
    (b'{"cutoff": 1' + b"0" * 5000 + b"}", False),   # past int's 4300-digit limit
], ids=["not-utf8", "not-utf8-stdin", "too-deep", "too-many-digits"])
def test_unreadable_config_text_exits_2(tmp_path, raw, stdin):
    proc = _run_raw(tmp_path, raw, stdin)
    err = proc.stderr.decode()
    assert proc.returncode == 2, err
    assert err.startswith("error: config is not valid JSON")
    assert "Traceback" not in err


@pytest.mark.parametrize("normalized, value", [(True, 1.0), (False, math.e)])
def test_symbols_normalized_key(tmp_path, normalized, value):
    # at lambda = 1 the Berezin symbol of the annihilation operator is 1 and
    # the unnormalized one is 1 * K(1, 1) = e
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"normalized": normalized, "cutoff": 4,
                               "grid": {"rmax": 1.0, "nr": 1, "ntheta": 1}}))
    assert run(tmp_path, "symbols", "--config", str(cfg)) == 0
    row = (tmp_path / "lower_symbol.csv").read_text().splitlines()[1].split(",")
    assert float(row[0]) == 1.0 and float(row[2]) == pytest.approx(value, rel=1e-12)


@pytest.mark.parametrize("key", ["rmax", "rmin", "nr", "ntheta"])
def test_non_numeric_grid_value_is_config_error(tmp_path, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": {key: "abc"}}))
    assert run(tmp_path, "kernel", "--config", str(cfg)) == 2


def test_kernel_grid_at_the_size_cap_fits_in_memory(tmp_path):
    # the grid's series are summed in blocks of rows, so memory does not
    # grow with the grid
    grid = {"nr": 1000, "ntheta": MAX_GRID_POINTS // 1000}
    proc = run_cold(tmp_path, ("kernel",), {"grid": grid},
                    preexec_fn=_limit_address_space)
    assert proc.returncode == 0, proc.stderr
    lines = (tmp_path / "kernel.csv").read_text().splitlines()
    assert len(lines) == 1 + MAX_GRID_POINTS
    re_, im_, value, _ = (float(x) for x in lines[-1].split(","))
    assert value == pytest.approx(math.exp(re_ * re_ + im_ * im_), rel=1e-10)


@pytest.mark.parametrize("normalized", [True, False])
def test_lower_symbol_past_a_double(tmp_path, normalized):
    # at lambda = 27, ||phi_lambda||^2 = e^729 overflows a double; the
    # Berezin symbol of the annihilation operator is still lambda, while
    # the unnormalized symbol lambda * e^729 is refused
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": {"rmax": 27, "rmin": 27, "nr": 1, "ntheta": 1},
                               "window": 1024, "order": 4, "cutoff": 4,
                               "normalized": normalized}))
    assert run(tmp_path, "symbols", "--config", str(cfg)) == (0 if normalized else 2)
    if normalized:
        row = (tmp_path / "lower_symbol.csv").read_text().splitlines()[1].split(",")
        assert float(row[2]) == pytest.approx(27.0, rel=1e-12)
        assert abs(float(row[3])) <= 1e-12


def test_huge_order_builds_only_the_capped_moments(tmp_path):
    # 2 * 10^9 - 1 moments in mpmath would never finish; the rule is capped
    # at order 20, so only moments 0..39 are built
    proc = run_cold(tmp_path, ("measure",), {"order": 10**9},
                    preexec_fn=_limit_address_space)
    assert proc.returncode == 0, proc.stderr
    doc = load(tmp_path, "measure.json")
    assert doc["config"]["order"] == 20
    assert doc["result"]["quadrature"]["order"] == 20


def test_capped_order_recorded_in_artifacts(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"order": 30, "cutoff": 4, "basis": 4,
                               "grid": {"rmax": 1.0, "nr": 1, "ntheta": 1}}))
    with pytest.warns(UserWarning, match="cap"):
        assert run(tmp_path, "measure", "--config", str(cfg)) == 0
    doc = load(tmp_path, "measure.json")
    assert doc["result"]["quadrature"]["order"] == 20
    assert doc["config"]["order"] == 20
    with pytest.warns(UserWarning, match="cap"):
        assert run(tmp_path, "symbols", "--config", str(cfg)) == 0
    assert load(tmp_path, "quantize_cs.json")["config"]["order"] == 20


def test_solver_error_exit_code(tmp_path):
    # indefinite Hankel: no positive measure exists at this order
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"weights": "explicit:1,10,1,10", "order": 2}))
    assert run(tmp_path, "measure", "--config", str(cfg)) == 4


def test_operator_artifact_and_csv(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"symbol": "th^1 tb^1", "q": "1"}))
    assert run(tmp_path, "operator", "--config", str(cfg), "--cutoff", "3") == 0
    doc = load(tmp_path, "operator.json")
    assert doc["result"]["dim"] == 4
    # diagonal entries w_{n+1}/w_n = n+1 for factorial weights
    entries = doc["result"]["entries"]
    assert entries[2][2][0] == pytest.approx(3.0, rel=1e-12)
    rows = list(csv.reader(io.StringIO((tmp_path / "operator.csv").read_text())))
    assert len(rows) == 4 and len(rows[0]) == 4
    re_, im_ = (float(x) for x in rows[1][1].split(","))
    assert re_ == pytest.approx(2.0, rel=1e-12) and im_ == 0.0


def test_kernel_csv_norm_grid(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": {"rmax": 1.0, "nr": 2, "ntheta": 4}}))
    assert run(tmp_path, "kernel", "--config", str(cfg)) == 0
    lines = (tmp_path / "kernel.csv").read_text().splitlines()
    assert lines[0] == "re_lambda,im_lambda,re_value,im_value"
    assert len(lines) == 1 + 2 * 4


def test_kernel_csv_with_mu(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mu": [1.0, 0.0],
                               "grid": {"rmax": 1.0, "nr": 2, "ntheta": 3}}))
    assert run(tmp_path, "kernel", "--config", str(cfg)) == 0
    rows = (tmp_path / "kernel.csv").read_text().splitlines()[1:]
    # K(1, r) = e^r for factorial weights at q = 1
    r0, i0, rv, iv = (float(x) for x in rows[0].split(","))
    assert rv == pytest.approx(np.exp(complex(r0, i0)).real, rel=1e-9)


def test_kernel_csv_in_the_hardy_space(tmp_path, monkeypatch):
    # constant weights at q = 1: kernel.csv holds the Szego kernel
    # 1 / (1 - conj(mu) lam) within coherent._closed_kernel's bound 4u
    # (c = scale = 1), and no series is summed, inside the disk or past it
    import mpmath
    from qmanin import coherent

    def summed(*args, **kwargs):
        raise AssertionError("a series was summed")

    monkeypatch.setattr(coherent, "sum_series", summed)
    monkeypatch.setattr(coherent, "sum_series_rows", summed)
    flags = ("--weights", "constant", "--q", "1", "--config")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mu": [0.6, -0.5], "grid": {"rmax": 1.2, "nr": 4, "ntheta": 6}}))
    assert run(tmp_path, "kernel", *flags, str(cfg)) == 0
    rows = (tmp_path / "kernel.csv").read_text().splitlines()[1:]
    assert len(rows) == 4 * 6
    for row in rows:
        re_l, im_l, re_v, im_v = (float(x) for x in row.split(","))
        with mpmath.workdps(40):
            exact = 1 / (1 - mpmath.mpc(0.6, 0.5) * mpmath.mpc(re_l, im_l))
            assert abs(mpmath.mpc(re_v, im_v) - exact) <= 4 * 2.0 ** -53 * abs(exact)
    # |mu| r reaches 1 on the grid's last circle: exit 3 at once
    for doc in ({"mu": [0.5, 0.0], "grid": {"rmax": 2.0, "nr": 3, "ntheta": 4}},
                {"grid": {"rmax": 1.0, "nr": 3, "ntheta": 4}}):
        cfg.write_text(json.dumps(doc))
        assert run(tmp_path / "out", "kernel", *flags, str(cfg)) == 3
    assert not (tmp_path / "out").exists()


def test_measure_artifact(tmp_path):
    assert run(tmp_path, "measure") == 0
    doc = load(tmp_path, "measure.json")
    assert doc["result"]["gram_check"]["ok"] is True
    assert doc["result"]["moment_check"]["ok"] is True
    assert doc["result"]["closed_form"] is not None
    assert abs(doc["result"]["divergence_witness"]["slope"] - 1.0) < 1e-6


def test_measure_config_is_what_ran(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"basis": 20, "order": 12}))
    assert run(tmp_path, "measure", "--config", str(cfg)) == 0
    doc = load(tmp_path, "measure.json")
    assert "angular" not in doc["config"]
    assert doc["config"]["basis"] == 20
    assert doc["result"]["gram_check"]["dim"] == 21
    assert doc["result"]["gram_check"]["ok"] is True


# a small configuration per subcommand for the rerun check
_RERUN_CONFIGS = {
    "radius": {"weights": "power-factorial:1.5", "q": "0.9"},
    "operator": {"symbol": "th^2 tb^1 + (0.5-1j) tb^3", "q": "0.9+0.3j"},
    "coherent": {"lambda": [1.0, 0.5]},
    "kernel": {"grid": {"rmax": 1.5, "nr": 3, "ntheta": 4}},
    "measure": {"order": 8},
    "symbols": {"cutoff": 8, "grid": {"rmax": 1.0, "nr": 2, "ntheta": 3}},
    "paragrassmann": {"l": 5},
}


@pytest.mark.parametrize("cmd", list(_RERUN_CONFIGS))
def test_measure_determinism(tmp_path, cmd):
    # every artifact of a subcommand is byte-identical between two runs
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_RERUN_CONFIGS[cmd]))
    assert main(["--out", str(out1), cmd, "--config", str(cfg)]) == 0
    assert main(["--out", str(out2), cmd, "--config", str(cfg)]) == 0
    names = sorted(p.name for p in out1.iterdir())
    assert names and names == sorted(p.name for p in out2.iterdir())
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_symbols_artifacts(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "phase_symbol": "L^1", "cutoff": 8,
        "grid": {"rmax": 1.0, "nr": 2, "ntheta": 3},
    }))
    assert run(tmp_path, "symbols", "--config", str(cfg)) == 0
    qcs = load(tmp_path, "quantize_cs.json")
    sec = load(tmp_path, "secondary.json")
    assert qcs["result"]["dim"] == 9
    assert sec["result"]["meta"]["basis"] == "B_AH"
    # Qcs(lambda) is the annihilation band: entry (0, 1) = 1
    assert qcs["result"]["entries"][0][1][0] == pytest.approx(1.0, abs=1e-10)
    grid_lines = (tmp_path / "lower_symbol.csv").read_text().splitlines()
    assert len(grid_lines) == 1 + 2 * 3
    # Berezin symbol of the annihilation operator is the identity function
    r0, i0, rv, iv = (float(x) for x in grid_lines[1].split(","))
    assert (rv, iv) == (pytest.approx(r0, abs=1e-10), pytest.approx(i0, abs=1e-10))


def test_paragrassmann_artifact(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"l": 4, "pg_weights": [1, 1, 2, 6]}))
    assert run(tmp_path, "paragrassmann", "--config", str(cfg)) == 0
    doc = load(tmp_path, "paragrassmann.json")
    assert doc["result"]["report"]["nilpotency_index"] == 4
    assert doc["result"]["report"]["extreme"] is True


def test_paragrassmann_reads_scaled_explicit_weights(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"l": 4, "weights": {
        "kind": "explicit", "table": [1, 2, 3, 4, 5], "params": {"scale": 2.0}}}))
    assert run(tmp_path, "paragrassmann", "--config", str(cfg)) == 0
    doc = load(tmp_path, "paragrassmann.json")
    assert doc["result"]["weights"] == [2.0, 4.0, 6.0, 8.0]
    assert doc["config"]["weights"]["params"]["scale"] == 2.0


def test_defaults_that_ran_are_embedded(tmp_path):
    assert run(tmp_path, "coherent") == 0
    assert load(tmp_path, "coherent.json")["config"]["lambda"] == [1.0, 0.0]
    # a derived default: the symbols window is clamped to a table's horizon
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"weights": "explicit:" + ",".join(["1"] * 40),
                               "q": "0.5", "cutoff": 4, "order": 4,
                               "grid": {"rmax": 0.5, "nr": 1, "ntheta": 1}}))
    assert run(tmp_path, "symbols", "--config", str(cfg)) == 0
    assert load(tmp_path, "quantize_cs.json")["config"]["window"] == 39


# the config keys each subcommand reads, by the artifacts that embed them;
# paragrassmann reads weights only to derive pg_weights
_READ = {
    "radius": (("radius.json",), {"weights", "q"}),
    "operator": (("operator.json",), {"weights", "q", "cutoff", "symbol"}),
    "coherent": (("coherent.json",), {"weights", "q", "tol", "cutoff", "lambda"}),
    "kernel": (("kernel.json",), {"weights", "q", "tol", "grid", "mu"}),
    "measure": (("measure.json",), {"weights", "q", "order", "tol", "basis"}),
    "symbols": (("quantize_cs.json", "secondary.json"),
                {"weights", "q", "cutoff", "order", "grid", "window", "phase_symbol",
                 "operator", "normalized"}),
    "paragrassmann": (("paragrassmann.json",), {"q", "l", "pg_weights", "weights"}),
    "verify": (("verify.json",), set()),
}


def test_artifacts_embed_exactly_the_keys_read(tmp_path):
    # each artifact embeds the keys its subcommand read, defaults and derived
    # values included, and nothing else; together they are every config key
    for cmd, (names, keys) in _READ.items():
        assert run(tmp_path, cmd) == 0
        for name in names:
            assert set(load(tmp_path, name)["config"]) == keys, (cmd, name)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"pg_weights": [1, 1, 2]}))
    assert run(tmp_path, "paragrassmann", "--config", str(cfg)) == 0
    assert set(load(tmp_path, "paragrassmann.json")["config"]) == {"q", "l", "pg_weights"}
    assert set().union(*(keys for _, keys in _READ.values())) == set(_KEYS)


def _readme_key_table() -> dict:
    """key -> (default, constraint, read by) of the config key table in README."""
    lines = (Path(__file__).parents[1] / "README.md").read_text().splitlines()
    rows = {}
    for line in lines[lines.index("| key | default | cap or constraint | read by |") + 2:]:
        if not line.startswith("|"):
            break
        key, default, constraint, read_by = (cell.strip()
                                             for cell in line.strip("|").split(" | "))
        rows[key.strip("`")] = (default, constraint, read_by)
    return rows


def test_readme_key_table_lists_every_key_with_its_default():
    rows = _readme_key_table()
    assert list(rows) == list(_KEYS)
    for key, (_, default) in _KEYS.items():
        cell, _, read_by = rows[key]
        if callable(default):       # a derived default names the keys it reads
            cfg = RunConfig()
            default(cfg)
            assert cfg and all(f"`{k}`" in cell for k in cfg), key
        else:
            assert json.loads(cell.strip("`")) == default, key
        assert set(re.findall(r"\w+", read_by)) == {
            cmd for cmd, (_, keys) in _READ.items() if key in keys}, key


# per key, values that break its constraint on their own, beyond the bounds
# _stated_bounds reads from the key table
_OWN_VIOLATIONS = {
    "weights": [{"kind": "constant", "params": {"c": -1}}, "explicit:1,0"],
    "q": [0, [math.inf, 0]],
    "cutoff": [-1],
    "tol": [0, math.inf],
    "order": [],
    "grid": [{"nr": 0}, {"rmax": -1}, {"nr": 400, "ntheta": 400}],
    "symbol": ["zz"],
    "lambda": ["x"],
    "mu": ["x"],
    "basis": [-1],
    "window": [-1],
    "phase_symbol": ["zz"],
    "operator": ["identity"],
    "normalized": [1],
    "l": [],
    "pg_weights": [[1, -2, 3], [1, 0], [1, math.inf], []],
}


def _stated_bounds(constraint: str) -> tuple:
    """(violating, allowed) values of a count or number key from the bounds
    its key-table cell states: at least N, at most N, from A to B, above N."""
    if not constraint.startswith(("count", "finite")):
        return [], []
    low = [int(n) for n in re.findall(r"(?:at least|from) (\d+)", constraint)]
    high = [int(n) for n in re.findall(r"(?:at most|to) (\d+)", constraint)]
    above = [int(n) for n in re.findall(r"above (\d+)", constraint)]
    return ([n - 1 for n in low] + [n + 1 for n in high] + above, low + high)


def test_every_key_refuses_a_violating_value_at_load(tmp_path, capsys):
    # under operator, which reads none of them but q, weights, cutoff and
    # symbol: every given key is checked at load, whichever subcommand runs,
    # and the message names the key
    rows = _readme_key_table()
    assert list(_OWN_VIOLATIONS) == list(rows)
    cfg = tmp_path / "cfg.json"
    for key, (_, constraint, _) in rows.items():
        violating, allowed = _stated_bounds(constraint)
        for value in allowed:
            RunConfig({key: value})
        values = violating + _OWN_VIOLATIONS[key]
        assert values, key
        for value in values:
            cfg.write_text(json.dumps({key: value}))
            assert run(tmp_path, "operator", "--config", str(cfg)) == 2, (key, value)
            assert f"{key!r}" in capsys.readouterr().err, (key, value)
    assert not (tmp_path / "operator.json").exists()


@pytest.mark.parametrize("sub, config", [("coherent", {"lambda": [25, 5e-324]}),
                                         ("kernel", {"mu": [2, 5e-324]})])
def test_subnormal_phase_runs(tmp_path, sub, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run(tmp_path, sub, "--config", str(cfg)) == 0


# the keys whose string form is documented: a complex number as "re,im"
_STRING_FORMS = {"q", "lambda", "mu"}


def test_every_number_and_count_key_refuses_a_numeric_string():
    # a count or a number must be a JSON number; every other key refuses "5"
    # too, being an object, a symbol, a name or a list
    for key in _readme_key_table():
        if key in _STRING_FORMS:
            assert RunConfig({key: "5"})[key] == 5
            continue
        with pytest.raises(ConfigError, match=f"{key}|grid|weight spec|symbol term"):
            RunConfig({key: "5"})
    for sub in ("rmax", "rmin", "nr", "ntheta"):
        with pytest.raises(ConfigError, match="grid values must be numbers"):
            RunConfig({"grid": {sub: "5"}})


def test_stdin_config(tmp_path, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"lambda": [0.5, 0]})))
    assert run(tmp_path, "coherent", "--config", "-") == 0


def test_parse_manin_symbol():
    g = parse_manin_symbol("(2+1j) th^2 tb^1 + tb + (0.5) 1", 1j)
    assert g.coefficient(2, 1) == 2 + 1j
    assert g.coefficient(0, 1) == 1.0
    assert g.coefficient(0, 0) == 0.5
    with pytest.raises(ConfigError):
        parse_manin_symbol("widget", 1.0)
    with pytest.raises(ConfigError):
        parse_manin_symbol("(abc) th^1", 1.0)


def test_verify_runs_clean(tmp_path, capsys):
    assert run(tmp_path, "verify") == 0
    captured = capsys.readouterr()
    assert captured.out.count("PASS") == 12
    doc = load(tmp_path, "verify.json")
    assert all(item["passed"] for item in doc["result"])
    # each criterion's wall time goes to stderr, never to stdout or the artifact
    timing = re.compile(r"^criterion (\d\d) took \d+\.\d ms$", re.M)
    assert timing.findall(captured.err) == [f"{n:02d}" for n in range(1, 13)]
    assert " took " not in captured.out
    assert " took " not in (tmp_path / "verify.json").read_text()


# ---------------------------------------------------------------------------
# the failure contract under random input
# ---------------------------------------------------------------------------

def _complex_text(r, phase):
    return f"{r * math.cos(phase)!r},{r * math.sin(phase)!r}"


_complex = st.builds(_complex_text, st.floats(0.0, 3.0), st.floats(-4.0, 4.0))
# Sizes are kept small so that 200 examples run in a few seconds; the size
# caps themselves are covered by the tests above.
# a weights value: a number, or a string or bool where a number belongs
_weight_value = st.one_of(st.floats(0.1, 3.5), st.integers(1, 3), st.booleans(),
                          st.sampled_from(["2", "x"]))
# weights objects, with misspelt and extra keys among the ones each kind reads
_weights_object = st.fixed_dictionaries(
    {"kind": st.sampled_from(["factorial", "constant", "power-factorial", "explicit",
                              "constnt"])},
    optional={
        "params": st.dictionaries(st.sampled_from(["c", "s", "scale", "C", "scael"]),
                                  _weight_value, max_size=3),
        "table": st.lists(_weight_value, max_size=12),
        "tabel": st.lists(st.floats(0.1, 50.0), max_size=3),
        "parms": st.dictionaries(st.sampled_from(["c", "s"]), _weight_value, max_size=1),
    })
# a string goes in by --weights, an object in the config document
_weights = st.one_of(
    st.sampled_from(["factorial", "constant", "nonsense", "constant:-1",
                     "power-factorial:nan", "explicit:1,0,2"]),
    st.floats(0.1, 4.0).map("constant:{!r}".format),
    st.floats(0.0, 3.5).map("power-factorial:{!r}".format),
    st.lists(st.floats(0.1, 50.0), min_size=1, max_size=12).map(
        lambda t: "explicit:" + ",".join(map(repr, t))),
    _weights_object,
)
# a string goes in by --q, a bool in the config document
_q = st.one_of(st.builds(_complex_text, st.floats(0.05, 2.0), st.floats(-4.0, 4.0)),
               st.sampled_from(["1", "0.9", "1j", "-1", "0", "abc", "inf"]),
               st.booleans())
_valid = {
    "cutoff": st.integers(0, 40),
    "order": st.integers(1, 20),
    "tol": st.sampled_from([1e-14, 1e-12, 1e-8]),
    "grid": st.fixed_dictionaries({}, optional={
        "rmax": st.floats(0.01, 3.0), "rmin": st.floats(0.0, 3.0),
        "nr": st.integers(1, 4), "ntheta": st.integers(1, 4)}),
    "symbol": st.sampled_from(["tb^1", "th^2 tb^1 + (0.5) 1", "(1j) th^5", "tb^7 + th"]),
    "lambda": _complex,
    "mu": _complex,
    "basis": st.integers(0, 12),
    "l": st.integers(1, 8),
    "pg_weights": st.lists(st.floats(0.1, 10.0), min_size=1, max_size=6),
    "window": st.integers(0, 30),
    "phase_symbol": st.sampled_from(["L^1", "Lc^2 + (1j) L^1 Lc^1",
                                     "(0.5-1j) L^2 Lc^1 + (2) Lc^3"]),
    "operator": st.sampled_from(["annihilation", "creation", "adjoint", "number"]),
    "normalized": st.booleans(),
}
_junk = st.one_of(st.none(), st.booleans(), st.text(max_size=4),
                  st.floats(allow_nan=True, allow_infinity=True),
                  st.integers(-10**30, 10**30), st.lists(st.integers(-2, 5), max_size=3))
# a JSON bool for a numeric key, where float(true) would read as 1.0
_bool_number = st.one_of(
    st.dictionaries(st.sampled_from(["tol", "lambda", "mu"]), st.booleans(),
                    min_size=1, max_size=1),
    st.builds(lambda key, b: {"grid": {key: b}}, st.sampled_from(["rmax", "rmin"]),
              st.booleans()))
# a numeric string for a number or count key, where float("5") would read 5
_numeric_text = st.one_of(st.integers(-3, 40).map(str), st.floats(0.0, 3.0).map(repr),
                          st.sampled_from(["1e-8", "nan", "inf", "1e6"]))
_string_number = st.one_of(
    st.dictionaries(st.sampled_from(["cutoff", "order", "tol", "basis", "window", "l"]),
                    _numeric_text, min_size=1, max_size=1),
    st.builds(lambda key, v: {"grid": {key: v}},
              st.sampled_from(["rmax", "rmin", "nr", "ntheta"]), _numeric_text),
    # q is left out: a string q goes in by --q, which overrides the document
    st.builds(lambda key, v: {key: v}, st.sampled_from(["lambda", "mu"]),
              st.lists(_numeric_text, min_size=2, max_size=2)),
    st.builds(lambda v: {"pg_weights": v}, st.lists(_numeric_text, min_size=1, max_size=4)))
# a number for a symbol key, where str(1) would read the constant symbol 1
_number_symbol = st.dictionaries(st.sampled_from(["symbol", "phase_symbol"]),
                                 st.one_of(st.integers(-2, 5), st.floats(-2.0, 2.0)),
                                 min_size=1, max_size=1)
# every key valid, or one key replaced by a junk value of any type, a bool,
# a numeric string or a number for a symbol
_config = st.builds(lambda valid, junk: {**valid, **junk},
                    st.fixed_dictionaries({}, optional=_valid),
                    st.one_of(st.just({}),
                              st.dictionaries(st.sampled_from(sorted(_valid)), _junk,
                                              max_size=1),
                              _bool_number, _string_number, _number_symbol))


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(command=st.sampled_from(["radius", "operator", "coherent", "kernel",
                                "measure", "symbols", "paragrassmann"]),
       weights=_weights, q=_q, config=_config)
@example("measure", "factorial", "1.3", {"order": 2})      # a node at t < 0
@example("symbols", "power-factorial:2", "1.05", {"order": 8, "cutoff": 6})
@example("radius", "factorial", "1", {"cap": 0})
@example("radius", "factorial", "1", {"horizon": 10**21})
@example("symbols", "factorial", "1", {"normalized": "false", "cutoff": 4})
@example("coherent", "factorial", "1", {"lambda": 30})   # |a_n| passes 1e308
@example("kernel", "factorial", "1", {"grid": {"rmax": 30, "nr": 2, "ntheta": 1}})
@example("symbols", "factorial", "1",                   # ||phi_lambda||^2 = e^729
         {"grid": {"rmax": 27, "rmin": 27, "nr": 1, "ntheta": 1}, "window": 1024,
          "order": 4, "cutoff": 4})
@example("symbols", "factorial", "1",
         {"grid": {"rmax": 27, "rmin": 27, "nr": 1, "ntheta": 1}, "window": 1024,
          "order": 4, "cutoff": 4, "normalized": False})
@example("radius", "factorial", "1", {"horizon": 10**306})
@example("radius", "factorial", "1", {"horizon": 10**400})
@example("coherent", "factorial", "1", {"tol": "nan"})
@example("coherent", "factorial", "1", {"tol": "inf"})
@example("paragrassmann", "factorial", "1", {"l": 3, "pg_weights": [1e300, 1e-300, 1.0]})
@example("coherent", "factorial", "1", {"lamda": [2, 0]})
@example("radius", {"kind": "constant", "parms": {"c": 2}}, "1", {})
@example("paragrassmann", "factorial", True, {"l": 3, "pg_weights": [1, "2", True]})
@example("coherent", "power-factorial:-1e306", "1", {})     # log w_58 past a double
@example("kernel", "power-factorial:1e307", "1", {})        # log w_12 past a double
@example("measure", "factorial", "1e4", {"order": 1})       # a Gram matrix past a double
def test_cli_failure_contract(command, weights, q, config):
    """Any input exits 0, 2, 3 or 4, and nothing escapes or warns."""
    flags = []
    for key, value in (("weights", weights), ("q", q)):
        if isinstance(value, str):
            flags.append(f"--{key}={value}")
        else:
            config = {**config, key: value}
    with tempfile.TemporaryDirectory() as out, \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cfg = Path(out) / "cfg.json"
        cfg.write_text(json.dumps(config))
        try:
            code = main(["--out", out, command, "--config", str(cfg), *flags])
        except SystemExit as exc:       # argparse
            code = exc.code
    assert code in (0, 2, 3, 4)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
