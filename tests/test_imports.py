"""Start-up: the package resolves its exports on first use, and a CLI
subcommand imports only the modules it runs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qmanin

# the modules a subcommand without a Gauss rule must not load
HEAVY = ("mpmath", "qmanin.measure", "qmanin.acceptance", "numpy.random")

EXPORTS = {
    "BoundednessReport", "ClosedFormDensity", "CoherentStateVector",
    "ConfigError", "DivergenceWitness", "EigenResidual", "GramReport",
    "IndefiniteMomentsError", "InsufficientQuadratureError", "ManinElement",
    "ManinMonomial", "MomentCheckReport", "MomentSequence", "OperatorMeta",
    "OrderTooHighError", "OutsidePhaseSpaceError", "ParagrassmannConfig",
    "PolynomialSymbol", "QCoeff", "QParam", "QmaninError", "RadialQuadrature",
    "RadiusEstimate", "SolverError", "StructureReport", "SymbolValueGrid",
    "ToleranceUnreachableError", "TruncatedOperator", "WeightHorizonError",
    "WeightSequence", "WindowTooSmallError",
    "adjoint_annihilation_matrix", "annihilation_matrix", "backend_name",
    "boundedness_report", "closed_form_density", "coherent_coefficients",
    "coherent_norm_sq", "creation_matrix", "cs_transform",
    "eigen_residual", "evolve", "evolve_state",
    "gauss_quadrature_from_moments", "kernel",
    "lower_symbol", "lower_symbol_grid", "norm_divergence_witness",
    "normal_order_product", "number_matrix", "pg_annihilation",
    "pg_structure_report", "project_P", "quantize_cs",
    "quantize_cs_norm_bound", "radius_of_convergence", "secondary_toeplitz",
    "sesquilinear_form", "toeplitz_matrix", "verify_density_moments",
    "verify_moments", "verify_resolution_identity",
}

# One fresh interpreter for every cold check: a bare import, the five
# subcommands without a Gauss rule and the two refusals, then `measure`.
_COLD_SCRIPT = """
import contextlib, io, json, sys
HEAVY = {heavy!r}
out = {out!r}

def loaded():
    return sorted(m for m in HEAVY if m in sys.modules)

report = {{}}
import qmanin
report["bare_import"] = sorted(m for m in sys.modules if m.startswith("qmanin."))

from qmanin.cli import main
codes = []
for argv in {runs!r}:
    with contextlib.redirect_stderr(io.StringIO()):
        codes.append(main(["--out", out, *argv]))
report["codes"] = codes
report["light"] = loaded()

with contextlib.redirect_stderr(io.StringIO()):
    report["measure_code"] = main(["--out", out, "measure", "--config", {measure_cfg!r}])
report["measure"] = loaded()
print(json.dumps(report))
"""


@pytest.fixture(scope="module")
def cold_report(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cold")
    rmax = tmp / "rmax.json"
    rmax.write_text(json.dumps({"grid": {"rmax": "abc"}}))
    order = tmp / "order.json"
    order.write_text(json.dumps({"order": 6}))
    runs = [["operator"], ["coherent"], ["kernel"], ["radius"], ["paragrassmann"],
            ["operator", "--q", "0.1", "--cutoff", "400"],
            ["kernel", "--config", str(rmax)]]
    script = _COLD_SCRIPT.format(heavy=HEAVY, out=str(tmp / "out"), runs=runs,
                                 measure_cfg=str(order))
    # a RuntimeWarning is an error in the child, as the suite makes it in process
    env = dict(os.environ, PYTHONPATH=str(Path(qmanin.__file__).parents[1]),
               PYTHONWARNINGS="error::RuntimeWarning")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_light_subcommands_skip_the_gauss_solver(cold_report):
    assert cold_report["codes"] == [0, 0, 0, 0, 0, 2, 2]
    assert cold_report["light"] == []


def test_measure_loads_the_solver_not_the_suite(cold_report):
    assert cold_report["measure_code"] == 0
    assert "qmanin.measure" in cold_report["measure"]
    assert "qmanin.acceptance" not in cold_report["measure"]


def test_bare_import_loads_no_submodule(cold_report):
    # qmanin.measure (and with it mpmath) included
    assert cold_report["bare_import"] == []


def test_exports_are_pinned():
    assert set(qmanin.__all__) == EXPORTS


def test_each_export_is_its_home_module_attribute():
    import qmanin.coherent

    assert qmanin.kernel is qmanin.coherent.kernel
    for name in qmanin.__all__:
        home = sys.modules[getattr(qmanin, name).__module__]
        assert getattr(qmanin, name) is getattr(home, name), name


def test_star_import():
    namespace = {}
    exec("from qmanin import *", namespace)
    assert EXPORTS <= set(namespace)
    assert namespace["WeightSequence"] is qmanin.WeightSequence


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        qmanin.no_such_name
    assert not hasattr(qmanin, "sum_series")


def test_submodule_import_by_name():
    from qmanin import measure

    assert measure.MomentSequence is qmanin.MomentSequence
    assert "RadialQuadrature" in dir(qmanin)
