"""Toeplitz quantization of the Manin plane.

Operator matrices on the graded basis, coherent states and their phase
space, resolutions of the identity from moment-matched quadrature, symbol
calculus, and the paragrassmann degenerate case.

The exports resolve on first use (PEP 562): ``import qmanin`` loads no
submodule, and ``qmanin.kernel`` imports ``qmanin.coherent`` the first
time it is read.  mpmath loads with ``qmanin.measure``, the Gauss solver,
and the CLI imports each subcommand's modules only when it runs.
"""

import importlib

__version__ = "0.1.0"

# every export, by the submodule that defines it
_HOME = {name: module for module, names in {
    "algebra": ("ManinElement", "ManinMonomial", "QCoeff", "normal_order_product",
                "project_P", "sesquilinear_form"),
    "coherent": ("CoherentStateVector", "EigenResidual", "RadiusEstimate",
                 "coherent_coefficients", "coherent_norm_sq", "cs_transform",
                 "eigen_residual", "evolve", "evolve_state", "kernel",
                 "radius_of_convergence"),
    "errors": ("ConfigError", "IndefiniteMomentsError", "InsufficientQuadratureError",
               "OrderTooHighError", "OutsidePhaseSpaceError", "QmaninError",
               "SolverError", "ToleranceUnreachableError", "WeightHorizonError",
               "WindowTooSmallError"),
    "kernels": ("backend_name",),
    "measure": ("ClosedFormDensity", "DivergenceWitness", "GramReport",
                "MomentCheckReport", "MomentSequence", "RadialQuadrature",
                "closed_form_density", "gauss_quadrature_from_moments",
                "norm_divergence_witness", "verify_density_moments",
                "verify_moments", "verify_resolution_identity"),
    "operators": ("BoundednessReport", "OperatorMeta", "TruncatedOperator",
                  "adjoint_annihilation_matrix", "annihilation_matrix",
                  "boundedness_report", "creation_matrix", "number_matrix",
                  "toeplitz_matrix"),
    "paragrassmann": ("ParagrassmannConfig", "StructureReport", "pg_annihilation",
                      "pg_structure_report"),
    "symbols": ("PolynomialSymbol", "SymbolValueGrid", "lower_symbol",
                "lower_symbol_grid", "quantize_cs", "quantize_cs_norm_bound",
                "secondary_toeplitz"),
    "weights": ("QParam", "WeightSequence"),
}.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # not cached here, so a name always is its home module's attribute
    return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
