"""Toeplitz quantization of the Manin plane.

Operator matrices on the graded basis, coherent states and their phase
space, resolutions of the identity from moment-matched quadrature, symbol
calculus, and the paragrassmann degenerate case.
"""

from .algebra import (ManinElement, ManinMonomial, QCoeff,
                      normal_order_product, project_P, sesquilinear_form)
from .coherent import (CoherentStateVector, EigenResidual, RadiusEstimate,
                       coherent_coefficients, coherent_norm_sq, cs_transform,
                       eigen_residual, evolve, evolve_state, kernel,
                       radius_of_convergence)
from .errors import (ConfigError, IndefiniteMomentsError,
                     InsufficientQuadratureError, OrderTooHighError,
                     OutsidePhaseSpaceError, QmaninError, SolverError,
                     ToleranceUnreachableError, VerificationFailure,
                     WeightHorizonError, WindowTooSmallError)
from .kernels import backend_name
from .measure import (ClosedFormDensity, DivergenceWitness, GramReport,
                      MomentCheckReport, MomentSequence, RadialQuadrature,
                      closed_form_density, gauss_quadrature_from_moments,
                      norm_divergence_witness, verify_density_moments,
                      verify_moments, verify_resolution_identity)
from .operators import (BoundednessReport, OperatorMeta, TruncatedOperator,
                        adjoint_annihilation_matrix, annihilation_matrix,
                        boundedness_report, creation_matrix, domain_membership,
                        identity_matrix, number_matrix, toeplitz_matrix)
from .paragrassmann import (ParagrassmannConfig, StructureReport,
                            pg_annihilation, pg_structure_report)
from .symbols import (PolynomialSymbol, SymbolValueGrid, lower_symbol,
                      lower_symbol_grid, quantize_cs, quantize_cs_norm_bound,
                      secondary_toeplitz)
from .weights import QParam, WeightSequence

__version__ = "0.1.0"

__all__ = [
    "BoundednessReport", "ClosedFormDensity", "CoherentStateVector",
    "ConfigError", "DivergenceWitness", "EigenResidual", "GramReport",
    "IndefiniteMomentsError", "InsufficientQuadratureError", "ManinElement",
    "ManinMonomial", "MomentCheckReport", "MomentSequence", "OperatorMeta",
    "OrderTooHighError", "OutsidePhaseSpaceError", "ParagrassmannConfig",
    "PolynomialSymbol", "QCoeff", "QParam", "QmaninError", "RadialQuadrature",
    "RadiusEstimate", "SolverError", "StructureReport", "SymbolValueGrid",
    "ToleranceUnreachableError", "TruncatedOperator", "VerificationFailure",
    "WeightHorizonError", "WeightSequence", "WindowTooSmallError",
    "adjoint_annihilation_matrix", "annihilation_matrix", "backend_name",
    "boundedness_report", "closed_form_density", "coherent_coefficients",
    "coherent_norm_sq", "creation_matrix", "cs_transform",
    "domain_membership", "eigen_residual", "evolve", "evolve_state",
    "gauss_quadrature_from_moments", "identity_matrix", "kernel",
    "lower_symbol", "lower_symbol_grid", "norm_divergence_witness",
    "normal_order_product", "number_matrix", "pg_annihilation",
    "pg_structure_report", "project_P", "quantize_cs",
    "quantize_cs_norm_bound", "radius_of_convergence", "secondary_toeplitz",
    "sesquilinear_form", "toeplitz_matrix", "verify_density_moments",
    "verify_moments", "verify_resolution_identity",
]
