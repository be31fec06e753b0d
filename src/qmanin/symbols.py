"""Symbol calculus: lower symbols, coherent state quantization, and the
secondary Toeplitz operators on the generalized Segal-Bargmann basis.

Upper symbols are restricted to the polynomial class spanned by
lambda^a conj(lambda)^b: every identity proved for them is exact under a
moment-matched quadrature, so the operators built here are
quadrature-exact rather than approximate.  The coherent state
quantization and the secondary Toeplitz operator share one builder, which
takes each entry in closed form from the moments of the rule: the measure
is rotation invariant, so no angular grid is sampled.

A lower symbol is the quadratic form b^H A b of the scaled coefficients
b = a * exp(-m) of the truncated coherent state, on the block of A that
its indexes reach.  The Berezin symbol divides by b^H b, so it never
forms ||phi_lambda||^2, which can overflow a double where the symbol does
not.  Points are taken ROW_BLOCK at a time: a block's diagonal series are
summed together (or, in Bargmann's and the Hardy space, truncated in
closed form), its coefficient rows come from the one coherent-state core
in ``coherent``, and its quadratic forms are summed band by band.  A
single point is the block of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Tuple

import numpy as np

from .algebra import format_terms, parse_terms
from .coherent import _coefficient_rows, coeff_log_arrays, coherent_norm_sq
from .errors import (ConfigError, InputTooLargeError, InsufficientQuadratureError,
                     WindowTooSmallError)
from .kernels import log_power_sums
from .operators import OperatorMeta, TruncatedOperator
from .series import ROW_BLOCK, bound_from_log
from .weights import QParam, WeightSequence

if TYPE_CHECKING:       # annotations only: a lower symbol needs no Gauss solver
    from .measure import RadialQuadrature


class PolynomialSymbol:
    """A finite sum  f(lambda) = sum c_{a,b} lambda^a conj(lambda)^b."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Dict[Tuple[int, int], complex]):
        clean = {}
        for (a, b), c in coeffs.items():
            a, b, c = int(a), int(b), complex(c)
            if a < 0 or b < 0:
                raise ConfigError("symbol powers must be non-negative")
            if c != 0:
                clean[(a, b)] = c
        self.coeffs = dict(sorted(clean.items()))

    @classmethod
    def one(cls) -> "PolynomialSymbol":
        return cls({(0, 0): 1.0})

    @classmethod
    def lam(cls) -> "PolynomialSymbol":
        return cls({(1, 0): 1.0})

    @classmethod
    def lam_conj(cls) -> "PolynomialSymbol":
        return cls({(0, 1): 1.0})

    @property
    def degree(self) -> int:
        return max((a + b for a, b in self.coeffs), default=0)

    def conjugate(self) -> "PolynomialSymbol":
        return PolynomialSymbol({(b, a): c.conjugate()
                                 for (a, b), c in self.coeffs.items()})

    def scaled(self, z: complex) -> "PolynomialSymbol":
        return PolynomialSymbol({k: z * c for k, c in self.coeffs.items()})

    def __add__(self, other: "PolynomialSymbol") -> "PolynomialSymbol":
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0j) + c
        return PolynomialSymbol(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, PolynomialSymbol) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(self.coeffs.items()))

    def evaluate(self, lam):
        lam = np.asarray(lam, dtype=complex)
        out = np.zeros_like(lam)
        for (a, b), c in self.coeffs.items():
            out = out + c * lam**a * np.conj(lam) ** b
        return out if out.ndim else complex(out)

    def describe(self) -> str:
        return format_terms(((c, a, b) for (a, b), c in self.coeffs.items()), "L", "Lc")

    @classmethod
    def parse(cls, text: str) -> "PolynomialSymbol":
        """Terms `(coeff) L^a Lc^b` joined by '+' (see ``parse_terms``)."""
        coeffs: Dict[Tuple[int, int], complex] = {}
        for c, a, b in parse_terms(text, "L", "Lc"):
            coeffs[(a, b)] = coeffs.get((a, b), 0j) + c
        return cls(coeffs)


@dataclass(frozen=True)
class SymbolValueGrid:
    """Samples over a lambda grid: lower symbols, kernels or squared norms."""

    points: np.ndarray
    values: np.ndarray

    def to_csv(self) -> str:
        lines = ["re_lambda,im_lambda,re_value,im_value"]
        for z, v in zip(self.points, self.values):
            lines.append(f"{float(z.real)!r},{float(z.imag)!r},"
                         f"{float(v.real)!r},{float(v.imag)!r}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# lower (covariant) symbols
# ---------------------------------------------------------------------------

def _forms(A: TruncatedOperator, B: np.ndarray, m: np.ndarray, pts,
           normalized: bool) -> np.ndarray:
    """<phi, A phi> for each row b of B, where phi = b * exp(m) on the
    indexes 0..K-1 and A acts, band by band, on the K x K block they reach.

    The normalized form is b^H A b / b^H b, taken in the scaled domain;
    an unnormalized value beyond a double is refused."""
    Bc, K = B.conj(), B.shape[1]
    forms = 0j          # broadcasts where A has no band
    for d, band in A.bands.items():
        r, c, n = max(0, -d), max(0, d), max(0, K - abs(d))
        forms = forms + (Bc[:, r:r + n] * B[:, c:c + n]) @ band[:n]
    if normalized:
        return forms / (Bc * B).real.sum(axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.where(forms == 0, 0j, forms * np.exp(2.0 * m))
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        raise InputTooLargeError(f"the unnormalized lower symbol at lambda = "
                                 f"{complex(pts[bad[0]])} overflows a double")
    return vals


def _lower_symbols(A: TruncatedOperator, pts: list, w: WeightSequence, q: QParam,
                   normalized: bool, tol: float):
    """<phi_lambda, A phi_lambda> at a block of at most ROW_BLOCK points, from
    their coefficient rows: (values, scaled rows B, scales m, outcomes).
    The points before the first that fails, or whose cutoff passes the
    operator window (WindowTooSmallError), are formed before it raises."""
    outcomes, logmag, phase = _coefficient_rows(pts, w, q, tol, cut_max=A.cutoff)
    m = logmag.max(axis=1, initial=-np.inf)
    B = np.exp(logmag - m[:, None]) * np.exp(1j * phase)
    vals = _forms(A, B, m, pts, normalized)
    if len(vals) < len(pts):
        res = outcomes[len(vals)]
        raise res if isinstance(res, Exception) else WindowTooSmallError(
            f"operator window N={A.cutoff} cannot hold the coherent state "
            f"(needs n <= {res.nterms - 1} at tol={tol:g})")
    return vals, B, m, outcomes


def lower_symbol(A: TruncatedOperator, lam: complex, w: WeightSequence, q,
                 normalized: bool = True, tol: float = 1e-14,
                 return_error: bool = False):
    """<phi_lambda, A phi_lambda> on the truncation (Berezin when normalized).

    The coherent state is truncated at the certified tolerance; its cutoff
    must fit inside the operator window, otherwise the quadratic form
    would silently ignore certified mass (WindowTooSmallError).  The
    certified truncation error of the quadratic form is available via
    ``return_error``; it is taken in the log domain with ||A|| from
    ``A.norm_bound()``, and an unnormalized bound beyond a double is
    refused (InputTooLargeError).
    """
    vals, B, m, (res,) = _lower_symbols(A, [lam], w, QParam.of(q), normalized, tol)
    value = complex(vals[0])
    if not return_error:
        return value
    # certified error: tail mass times the operator's column reach, taken
    # in the log domain, where ||phi_lambda||^2 may pass a double
    op_norm = A.norm_bound()
    log_norm_sq = 2.0 * m[0] + math.log(float(np.vdot(B[0], B[0]).real))
    log_err = 0.5 * (res.tail_log + log_norm_sq)
    if normalized:
        log_err -= log_norm_sq
    err = 2.0 * op_norm * bound_from_log(log_err) if op_norm else 0.0
    if not math.isfinite(err):
        raise InputTooLargeError(f"the error bound of the unnormalized lower symbol "
                                 f"at lambda = {complex(lam)} overflows a double")
    return value, err


def lower_symbol_grid(A: TruncatedOperator, points, w: WeightSequence, q,
                      normalized: bool = True, tol: float = 1e-14) -> SymbolValueGrid:
    """``lower_symbol`` at every point, ROW_BLOCK points at a time: their
    diagonal series are summed together (truncated in closed form in
    Bargmann's and the Hardy space) and their quadratic forms taken band
    by band.  The first point that fails raises its error."""
    q = QParam.of(q)
    pts = np.asarray(points, dtype=complex).ravel()
    vals = np.empty(pts.size, dtype=complex)
    for start in range(0, pts.size, ROW_BLOCK):
        blk = pts[start:start + ROW_BLOCK].tolist()
        vals[start:start + len(blk)] = _lower_symbols(A, blk, w, q, normalized, tol)[0]
    return SymbolValueGrid(pts, vals)


# ---------------------------------------------------------------------------
# coherent state quantization and the secondary Toeplitz operators
# ---------------------------------------------------------------------------

def _quantize(f: PolynomialSymbol, quad: RadialQuadrature, w: WeightSequence,
              q, N: int, symbol: str, basis: str) -> TruncatedOperator:
    """Entry (k, n) = a_k(1) conj(a_n(1)) * I[k, n], where
    I[k, n] = integral of f(lambda) lambda^k conj(lambda)^n d rho.

    rho is rotation invariant, so only the terms c_ab lambda^a conj(lambda)^b
    with k + a = n + b survive, on the band at offset a - b, and I[k, n] =
    pi * sum of c_ab S_{k+a} with S_j = sum_i mass_i t_i^j, which the rule
    matches for j <= 2 * order - 1.  Each entry is summed in the log domain.
    """
    q = QParam.of(q)
    reach = N + f.degree
    if 2 * quad.order - 1 < reach:
        raise InsufficientQuadratureError(
            f"radial order {quad.order} matches moments up to "
            f"{2 * quad.order - 1} but the integrands reach degree {reach}")
    log_s = log_power_sums(*quad.log_arrays(), reach)
    logmag, phase = coeff_log_arrays(1.0, w, q, 0, N + 1)
    bands = {}
    for (a, b), c in f.coeffs.items():
        k = np.arange(max(0, b - a), N + 1 - max(0, a - b))
        n = k + a - b
        if k.size:
            bands[a - b] = bands.get(a - b, 0j) + c * np.exp(
                math.log(math.pi) + log_s[k + a] + logmag[k] + logmag[n]
            ) * np.exp(1j * (phase[k] - phase[n]))
    return TruncatedOperator(bands, N + 1, OperatorMeta(
        symbol=symbol, weights=w.describe(), q=q.value, exact=True, basis=basis))


def quantize_cs(f: PolynomialSymbol, quad: RadialQuadrature,
                w: WeightSequence, q, N: int) -> TruncatedOperator:
    """Matrix of the coherent state quantization of f on phi_0..phi_N."""
    return _quantize(f, quad, w, q, N, f"Qcs[{f.describe()}]", "phi")


def secondary_toeplitz(f: PolynomialSymbol, quad: RadialQuadrature,
                       w: WeightSequence, q, N: int) -> TruncatedOperator:
    """Matrix of S_f = P_K(f .) on the orthonormal basis e_j of the
    generalized Segal-Bargmann space.

    The basis images satisfy e_j = conj(a_j), so the matrix elements
    <e_j, f e_k> coincide formula-for-formula with the quantization
    entries; only the basis tag differs.
    """
    return _quantize(f, quad, w, q, N, f"S[{f.describe()}]", "B_AH")


def quantize_cs_norm_bound(f: PolynomialSymbol, quad: RadialQuadrature,
                           w: WeightSequence, q) -> float:
    """Upper bound of ||f||_1 in L^1(||phi_lambda||^2 d rho) on the rule.

    Dominates the operator norm of the quantization of f.  On the circle
    |lambda| = r, |f| is at most sum |c_ab| r^{a+b}, so that majorant at
    each node bounds the rule integral of |f| from above with no angular
    grid; for a monomial it is the rule integral itself.
    """
    q = QParam.of(q)
    r = np.sqrt(quad.nodes)
    nsq = coherent_norm_sq(r, w, q, tol=1e-12)
    majorant = sum(abs(c) * r ** (a + b) for (a, b), c in f.coeffs.items())
    return float(np.sum(math.pi * quad.masses * nsq * majorant))
