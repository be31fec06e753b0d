"""Truncated matrices of Toeplitz operators on the graded basis phi_n.

Column n of T_{theta^i tb^j} holds a single entry

    q^{-jn} * (w_{n+i} / w_n)^{1/2} * (w_{n+i} / w_{n+i-j})^{1/2}   at row n + i - j,

extended linearly over the symbol's terms; each weight quotient is a
product of the exact ratios w_k / w_{k-1}.  Degree-raising terms push
entries past the cutoff window; those are dropped and the operator's
exactness flag is cleared so truncation loss is never silent.

Also here: the boundedness, compactness and norm of the annihilation
operator, in closed form for the rule weights w_n = c (n!)^s.
"""

from __future__ import annotations

import csv as _csv
import io
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .algebra import ManinElement, format_terms
from .errors import ConfigError, InputTooLargeError, WeightHorizonError
from .weights import QParam, WeightSequence


@dataclass(frozen=True)
class OperatorMeta:
    symbol: str
    weights: str
    q: complex
    exact: bool
    basis: str = "phi"


@dataclass(frozen=True)
class TruncatedOperator:
    """A dense (N+1) x (N+1) complex matrix plus cutoff metadata."""

    matrix: np.ndarray
    meta: OperatorMeta

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
            raise ConfigError(f"operator matrix must be square, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ConfigError("operator entries must be finite")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def cutoff(self) -> int:
        return self.dim - 1

    def norm_bound(self) -> float:
        """An upper bound of the spectral norm ||A||_2 in O(entries).

        When every non-zero entry lies on one diagonal, as on the
        annihilation, creation and number bands, it is max |entry|, which is
        ||A||_2 itself; otherwise it is sqrt(||A||_1 ||A||_inf), which is
        also below the sum over the diagonals of their largest |entry|."""
        a = np.abs(self.matrix)
        rows, cols = np.nonzero(a)
        if rows.size and np.all(cols - rows == cols[0] - rows[0]):
            return float(a.max())
        return math.sqrt(float(a.sum(axis=0).max())) * math.sqrt(float(a.sum(axis=1).max()))

    def _relabel(self, **changes) -> "TruncatedOperator":
        """The same, already validated matrix under changed metadata."""
        op = object.__new__(TruncatedOperator)
        object.__setattr__(op, "matrix", self.matrix)
        object.__setattr__(op, "meta", replace(self.meta, **changes))
        return op

    def adjoint(self) -> "TruncatedOperator":
        return TruncatedOperator(self.matrix.conj().T,
                                 replace(self.meta, symbol=f"({self.meta.symbol})*"))

    def to_json(self) -> dict:
        return {"dim": self.dim, "entries": self.matrix, "meta": self.meta}

    def to_csv(self) -> str:
        """Row-major CSV with quoted "re,im" cells."""
        buf = io.StringIO()
        writer = _csv.writer(buf, lineterminator="\n")
        for row in self.matrix:
            writer.writerow([f"{float(z.real)!r},{float(z.imag)!r}" for z in row])
        return buf.getvalue()


# ratio factors one band entry may multiply; a longer band is refused
_MAX_BAND_FACTORS = 1 << 16


def toeplitz_matrix(g: ManinElement, w: WeightSequence, q, N: int) -> TruncatedOperator:
    """Truncated matrix of T_g on the basis phi_0..phi_N.

    Each entry is the symbol coefficient times the q powers of
    ``QParam.power`` times the square-root weight quotients, each a product
    of the band entries (w_k / w_{k-1})^{1/2} of ``w.sqrt_ratios`` taken
    from 1.0 in increasing k, all multiplied as numpy rounds; an entry
    past a double is inf or NaN and refused."""
    q = QParam.of(q)
    if g.q.value != q.value:
        raise ConfigError("symbol was built over a different q")
    if N < 0:
        raise ConfigError("cutoff must be non-negative")
    mat = np.zeros((N + 1, N + 1), dtype=complex)
    exact = True
    for mon, coeff in g:
        i, j = mon.i, mon.j
        exact = exact and i <= j       # else column N's image leaves the window
        lo, hi = max(0, j - i), N + min(0, j - i)   # columns with rows in the window
        if lo > hi:
            continue
        if i + j > _MAX_BAND_FACTORS:
            raise InputTooLargeError(f"th^{i} tb^{j} needs {i + j} weight ratios "
                                     f"per entry, above the cap {_MAX_BAND_FACTORS}")
        c, qpow = coeff.evaluate(g.q), q.power(-j * np.arange(lo, hi + 1))
        s = w.sqrt_ratios(hi + i)
        # column n takes s[k - 1] = (w_k / w_{k-1})^{1/2} at k = n + t, first
        # over 0 < t <= i for (w_{n+i}/w_n)^{1/2}, then over i-j < t <= i
        # for (w_{n+i}/w_{n+i-j})^{1/2}
        with np.errstate(over="ignore", invalid="ignore"):
            z = c * qpow
            for ts in (range(1, i + 1), range(i - j + 1, i + 1)):
                band = np.ones(hi - lo + 1)
                for t in ts:
                    band *= s[lo + t - 1:hi + t]
                z = z * band
        cols = np.arange(lo, hi + 1)
        mat[cols + i - j, cols] += z
    return TruncatedOperator(mat, OperatorMeta(
        symbol=format_terms(((g.coefficient(mon.i, mon.j), mon.i, mon.j) for mon, _ in g),
                            "th", "tb"),
        weights=w.describe(), q=q.value, exact=exact))


def annihilation_matrix(w: WeightSequence, q, N: int) -> TruncatedOperator:
    """T_tb: entry (n-1, n) = q^{-n} (w_n / w_{n-1})^{1/2}."""
    q = QParam.of(q)
    return toeplitz_matrix(ManinElement.theta_bar(q), w, q, N)._relabel(symbol="tb")


def creation_matrix(w: WeightSequence, q, N: int) -> TruncatedOperator:
    """T_th: entry (n+1, n) = (w_{n+1} / w_n)^{1/2}, q-free; column N's
    image phi_{N+1} falls outside the window."""
    q = QParam.of(q)
    return toeplitz_matrix(ManinElement.theta(q), w, q, N)._relabel(symbol="th")


def adjoint_annihilation_matrix(w: WeightSequence, q, N: int) -> TruncatedOperator:
    """(T_tb)*: the conjugate transpose band, entry (n+1, n) =
    conj(q)^{-(n+1)} (w_{n+1} / w_n)^{1/2}."""
    return annihilation_matrix(w, q, N).adjoint()._relabel(symbol="tb*", exact=False)


def number_matrix(N: int) -> TruncatedOperator:
    """Degree operator: diag(0, 1, ..., N)."""
    return TruncatedOperator(np.diag(np.arange(N + 1, dtype=complex)),
                             OperatorMeta("N", "any", 1.0 + 0j, exact=False))


# ---------------------------------------------------------------------------
# boundedness / compactness of the annihilation operator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundednessReport:
    """Verdicts on T_tb and its squared norm, inf where T_tb is unbounded."""

    bounded: bool
    compact: bool
    norm_sq: float

    def __post_init__(self):
        if self.bounded != math.isfinite(self.norm_sq):
            raise ConfigError("an operator is bounded exactly when its norm is finite")
        if self.compact and not self.bounded:
            raise ConfigError("a compact operator is bounded")


# the log of the largest double
_LOG_MAX = math.log(sys.float_info.max)


def boundedness_report(w: WeightSequence, q) -> BoundednessReport:
    """Boundedness, compactness and squared norm of T_tb, in closed form.

    T_tb is a weighted backward shift with |band_n|^2 = |q|^{-2n} n^s for
    the rule w_n = c (n!)^s, so ||T_tb||^2 = sup_n |band_n|^2, and T_tb is
    compact exactly when band_n -> 0 (Shields, "Weighted shift operators
    and analytic function theory", 1974).  The exact test |q| == 1 that the
    phase-space radius takes decides it:

    - |q| > 1: compact; log |band_n|^2 = s log n - 2n log|q| is concave in
      n, so the sup is at the floor or the ceiling of s / (2 log|q|), and
      at n = 1 for s <= 0;
    - |q| = 1: unbounded for s > 0; norm 1 for s = 0, not compact, and for
      s < 0, compact;
    - |q| < 1: unbounded.

    An explicit table fixes no weight past its last index, so no verdict on
    it can be certified: it is refused with WeightHorizonError.  A norm
    past a double is an InputTooLargeError, as a band entry past one is."""
    q = QParam.of(q)
    if w.table is not None:
        raise WeightHorizonError(f"{w.describe()} weights fix no w_n past n = {w.horizon}, "
                                 "so the boundedness of T_tb is not decided")
    if q.abs < 1.0 or (q.abs == 1.0 and w.s > 0):
        return BoundednessReport(False, False, math.inf)
    if q.abs == 1.0:
        return BoundednessReport(True, w.s < 0, 1.0)
    # the real maximizer, clamped to n >= 1; one past a double reads as the
    # largest double, where the log of the sup is already past the range
    x = min(max(w.s / (2.0 * q.log_abs), 1.0), sys.float_info.max)
    log_sup = max(w.s * math.log(n) - n * (2.0 * q.log_abs)
                  for n in {math.floor(x), math.ceil(x)})
    if not log_sup <= _LOG_MAX:         # nan too, from inf - inf
        raise InputTooLargeError(f"||T_tb||^2 of {w.describe()} weights at |q| = {q.abs!r} "
                                 "is past a double")
    return BoundednessReport(True, True, math.exp(log_sup))
