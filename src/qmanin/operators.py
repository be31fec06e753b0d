"""Truncated matrices of Toeplitz operators on the graded basis phi_n.

Column n of T_{theta^i tb^j} holds a single entry

    q^{-jn} * (w_{n+i} / w_n)^{1/2} * (w_{n+i} / w_{n+i-j})^{1/2}   at row n + i - j,

extended linearly over the symbol's terms; each weight quotient is a
product of the exact ratios w_k / w_{k-1}.  Degree-raising terms push
entries past the cutoff window; those are dropped and the operator's
exactness flag is cleared so truncation loss is never silent.

Also here: the boundedness/compactness classifier for the annihilation
operator and the domain membership test, both driven by the ratio
sequence |q|^{-2n} w_n / w_{n-1} taken from the same ratios.
"""

from __future__ import annotations

import csv as _csv
import io
import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence, Union

import numpy as np

from .algebra import ManinElement, format_terms
from .errors import ConfigError, InputTooLargeError
from .kernels import complex_product
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

    Each square-root weight quotient is a product of w.sqrt_ratio(k) taken
    from 1.0 in increasing k; an entry past a double is inf and refused."""
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
        z = complex_product(coeff.evaluate(g.q), q.powers(-j * np.arange(lo, hi + 1)))
        s = w.sqrt_ratios(hi + i)
        # column n takes s[k - 1] = sqrt_ratio(k) at k = n + t, first over
        # 0 < t <= i for (w_{n+i}/w_n)^{1/2}, then over i-j < t <= i for
        # (w_{n+i}/w_{n+i-j})^{1/2}
        with np.errstate(over="ignore", invalid="ignore"):
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
# boundedness / compactness classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundednessReport:
    """Verdicts from the ratio sequence |q|^{-2n} w_n / w_{n-1}, n = 1..H."""

    ratio_sequence: tuple
    bounded: str          # yes | no | inconclusive
    compact: str
    sup_estimate: float

    def __post_init__(self):
        if self.bounded == "yes" and not math.isfinite(self.sup_estimate):
            raise ConfigError("bounded=yes requires a finite sup estimate")
        if self.compact == "yes" and self.bounded != "yes":
            raise ConfigError("compact=yes implies bounded=yes")


def _increment_slope(ratios: np.ndarray, idx: np.ndarray) -> float | None:
    """log-log slope of the positive increments over the tail window."""
    d = np.diff(ratios)
    n = idx[1:].astype(float)
    pos = d > 0
    if pos.sum() < 6:
        return None
    x, y = np.log(n[pos]), np.log(d[pos])
    k = max(6, x.size // 2)
    x, y = x[-k:], y[-k:]
    slope = np.polyfit(x, y, 1)[0]
    return float(slope)


def boundedness_report(w: WeightSequence, q, horizon: int = 200) -> BoundednessReport:
    """Classify T_tb from the first ``horizon`` ratio samples.

    A decaying tail certifies compactness, a flat positive tail certifies
    boundedness, and steadily growing ratios (increment log-log slope
    above -1, the p-series threshold) indicate an unbounded operator.
    Anything ambiguous is reported as inconclusive.
    """
    q = QParam.of(q)
    horizon = w.max_index(int(horizon))
    if horizon < 10:
        raise ConfigError("boundedness classification needs horizon >= 10")
    n = np.arange(1, horizon + 1, dtype=np.int64)
    with np.errstate(divide="ignore", over="ignore"):
        ratios = np.exp(-2.0 * n * q.log_abs + np.log([w.ratio(k) for k in n]))
    window = ratios[-max(8, ratios.size // 4):]
    sup = float(np.max(ratios))
    zero_tol = 1e-12 * max(1.0, sup)

    bounded, compact = "inconclusive", "inconclusive"
    if math.isinf(sup):
        # the squared norm is at least every ratio, and one is past a double
        bounded, compact = "no", "no"
    elif np.all(np.diff(window) <= 1e-12 * np.maximum(window[:-1], 1e-300)):
        # non-increasing tail
        if window[-1] <= zero_tol:
            bounded, compact = "yes", "yes"
        else:
            bounded = "yes"
            if window[-1] > 1e-8 * max(1.0, sup):
                compact = "no"
    elif np.all(np.diff(window) >= -1e-12 * np.maximum(window[:-1], 1e-300)):
        # non-decreasing tail: unbounded iff the increments do not decay
        # summably; slope > -1 in log-log means the growth never stops
        if sup > 1e9:
            bounded, compact = "no", "no"
        else:
            slope = _increment_slope(ratios, n)
            if slope is not None and slope > -0.9:
                bounded, compact = "no", "no"
            elif slope is not None and slope < -1.1:
                bounded = "yes"
                if window[-1] > zero_tol:
                    compact = "no"

    if bounded == "no":
        sup = math.inf
    return BoundednessReport(tuple(ratios), bounded, compact, sup)


CoefficientSource = Union[Sequence[complex], Callable[[int], complex]]


def domain_membership(coeff_source: CoefficientSource, w: WeightSequence, q,
                      horizon: int = 400) -> str:
    """Does sum a_n phi_n lie in the domain of the annihilation operator?

    Decides convergence of sum |a_n|^2 |q|^{-2n} w_n / w_{n-1} by a ratio
    test, a harmonic-comparison test and the p-series slope of the terms;
    finite vectors are always members.  Returns 'in_domain',
    'not_in_domain' or 'inconclusive'.
    """
    q = QParam.of(q)
    if not callable(coeff_source):
        return "in_domain"
    horizon = w.max_index(int(horizon))
    n = np.arange(1, horizon + 1, dtype=np.int64)
    log_a = np.empty(n.size)
    for k in n:
        a = complex(coeff_source(int(k)))
        log_a[k - 1] = math.log(abs(a)) if a != 0 else -math.inf
    with np.errstate(divide="ignore", invalid="ignore"):
        log_t = 2.0 * log_a - 2.0 * n * q.log_abs + np.log([w.ratio(k) for k in n])
    if np.any(np.isnan(log_t) | np.isposinf(log_t)):
        return "inconclusive"       # a weight ratio past a double
    if np.all(np.isneginf(log_t[-(n.size // 4):])):
        return "in_domain"          # effectively finite support

    win = slice(-max(16, n.size // 4), None)
    dratio = np.diff(log_t)
    dwin = dratio[np.isfinite(dratio)][win]
    if dwin.size >= 8:
        # geometric decay only counts when the ratio is not drifting upward,
        # otherwise 1 - 1/n style ratios masquerade as geometric
        if np.max(dwin) < math.log(0.999) and np.max(np.diff(dwin)) <= 1e-12:
            return "in_domain"
        if np.min(dwin) > math.log(1.001):
            return "not_in_domain"  # terms grow geometrically

    # harmonic comparison: liminf n * t_n > 0 forces divergence
    log_nt = log_t + np.log(n)
    tail = log_nt[win]
    if np.min(tail) > math.log(1e-3) and tail[-1] >= tail[0] - 0.5:
        return "not_in_domain"

    # p-series slope of log t against log n
    x, y = np.log(n[win]), log_t[win]
    finite = np.isfinite(y)
    if finite.sum() >= 8:
        slope = float(np.polyfit(x[finite], y[finite], 1)[0])
        if slope < -1.1:
            return "in_domain"
        if slope > -0.9:
            return "not_in_domain"
    return "inconclusive"
