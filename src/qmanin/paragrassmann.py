"""The finite-dimensional degenerate case: nilpotent quotients PG_{l,q}.

Setting theta^l = thetabar^l = 0 collapses the holomorphic subalgebra to
dimension l.  The annihilation operator becomes the weighted superdiagonal
matrix of Eq-style band entries (w_j / w_{j-1})^{1/2}, with no q factor:
this section of the theory multiplies the symbol on the right, unlike the
left-multiplication convention used everywhere else in the package, and
right multiplication by thetabar picks up no q power.  The operator is an
l x l Jordan nilpotent up to a positive diagonal rescaling, its spectrum
is {0}, and the phase space degenerates to the single point 0: the
textbook extreme quantum theory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InputTooLargeError
from .operators import TruncatedOperator, annihilation_matrix
from .weights import QParam, WeightSequence

# Largest nilpotency order accepted: it bounds the l x l matrix of
# pg_annihilation (pg_structure_report is O(l^2) on its band).
MAX_PG_ORDER = 256


@dataclass(frozen=True)
class ParagrassmannConfig:
    """Nilpotency order 2 <= l <= MAX_PG_ORDER, weights w_0..w_{l-1} > 0
    whose quotients w_j / w_{j-1} are positive finite doubles, and q."""

    l: int
    weights: tuple
    q: complex = 1.0 + 0j

    def __post_init__(self):
        if self.l < 2:
            raise ConfigError("nilpotency order must be at least 2")
        if self.l > MAX_PG_ORDER:
            raise ConfigError(f"nilpotency order {self.l} exceeds the cap "
                              f"{MAX_PG_ORDER}")
        ws = WeightSequence.explicit(self.weights).table    # positive, finite
        if len(ws) != self.l:
            raise ConfigError(f"need exactly {self.l} weights, got {len(ws)}")
        for j in range(1, self.l):
            if not 0.0 < ws[j] / ws[j - 1] < math.inf:
                raise ConfigError(f"the weight quotient w_{j} / w_{j - 1} leaves "
                                  f"the double range")
        object.__setattr__(self, "weights", ws)
        object.__setattr__(self, "q", QParam.of(self.q).value)


def pg_annihilation(cfg: ParagrassmannConfig) -> TruncatedOperator:
    """The l x l annihilation matrix: superdiagonal (w_j / w_{j-1})^{1/2},
    the annihilation band of the table at q = 1.

    q-independent; exact, since nothing is truncated away."""
    A = annihilation_matrix(WeightSequence.explicit(cfg.weights), 1.0, cfg.l - 1)
    return A._relabel(symbol="tb (paragrassmann)", weights=f"pg[{cfg.l}]", q=cfg.q)


@dataclass(frozen=True)
class StructureReport:
    nilpotency_index: int
    eigenvalues: tuple
    eigenvector_count: int
    phase_space: tuple
    extreme: bool
    jordan_deviation: float


def pg_structure_report(cfg: ParagrassmannConfig) -> StructureReport:
    """Verify nilpotency, spectrum and Jordan structure by exact arithmetic
    on the superdiagonal band t_j = T[j-1, j].

    T^p is the single band p above the diagonal with entries
    t_{i+1} ... t_{i+p}, each power's band the previous one times t: the
    entries a dense ``power @ T`` forms, in O(l) per power.  T^l has no band
    left, so the nilpotency index is l unless a band below it underflows to
    zero or overflows, which is refused."""
    t = np.diag(pg_annihilation(cfg).matrix, k=1).real
    l = cfg.l
    band = t
    with np.errstate(over="ignore", divide="ignore"):
        for p in range(1, l):
            if not band.any() or not np.isfinite(band).all():
                raise InputTooLargeError(f"the band of T^{p} leaves the double range")
            band = band[:-1] * t[p:]

        # diagonal similarity D^{-1} T D = J with d_j = d_{j-1} / t_j
        d = np.ones(l)
        for j in range(1, l):
            d[j] = d[j - 1] / t[j - 1]
        d_inv = 1.0 / d
        if not (np.isfinite(d).all() and np.isfinite(d_inv).all()):
            raise InputTooLargeError("the Jordan similarity D leaves the double range")
        deviation = float(np.max(np.abs(d_inv[:-1] * t * d[1:] - 1.0)))

    return StructureReport(
        nilpotency_index=l,
        eigenvalues=(0j,),
        # l minus the rank, the number of nonzero band entries
        eigenvector_count=l - int(np.count_nonzero(t)),
        phase_space=(0j,),
        extreme=True,
        jordan_deviation=deviation,
    )
