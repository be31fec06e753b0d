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

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .operators import TruncatedOperator, annihilation_matrix
from .weights import QParam, WeightSequence

# Largest nilpotency order accepted.  pg_structure_report costs O(l^4):
# about 1.5 s at l = 256 and 8 s at l = 512.
MAX_PG_ORDER = 256


@dataclass(frozen=True)
class ParagrassmannConfig:
    """Nilpotency order 2 <= l <= MAX_PG_ORDER, weights w_0..w_{l-1} > 0,
    and q."""

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

    def to_json(self) -> dict:
        return {
            "nilpotency_index": self.nilpotency_index,
            "eigenvalues": [[z.real, z.imag] for z in self.eigenvalues],
            "eigenvector_count": self.eigenvector_count,
            "phase_space": [[z.real, z.imag] for z in self.phase_space],
            "extreme": self.extreme,
            "jordan_deviation": self.jordan_deviation,
        }


def pg_structure_report(cfg: ParagrassmannConfig) -> StructureReport:
    """Verify nilpotency, spectrum and Jordan structure by exact matrix
    arithmetic (superdiagonal powers shift bands, so zeros are exact)."""
    T = pg_annihilation(cfg).matrix
    l = cfg.l
    power = np.eye(l, dtype=complex)
    nilpotency = None
    for p in range(1, l + 1):
        power = power @ T
        if not power.any():
            nilpotency = p
            break
    if nilpotency != l:
        raise AssertionError(f"expected nilpotency {l}, found {nilpotency}")

    # rank of a superdiagonal matrix = number of nonzero band entries
    rank = int(np.count_nonzero(np.diag(T, k=1)))
    geometric_multiplicity = l - rank

    # diagonal similarity D^{-1} T D = J with d_j = d_{j-1} / t_j
    d = np.ones(l)
    for j in range(1, l):
        d[j] = d[j - 1] / T[j - 1, j].real
    J = np.diag(np.ones(l - 1), k=1)
    conj = np.diag(1.0 / d) @ T @ np.diag(d)
    deviation = float(np.max(np.abs(conj - J)))

    return StructureReport(
        nilpotency_index=nilpotency,
        eigenvalues=(0j,),
        eigenvector_count=geometric_multiplicity,
        phase_space=(0j,),
        extreme=True,
        jordan_deviation=deviation,
    )
