"""Weight sequences w_n and the deformation parameter q.

A weight sequence assigns a positive real w_n to every degree n >= 0 and
determines the whole theory: the sesquilinear form, the operator matrices,
the phase-space radius and the moment problem all read their numbers from
here.  The convention w_m = 1 for m < 0 is baked in.

Weights can be astronomically large (factorial, |q|-power tables), so every
consumer that cares about overflow goes through ``log_weight`` /
``log_weights`` instead of ``weight``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, InputTooLargeError, WeightHorizonError

_RULE_KINDS = ("factorial", "constant", "power-factorial")
KINDS = _RULE_KINDS + ("explicit",)

# largest n with n! finite in float64
_MAX_EXACT_FACTORIAL = 170


@dataclass(frozen=True)
class QParam:
    """The non-zero complex parameter q of the commutation relation."""

    value: complex

    def __post_init__(self):
        v = complex(self.value)
        if v == 0:
            raise ConfigError("q must be a non-zero complex number")
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            raise ConfigError("q must be finite")
        object.__setattr__(self, "value", v)

    @classmethod
    def of(cls, q) -> "QParam":
        return q if isinstance(q, QParam) else cls(complex(q))

    @property
    def abs(self) -> float:
        return abs(self.value)

    @property
    def log_abs(self) -> float:
        return math.log(abs(self.value))

    @property
    def arg(self) -> float:
        return math.atan2(self.value.imag, self.value.real)

    def power(self, e: int) -> complex:
        """q**e for integer e, via logs so large |e| cannot silently wrap."""
        if e == 0:
            return 1.0 + 0.0j
        m = e * self.log_abs
        if m > 700.0:
            raise InputTooLargeError(f"|q|**{e} overflows a double")
        return math.exp(m) * complex(math.cos(e * self.arg), math.sin(e * self.arg))


@dataclass(frozen=True)
class WeightSequence:
    """Rule-based or tabulated positive weights w_n.

    kind 'factorial' gives w_n = n!, 'constant' gives w_n = c,
    'power-factorial' gives w_n = (n!)**s, 'explicit' reads a finite table.
    ``scale`` multiplies every weight; it exists so the radius-invariance
    of w -> c*w can be exercised without rebuilding tables.
    """

    kind: str
    c: float = 1.0
    s: float = 1.0
    table: Optional[tuple] = None
    horizon: Optional[int] = None
    scale: float = 1.0
    _log_table: Optional[tuple] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown weight kind {self.kind!r}; expected one of {KINDS}")
        if self.scale <= 0 or not math.isfinite(self.scale):
            raise ConfigError("weight scale must be a positive finite real")
        if self.kind == "explicit":
            if not self.table:
                raise ConfigError("explicit weights need a non-empty table")
            tab = tuple(float(x) for x in self.table)
            for n, x in enumerate(tab):
                if not (x > 0) or not math.isfinite(x):
                    raise ConfigError(f"w_{n} = {x!r} violates w_n > 0")
            object.__setattr__(self, "table", tab)
            object.__setattr__(self, "horizon", len(tab) - 1)
            object.__setattr__(self, "_log_table", tuple(math.log(x) for x in tab))
        else:
            if self.table is not None:
                raise ConfigError(f"kind {self.kind!r} does not take a table")
            if self.kind == "constant" and (self.c <= 0 or not math.isfinite(self.c)):
                raise ConfigError("constant weight must be positive and finite")
            if self.kind == "power-factorial" and not math.isfinite(self.s):
                raise ConfigError("power-factorial exponent must be finite")

    # -- constructors ------------------------------------------------------

    @classmethod
    def factorial(cls) -> "WeightSequence":
        return cls("factorial")

    @classmethod
    def constant(cls, c: float = 1.0) -> "WeightSequence":
        return cls("constant", c=float(c))

    @classmethod
    def power_factorial(cls, s: float) -> "WeightSequence":
        return cls("power-factorial", s=float(s))

    @classmethod
    def explicit(cls, table: Sequence[float]) -> "WeightSequence":
        return cls("explicit", table=tuple(table))

    def scaled(self, c: float) -> "WeightSequence":
        """The sequence n -> c * w_n."""
        return WeightSequence(self.kind, c=self.c, s=self.s, table=self.table,
                              horizon=self.horizon, scale=self.scale * float(c))

    # -- evaluation --------------------------------------------------------

    def _check(self, n: int) -> None:
        if self.horizon is not None and n > self.horizon:
            raise WeightHorizonError(
                f"w_{n} requested but only indices <= {self.horizon} are materialized")

    def weight(self, n: int) -> float:
        """w_n as a float (may be inf for huge rule weights); w_n = 1 for n < 0."""
        if n < 0:
            return 1.0
        self._check(n)
        if self.kind == "factorial":
            base = float(math.factorial(n)) if n <= _MAX_EXACT_FACTORIAL else math.inf
        elif self.kind == "constant":
            base = self.c
        elif self.kind == "power-factorial":
            try:
                base = math.exp(self.s * math.lgamma(n + 1))
            except OverflowError:
                base = math.inf
        else:
            base = self.table[n]
        return base * self.scale

    def log_weight(self, n) -> float:
        """log w_n, overflow-free; log w_n = 0 for n < 0."""
        if n < 0:
            return 0.0
        self._check(n)
        ls = math.log(self.scale)
        if self.kind == "factorial":
            return math.lgamma(n + 1) + ls
        if self.kind == "constant":
            return math.log(self.c) + ls
        if self.kind == "power-factorial":
            return self.s * math.lgamma(n + 1) + ls
        return self._log_table[n] + ls

    def log_weights(self, n0: int, n1: int) -> np.ndarray:
        """Array of log w_n for n0 <= n < n1 (supports negative n0)."""
        if n1 <= n0:
            return np.empty(0)
        self._check(n1 - 1)
        n = np.arange(n0, n1)
        nn = np.maximum(n, 0)
        ls = math.log(self.scale)
        if self.kind == "factorial":
            out = np.array([math.lgamma(k + 1) for k in nn], dtype=float) + ls
        elif self.kind == "constant":
            out = np.full(n.shape, math.log(self.c) + ls)
        elif self.kind == "power-factorial":
            out = self.s * np.array([math.lgamma(k + 1) for k in nn], dtype=float) + ls
        else:
            out = np.array([self._log_table[k] for k in nn], dtype=float) + ls
        out[n < 0] = 0.0
        return out

    def mp_log_weight(self, n: int):
        """log w_n as an mpmath float under the caller's precision context."""
        import mpmath

        if n < 0:
            return mpmath.mpf(0)
        self._check(n)
        ls = mpmath.log(mpmath.mpf(self.scale))
        if self.kind == "factorial":
            return mpmath.loggamma(n + 1) + ls
        if self.kind == "constant":
            return mpmath.log(mpmath.mpf(self.c)) + ls
        if self.kind == "power-factorial":
            return mpmath.mpf(self.s) * mpmath.loggamma(n + 1) + ls
        return mpmath.log(mpmath.mpf(self.table[n])) + ls

    def ratio(self, n: int) -> float:
        """w_n / w_{n-1} (w_{-1} = 1), in closed form where the kind allows
        so huge indices do not go through lossy lgamma differences."""
        if n <= 0:
            return self.weight(n)
        self._check(n)
        if self.kind == "factorial":
            return float(n)
        if self.kind == "constant":
            return 1.0
        if self.kind == "power-factorial":
            return float(n) ** self.s
        return self.table[n] / self.table[n - 1]

    def sqrt_ratio(self, n: int) -> float:
        """(w_n / w_{n-1})**(1/2), the universal band entry."""
        return math.sqrt(self.ratio(n))

    def max_index(self, requested: int) -> int:
        """Clamp a horizon request to what is materializable."""
        return requested if self.horizon is None else min(requested, self.horizon)

    # -- serialization -----------------------------------------------------

    def describe(self) -> str:
        if self.kind == "constant":
            core = f"constant({self.c:g})"
        elif self.kind == "power-factorial":
            core = f"power-factorial({self.s:g})"
        elif self.kind == "explicit":
            core = f"explicit[{self.horizon + 1}]"
        else:
            core = "factorial"
        return core if self.scale == 1.0 else f"{self.scale:g}*{core}"

    def to_json(self) -> dict:
        params = {"scale": self.scale}
        if self.kind == "constant":
            params["c"] = self.c
        if self.kind == "power-factorial":
            params["s"] = self.s
        doc = {"kind": self.kind, "params": params}
        if self.kind == "explicit":
            doc["table"] = list(self.table)
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "WeightSequence":
        try:
            kind = doc["kind"]
        except (TypeError, KeyError):
            raise ConfigError("weight spec must be an object with a 'kind'")
        params = doc.get("params", {})
        ws = cls(kind,
                 c=float(params.get("c", 1.0)),
                 s=float(params.get("s", 1.0)),
                 table=tuple(doc["table"]) if kind == "explicit" else None)
        scale = float(params.get("scale", 1.0))
        return ws if scale == 1.0 else ws.scaled(scale)
