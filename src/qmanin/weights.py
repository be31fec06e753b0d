"""Weight sequences w_n and the deformation parameter q.

A weight sequence assigns a positive real w_n to every degree n >= 0 and
determines the whole theory: the sesquilinear form, the operator matrices,
the phase-space radius and the moment problem all read their numbers from
here.  The convention w_m = 1 for m < 0 is baked in.

Every rule is one family, w_n = c * (n!)**s; only explicit tables differ.
Weights can be astronomically large (factorial, |q|-power tables), so every
consumer that cares about overflow goes through ``log_weight`` /
``log_weights``, and every weight quotient is a product of ``ratio``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, InputTooLargeError, WeightHorizonError

KINDS = ("factorial", "constant", "power-factorial", "explicit")

# largest n with n! finite in float64
_MAX_EXACT_FACTORIAL = 170


@dataclass(frozen=True)
class QParam:
    """The non-zero complex parameter q of the commutation relation."""

    value: complex
    # computed once per q: every Toeplitz column calls ``power``
    log_abs: float = field(init=False, repr=False, compare=False)
    arg: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        v = complex(self.value)
        if v == 0:
            raise ConfigError("q must be a non-zero complex number")
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            raise ConfigError("q must be finite")
        object.__setattr__(self, "value", v)
        object.__setattr__(self, "log_abs", math.log(abs(v)))
        object.__setattr__(self, "arg", math.atan2(v.imag, v.real))

    @classmethod
    def of(cls, q) -> "QParam":
        return q if isinstance(q, QParam) else cls(complex(q))

    @property
    def abs(self) -> float:
        return abs(self.value)

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

    The rule kinds are one family w_n = c * (n!)**s, with (c, s) fixed by
    the kind: 'factorial' (1, 1), 'constant' (c, 0), 'power-factorial'
    (1, s).  'explicit' reads a finite table.  ``scale`` multiplies every
    weight; it exists so the radius-invariance of w -> c*w can be exercised
    without rebuilding tables.
    """

    kind: str
    c: float = 1.0
    s: float = 1.0
    table: Optional[tuple] = None
    horizon: Optional[int] = None
    scale: float = 1.0

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
            return
        if self.table is not None:
            raise ConfigError(f"kind {self.kind!r} does not take a table")
        c, s = {"factorial": (1.0, 1.0), "constant": (float(self.c), 0.0),
                "power-factorial": (1.0, float(self.s))}[self.kind]
        if not (0 < c < math.inf and math.isfinite(s)):
            raise ConfigError(f"{self.kind} weights need 0 < c < inf and a finite s, "
                              f"got c = {c!r}, s = {s!r}")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "s", s)

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
        if self.table is not None:
            base = self.table[n]
        elif self.s == 0.0:
            base = self.c
        else:
            try:
                base = self.c * (float(math.factorial(n)) ** self.s
                                 if n <= _MAX_EXACT_FACTORIAL
                                 else math.exp(self.s * math.lgamma(n + 1)))
            except OverflowError:
                base = math.inf
        return base * self.scale

    def log_weight(self, n) -> float:
        """log w_n, overflow-free; log w_n = 0 for n < 0."""
        if n < 0:
            return 0.0
        self._check(n)
        ls = math.log(self.scale)
        if self.table is not None:
            return math.log(self.table[n]) + ls
        lg = self.s * math.lgamma(n + 1) if self.s else 0.0
        return lg + math.log(self.c) + ls

    def log_weights(self, n0: int, n1: int) -> np.ndarray:
        """Array of log w_n for n0 <= n < n1 (supports negative n0)."""
        if n1 <= n0:
            return np.empty(0)
        self._check(n1 - 1)
        n = np.arange(n0, n1)
        nn = np.maximum(n, 0).tolist()     # Python ints for math.lgamma
        ls = math.log(self.scale)
        if self.table is not None:
            out = np.array([math.log(self.table[k]) for k in nn], dtype=float) + ls
        else:
            lg = (self.s * np.array([math.lgamma(k + 1) for k in nn], dtype=float)
                  if self.s else np.zeros(n.shape))
            out = lg + math.log(self.c) + ls
        out[n < 0] = 0.0
        return out

    def mp_log_weight(self, n: int):
        """log w_n as an mpmath float under the caller's precision context."""
        import mpmath

        if n < 0:
            return mpmath.mpf(0)
        self._check(n)
        ls = mpmath.log(mpmath.mpf(self.scale))
        if self.table is not None:
            return mpmath.log(mpmath.mpf(self.table[n])) + ls
        lg = mpmath.mpf(self.s) * mpmath.loggamma(n + 1) if self.s else 0
        return lg + mpmath.log(mpmath.mpf(self.c)) + ls

    def ratio(self, n: int) -> float:
        """w_n / w_{n-1} (w_{-1} = 1); n**s for the rule, so huge indices
        do not go through lossy lgamma differences.  A ratio too large for
        a double is inf."""
        if n <= 0:
            return self.weight(n)
        self._check(n)
        if self.table is not None:
            return self.table[n] / self.table[n - 1]
        try:
            return float(n) ** self.s
        except OverflowError:
            return math.inf

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
            kind, params = doc["kind"], doc.get("params", {})
            c, s = float(params.get("c", 1.0)), float(params.get("s", 1.0))
            scale = float(params.get("scale", 1.0))
            table = tuple(doc["table"]) if kind == "explicit" else None
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"weight spec must be an object with a 'kind' and "
                              f"valid 'params' and 'table': {exc!r}") from exc
        return cls(kind, c=c, s=s, table=table, scale=scale)
