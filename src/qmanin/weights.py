"""Weight sequences w_n and the deformation parameter q.

A weight sequence assigns a positive real w_n to every degree n >= 0 and
determines the whole theory: the sesquilinear form, the operator matrices,
the phase-space radius and the moment problem all read their numbers from
here.  The convention w_m = 1 for m < 0 is baked in.

What (w, q) gives is decided here alone: ``WeightSequence.radius`` is the
phase-space radius, ``WeightSequence.closed_form`` the closed-form space.

Every rule is one family, w_n = c * (n!)**s; only explicit tables differ,
and only a table has a ``horizon``, its last index.  Weights can be
astronomically large (factorial, |q|-power tables), so every consumer that
cares about overflow goes through ``log_weight`` / ``log_weights``, and
every weight quotient is a product of ``ratio``.

Each ``WeightSequence`` builds its table of log w_n once, per instance:
``log_weights`` computes entries on demand, up to the largest index asked
for, into a buffer that doubles and never passes the horizon or
``SERIES_CAP``; ``log_weight`` reads an entry the table already holds.
An entry is the per-index formula's value, bit for bit, wherever it is
taken.

``QParam.power`` takes q**e for an integer or an integer array e, and
``WeightSequence.sqrt_ratios`` gives the band entries (w_k / w_{k-1})^{1/2}
of a Toeplitz column range or a whole band at once, each as one numpy
expression that numpy rounds: exp(e log|q|) e^{i e arg q} for a q power,
k^{s/2} for a rule's entry and sqrt(w_k) / sqrt(w_{k-1}) for a table's, so
an entry leaves the double range only where the entry itself does.  A
scalar is an array of one; there is no per-entry form.
``annihilation_band`` multiplies the two into the band q^{-k}
(w_k / w_{k-1})^{1/2} of the annihilation operator and keeps it on the
instance for the last q asked for, up to the largest cutoff asked for (at
most ``SERIES_CAP`` entries, 3.2 MB): a cutoff past it or another q builds
the band anew at exactly that cutoff, so an entry and a refusal are those
of a fresh build.

``json_number`` and ``json_object`` decide, for every input the package
reads, what a JSON number is and which keys an object may hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import ConfigError, InputTooLargeError, WeightHorizonError


class _Kind(NamedTuple):
    fixed: Optional[dict]   # the (c, s) a rule kind fixes; None: explicit, a table
    param: Optional[str]    # the c or s its params set, beside scale
    bare: bool              # its shorthand may leave that argument out

    def params(self) -> tuple:
        return ("scale", self.param) if self.param else ("scale",)


# what each kind reads: every reader and writer of weights asks here
_KINDS = {"factorial": _Kind({"c": 1.0, "s": 1.0}, None, True),
          "constant": _Kind({"s": 0.0}, "c", True),
          "power-factorial": _Kind({"c": 1.0}, "s", False),
          "explicit": _Kind(None, None, False)}
KINDS = tuple(_KINDS)

# largest n with n! finite in float64
_MAX_EXACT_FACTORIAL = 170
# the most terms a series sums; no log-weight table grows past it
SERIES_CAP = 200_000


@dataclass(frozen=True)
class QParam:
    """The non-zero complex parameter q of the commutation relation."""

    value: complex
    # computed once per q: every q power reads them
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

    def power(self, e):
        """q**e for an integer or an integer array e, via logs so large |e|
        cannot silently wrap: exp(e log|q|) e^{i e arg q}, as numpy rounds
        it.  Refused at the first e whose e log|q| passes 700."""
        m = e * self.log_abs
        past = np.flatnonzero(m > 700.0)
        if past.size:
            raise InputTooLargeError(f"|q|**{int(np.ravel(e)[past[0]])} overflows a double")
        return np.exp(m) * np.exp(1j * (e * self.arg))


@dataclass(frozen=True)
class WeightSequence:
    """Rule-based or tabulated positive weights w_n.

    The rule kinds are one family w_n = c * (n!)**s, with (c, s) fixed by
    the kind: 'factorial' (1, 1), 'constant' (c, 0), 'power-factorial'
    (1, s).  'explicit' reads a finite table, whose last index is the
    ``horizon``; a rule has none (None).  ``scale`` multiplies every weight;
    it is a weights object's ``params.scale``.
    """

    kind: str
    c: float = 1.0
    s: float = 1.0
    table: Optional[tuple] = None
    horizon: Optional[int] = field(init=False, default=None)
    scale: float = 1.0
    # (buffer, size): log w_n for n < size, replaced as one tuple, so a
    # reader never sees an entry that is not computed
    _logs: tuple = field(init=False, repr=False, compare=False,
                         default=(np.empty(0), 0))
    # (key, band, first): the annihilation band of the q whose
    # (log|q|, arg q), all that QParam.power reads, is key, and the index
    # of its first entry past a double (band.size if none), replaced as
    # one tuple.  q itself is no key: -1 + 0i == -1 - 0i, yet their args
    # pi and -pi give conjugate bands
    _band: tuple = field(init=False, repr=False, compare=False,
                         default=(None, np.empty(0, dtype=complex), 0))

    def __post_init__(self):
        fixed = _kind(self.kind).fixed
        if self.scale <= 0 or not math.isfinite(self.scale):
            raise ConfigError("weight scale must be a positive finite real")
        if fixed is None:
            if not self.table:
                raise ConfigError("an explicit weight spec needs a non-empty 'table'")
            tab = tuple(float(x) for x in self.table)
            for n, x in enumerate(tab):
                if not (x > 0) or not math.isfinite(x):
                    raise ConfigError(f"w_{n} = {x!r} violates w_n > 0")
            object.__setattr__(self, "table", tab)
            object.__setattr__(self, "horizon", len(tab) - 1)
            return
        if self.table is not None:
            raise ConfigError(f"kind {self.kind!r} does not take a table")
        c, s = float(fixed.get("c", self.c)), float(fixed.get("s", self.s))
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
        """log w_n, a double also where w_n is not; log w_n = 0 for n < 0.
        A log weight past the double range is an InputTooLargeError."""
        if n < 0:
            return 0.0
        self._check(n)
        logs, size = self._logs
        out = float(logs[n]) if n < size else self._log_entry(n)
        if not math.isfinite(out):
            raise self._refused(n)
        return out

    def log_weights(self, n0: int, n1: int) -> np.ndarray:
        """Array of log w_n for n0 <= n < n1 (supports negative n0), refused
        as ``log_weight`` refuses.  Each entry is computed once, into the
        table; past ``SERIES_CAP`` nothing is kept."""
        if n1 <= n0:
            return np.empty(0)
        self._check(n1 - 1)
        lo = max(n0, 0)
        if n1 > SERIES_CAP:
            out = self._log_fill(lo, n1)
        else:
            buf, size = self._logs
            if n1 > size:
                if n1 > buf.size:
                    limit = SERIES_CAP if self.horizon is None else self.horizon + 1
                    grown = min(max(n1, 2 * buf.size), limit)
                    buf = np.concatenate((buf[:size], np.empty(grown - size)))
                buf[size:n1] = self._log_fill(size, n1)
                object.__setattr__(self, "_logs", (buf, n1))
            out = buf[lo:max(n1, 0)].copy()
        if n0 < 0:
            out = np.concatenate((np.zeros(min(n1, 0) - n0), out))
        return out

    def _log_entry(self, n: int) -> float:
        if self.table is not None:
            return math.log(self.table[n]) + math.log(self.scale)
        lg = self.s * math.lgamma(n + 1) if self.s else 0.0
        return lg + math.log(self.c) + math.log(self.scale)

    def _log_fill(self, n0: int, n1: int) -> np.ndarray:
        """``_log_entry`` at 0 <= n0 <= n < n1, with the same IEEE operations
        taken elementwise; refused as ``log_weight`` refuses."""
        ls = math.log(self.scale)
        if self.table is not None:
            return np.array([math.log(x) for x in self.table[n0:n1]], dtype=float) + ls
        # log w_n is monotone in n: the last one decides the whole fill
        if self.s and not math.isfinite(self._log_entry(n1 - 1)):
            raise self._refused(n1 - 1)
        lg = (self.s * np.array([math.lgamma(n + 1) for n in range(n0, n1)], dtype=float)
              if self.s else np.zeros(n1 - n0))
        return lg + math.log(self.c) + ls

    def _refused(self, n: int) -> InputTooLargeError:
        """The refusal naming the first k <= n whose log w_k, as log w_n, is
        past the double range; log w_k is monotone in k, so bisection finds it."""
        lo = 0          # log w_lo is finite, log w_n is not
        while n - lo > 1:
            mid = (lo + n) // 2
            lo, n = (mid, n) if math.isfinite(self._log_entry(mid)) else (lo, mid)
        return InputTooLargeError(
            f"log w_{n} of {self.describe()} weights is past the double range")

    def mp_log_weights(self, count: int) -> list:
        """[log w_0, ..., log w_{count-1}] as mpmath floats under the caller's
        precision context, with log c and log scale taken once."""
        import mpmath

        if count <= 0:
            return []
        self._check(count - 1)
        ls = mpmath.log(mpmath.mpf(self.scale))
        if self.table is not None:
            return [mpmath.log(mpmath.mpf(self.table[n])) + ls for n in range(count)]
        log_c = mpmath.log(mpmath.mpf(self.c))
        if not self.s:
            return [log_c + ls] * count
        s = mpmath.mpf(self.s)
        return [s * mpmath.loggamma(n + 1) + log_c + ls for n in range(count)]

    def ratio(self, n: int) -> float:
        """w_n / w_{n-1} (w_{-1} = 1); n**s for the rule, so huge indices
        do not go through lossy lgamma differences.  A ratio too large for
        a double is inf."""
        if n <= 0:
            return self.weight(n)
        self._check(n)
        if self.table is not None:
            return self.table[n] / self.table[n - 1]
        return _pow(float(n), self.s)

    def sqrt_ratios(self, n: int) -> np.ndarray:
        """The band entries (w_k / w_{k-1})**(1/2) for 1 <= k <= n, as one
        array: k**(s/2) for a rule, sqrt(w_k) / sqrt(w_{k-1}) for a table.
        An entry past a double is inf, one below its range 0 or subnormal."""
        if n <= 0:
            return np.empty(0)
        if n > self.max_index(n):
            self._check(self.horizon + 1)     # the first k past the table
        with np.errstate(over="ignore"):
            if self.table is None:
                return np.arange(1.0, n + 1) ** (0.5 * self.s)
            roots = np.sqrt(self.table[:n + 1])
            return roots[1:] / roots[:-1]

    def annihilation_band(self, q: QParam, n: int) -> np.ndarray:
        """The band entries q^{-k} (w_k / w_{k-1})^{1/2} of the annihilation
        operator for 1 <= k <= n, as a read-only array: the product of
        ``q.power`` and ``sqrt_ratios``, refused as they refuse, and an
        entry past a double is an InputTooLargeError naming its column.
        The band of the last q is kept: a request up to its length is a
        slice of it, any other is built at exactly n and kept in its place
        (up to ``SERIES_CAP`` entries)."""
        key, band, first = self._band
        if key != (q.log_abs, q.arg) or n > band.size:
            with np.errstate(over="ignore", invalid="ignore"):
                band = q.power(-np.arange(1, n + 1)) * self.sqrt_ratios(n)
            band.flags.writeable = False
            past = np.flatnonzero(~np.isfinite(band))
            first = int(past[0]) if past.size else band.size
            if n <= SERIES_CAP:
                object.__setattr__(self, "_band", ((q.log_abs, q.arg), band, first))
        if first < n:
            raise InputTooLargeError(f"the annihilation band entry of column {first + 1} "
                                     f"is past the double range")
        return band[:max(n, 0)]

    def max_index(self, requested: int) -> int:
        """Clamp a horizon request to what is materializable."""
        return requested if self.horizon is None else min(requested, self.horizon)

    # -- the phase space ---------------------------------------------------

    def radius(self, q: QParam) -> Optional[float]:
        """R of the rule w_n = c (n!)^s, from R^2 = liminf |q|^{-(n+1)} w_n^{1/n}:
        w_n^{1/n} grows like (n/e)^s, so |q|^{-(n+1)} decides it unless |q| is
        exactly 1.0, where the sign of s does.  None for a table."""
        if self.table is not None:
            return None
        if q.abs != 1.0:
            return math.inf if q.abs < 1.0 else 0.0
        return math.inf if self.s > 0 else 1.0 if self.s == 0 else 0.0

    def closed_form(self, q: QParam) -> Optional[str]:
        """At |q| exactly 1.0: "bargmann" for w_n = c n! (s = 1), Bargmann's
        space, "hardy" for w_n = c (s = 0), the Hardy space of the unit disk;
        else None: at any other |q| the q powers |q|^{n(n+1)} remain."""
        if self.table is not None or q.abs != 1.0:
            return None
        return "bargmann" if self.s == 1.0 else "hardy" if self.s == 0.0 else None

    # -- serialization -----------------------------------------------------

    def describe(self) -> str:
        arg = _KINDS[self.kind].param
        core = (f"{self.kind}[{len(self.table)}]" if self.table is not None
                else f"{self.kind}({getattr(self, arg):g})" if arg else self.kind)
        return core if self.scale == 1.0 else f"{self.scale:g}*{core}"

    def to_json(self) -> dict:
        doc = {"kind": self.kind,
               "params": {k: getattr(self, k) for k in _KINDS[self.kind].params()}}
        if self.table is not None:
            doc["table"] = list(self.table)
        return doc

    @classmethod
    def from_json(cls, spec) -> "WeightSequence":
        """The weights a config names: a shorthand (``factorial``,
        ``constant[:C]``, ``power-factorial:S``, ``explicit:w0,w1,...``) or
        the object ``to_json`` writes.  An object holds ``kind``, ``params``
        with ``scale`` and its kind's own ``c`` or ``s``, and a ``table`` for
        explicit weights; any other key, and a value that is not a JSON
        number, is refused by name."""
        if isinstance(spec, str):
            spec = _shorthand(spec)
        if not isinstance(spec, dict) or "kind" not in spec:
            raise ConfigError(f"weight spec must be a shorthand or an object with a "
                              f"'kind', got {spec!r}")
        kind, params = spec["kind"], spec.get("params", {})
        reads = _kind(kind)
        if not isinstance(params, dict):
            raise ConfigError(f"weight spec params must be an object, got {params!r}")
        keys = ("kind", "params") if reads.fixed else ("kind", "params", "table")
        json_object(spec, keys, "weight spec")
        json_object(params, reads.params(), "weight spec")
        try:
            numbers = {k: json_number(v) for k, v in params.items()}
            table = tuple(map(json_number, spec["table"])) if "table" in spec else None
        except (TypeError, OverflowError) as exc:
            raise ConfigError(f"weight spec values must be numbers: {exc}") from exc
        return cls(kind, table=table, **numbers)


def _pow(x: float, s: float) -> float:
    """x ** s as Python takes it, inf where that overflows a double."""
    try:
        return x ** s
    except OverflowError:
        return math.inf


def _kind(name) -> _Kind:
    if name not in KINDS:
        raise ConfigError(f"unknown weight kind {name!r}; expected one of {KINDS}")
    return _KINDS[name]


def json_number(value, integral: bool = False):
    """A JSON number as a float, or with ``integral`` as the exact int it
    equals, where float() and int() would also read true as 1 and "2" as 2.
    A value that is not a number is a TypeError, a non-integral one for
    ``integral`` a ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    if not integral:
        return float(value)
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def json_object(doc, keys, what: str) -> dict:
    """``doc``, a JSON object that holds only the keys ``keys``; any other
    key is refused by name."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} must be a JSON object, got {type(doc).__name__}")
    unknown = sorted(set(doc) - set(keys))
    if unknown:
        raise ConfigError(f"no {what} key {', '.join(map(repr, unknown))}; "
                          f"expected {', '.join(keys)}")
    return doc


def _shorthand(text: str) -> dict:
    """The weights object a ``kind:arg`` shorthand stands for."""
    kind, colon, arg = (part.strip() for part in text.partition(":"))
    k = _KINDS.get(kind)
    try:
        if k and not colon and k.bare:
            return {"kind": kind}
        if k and colon and k.param:
            return {"kind": kind, "params": {k.param: float(arg)}}
        if k and colon and k.fixed is None:
            return {"kind": kind, "table": [float(x) for x in arg.split(",")]}
    except ValueError as exc:
        raise ConfigError(f"weight spec {text!r} needs numbers: {exc}") from exc
    raise ConfigError(f"unknown weight spec {text!r}")
