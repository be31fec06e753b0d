"""Exact arithmetic in the Manin plane.

Elements are finite complex combinations of normal-ordered monomials
theta^i thetabar^j subject to theta*thetabar = q*thetabar*theta.  Products
only ever multiply coefficients and shift integer powers of q, so each
coefficient is kept as a pair (value, q-exponent) and the numeric power of
q is applied as late as possible; large exponents therefore never saturate
a double during normal ordering.

The sesquilinear form <theta^i thetabar^j, theta^k thetabar^l>
= w_{i+l} delta_{i-j,k-l} (antilinear in the first slot) and the induced
projection P onto the holomorphic subalgebra live here too, as does the
one symbol grammar, read by ``parse_terms`` and written by ``format_terms``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Dict, Iterable, NamedTuple, Tuple

from .errors import ConfigError, InputTooLargeError
from .weights import QParam, WeightSequence, json_number

# exponents past this point are a configuration mistake, not a computation
_MAX_EXPONENT = 2**31


class ManinMonomial(NamedTuple):
    """Normal-ordered basis monomial theta^i thetabar^j."""

    i: int
    j: int

    def degree(self) -> int:
        return self.i - self.j


@dataclass(frozen=True)
class QCoeff:
    """A coefficient value * q**qexp with the q power kept symbolic."""

    value: complex
    qexp: int = 0

    def evaluate(self, q: QParam) -> complex:
        if self.qexp == 0:
            return self.value
        return self.value * complex(q.power(self.qexp))

    def scaled(self, z: complex) -> "QCoeff":
        return QCoeff(self.value * z, self.qexp)


def _merge(a: QCoeff, b: QCoeff, q: QParam) -> QCoeff:
    """Sum of two lazy coefficients on the same monomial.

    The common base exponent is chosen so the applied factor |q|**delta
    never exceeds 1, keeping the fold overflow-free.
    """
    if a.qexp == b.qexp:
        return QCoeff(a.value + b.value, a.qexp)
    base = max(a.qexp, b.qexp) if q.abs >= 1.0 else min(a.qexp, b.qexp)
    return QCoeff(a.value * complex(q.power(a.qexp - base))
                  + b.value * complex(q.power(b.qexp - base)), base)


class ManinElement:
    """A finite combination of normal-ordered monomials for a fixed q."""

    __slots__ = ("q", "terms")

    def __init__(self, q, terms: Dict[ManinMonomial, QCoeff] | None = None):
        self.q = QParam.of(q)
        pruned = {}
        for mon, coeff in (terms or {}).items():
            mon = ManinMonomial(int(mon[0]), int(mon[1]))
            if mon.i < 0 or mon.j < 0:
                raise ConfigError(f"monomial exponents must be non-negative, got {mon}")
            if not isinstance(coeff, QCoeff):
                coeff = QCoeff(complex(coeff))
            if coeff.value != 0:
                pruned[mon] = coeff
        # deterministic lexicographic (i, j) ordering for iteration/serialization
        self.terms = dict(sorted(pruned.items()))

    # -- constructors ------------------------------------------------------

    @classmethod
    def monomial(cls, q, i: int, j: int, coeff: complex = 1.0) -> "ManinElement":
        return cls(q, {ManinMonomial(i, j): QCoeff(complex(coeff))})

    @classmethod
    def one(cls, q) -> "ManinElement":
        return cls.monomial(q, 0, 0)

    @classmethod
    def theta(cls, q) -> "ManinElement":
        return cls.monomial(q, 1, 0)

    @classmethod
    def theta_bar(cls, q) -> "ManinElement":
        return cls.monomial(q, 0, 1)

    # -- inspection --------------------------------------------------------

    def coefficient(self, i: int, j: int) -> complex:
        """Numeric coefficient of theta^i thetabar^j (q power applied)."""
        c = self.terms.get(ManinMonomial(i, j))
        return 0j if c is None else c.evaluate(self.q)

    def __iter__(self) -> Iterable[Tuple[ManinMonomial, QCoeff]]:
        return iter(self.terms.items())

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ManinElement):
            return NotImplemented
        if self.q.value != other.q.value or self.terms.keys() != other.terms.keys():
            return False
        return all(self.coefficient(*m) == other.coefficient(*m) for m in self.terms)

    def __hash__(self):
        return hash((self.q.value, tuple(self.terms)))

    def __repr__(self):
        if not self.terms:
            return f"ManinElement(q={self.q.value}, 0)"
        bits = []
        for mon, c in self.terms.items():
            qtag = "" if c.qexp == 0 else f"*q^{c.qexp}"
            bits.append(f"({c.value}{qtag})*th^{mon.i}tb^{mon.j}")
        return f"ManinElement(q={self.q.value}, {' + '.join(bits)})"

    # -- arithmetic --------------------------------------------------------

    def _same_q(self, other: "ManinElement") -> None:
        if self.q.value != other.q.value:
            raise ConfigError("cannot combine elements over different q")

    def __add__(self, other: "ManinElement") -> "ManinElement":
        self._same_q(other)
        out = dict(self.terms)
        for mon, c in other.terms.items():
            out[mon] = _merge(out[mon], c, self.q) if mon in out else c
        return ManinElement(self.q, out)

    def __sub__(self, other: "ManinElement") -> "ManinElement":
        return self + other.scalar_mul(-1.0)

    def scalar_mul(self, z: complex) -> "ManinElement":
        return ManinElement(self.q, {m: c.scaled(z) for m, c in self.terms.items()})

    def __rmul__(self, z):
        if isinstance(z, (int, float, complex)):
            return self.scalar_mul(z)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self.scalar_mul(other)
        if isinstance(other, ManinElement):
            return normal_order_product(self, other)
        return NotImplemented


def normal_order_product(a: ManinElement, b: ManinElement) -> ManinElement:
    """The algebra product, returned in normal order.

    On monomials: theta^i tb^j * theta^k tb^l = q^{-jk} theta^{i+k} tb^{j+l},
    since each of the j*k adjacent swaps tb*theta -> q^{-1} theta*tb
    contributes one inverse power of q.  Extended bilinearly.
    """
    a._same_q(b)
    q = a.q
    out: Dict[ManinMonomial, QCoeff] = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            i, j = ma.i + mb.i, ma.j + mb.j
            if i > _MAX_EXPONENT or j > _MAX_EXPONENT:
                raise InputTooLargeError(f"monomial exponent overflow at ({i}, {j})")
            e = ca.qexp + cb.qexp - ma.j * mb.i
            if abs(e) > _MAX_EXPONENT:
                raise InputTooLargeError(f"q exponent overflow at {e}")
            term = QCoeff(ca.value * cb.value, e)
            mon = ManinMonomial(i, j)
            out[mon] = _merge(out[mon], term, q) if mon in out else term
    return ManinElement(q, out)


def sesquilinear_form(a: ManinElement, b: ManinElement, w: WeightSequence) -> complex:
    """<a, b> per the defining rule, antilinear in the first slot."""
    a._same_q(b)
    total = 0j
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            if ma.degree() != mb.degree():
                continue
            total += (ca.evaluate(a.q).conjugate()
                      * cb.evaluate(b.q)
                      * w.weight(ma.i + mb.j))
    return total


def project_P(a: ManinElement, w: WeightSequence) -> ManinElement:
    """Projection onto the holomorphic subalgebra.

    P(theta^i tb^j) = (w_i / w_{i-j}) theta^{i-j} for i >= j and 0 otherwise;
    at most one term of the defining sum survives, so this is exact.
    """
    out: Dict[ManinMonomial, QCoeff] = {}
    for mon, c in a.terms.items():
        k = mon.i - mon.j
        if k < 0:
            continue
        ratios = (w.ratio(m) for m in range(k + 1, mon.i + 1))    # w_i / w_k
        term = c.scaled(math.prod(ratios, start=1.0))
        tgt = ManinMonomial(k, 0)
        out[tgt] = _merge(out[tgt], term, a.q) if tgt in out else term
    return ManinElement(a.q, out)


def split_terms(text: str) -> list[str]:
    """Split on '+' at paren depth zero, so complex coefficients survive."""
    out, depth, cur = [], 0, []
    for ch in str(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth = max(0, depth - 1)
        if ch == "+" and depth == 0:
            out.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    out.append("".join(cur))
    return out


def parse_complex(text) -> complex:
    """A JSON number, an [re, im] pair of them, an "re,im" string or Python
    syntax.  A JSON bool, alone or in a pair, is a TypeError."""
    if isinstance(text, bool) or isinstance(text, (list, tuple)) and any(
            isinstance(x, bool) for x in text):
        raise TypeError(f"expected a complex number, got {text!r}")
    try:
        if isinstance(text, (int, float, complex)):
            return complex(text)
        if isinstance(text, (list, tuple)) and len(text) == 2:
            return complex(json_number(text[0]), json_number(text[1]))
        s = str(text).strip()
        if "," in s:
            re_, im_ = s.split(",", 1)
            return complex(float(re_), float(im_))
        return complex(s.replace(" ", ""))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"cannot parse complex number {text!r}") from exc


def parse_terms(text, x: str, y: str) -> list[tuple[complex, int, int]]:
    """(coeff, a, b) for each term `(coeff) x^a y^b` of a '+'-joined sum.

    A bare ``x`` or ``y`` means power one, and `(coeff)` or `1` alone is a
    constant term.  Both symbol grammars are this one: Manin symbols use
    th/tb, phase-space symbols L/Lc."""
    term = re.compile(
        r"^\s*(?:\(\s*(?P<coeff>[^)]+)\s*\)\s*\*?\s*)?"
        rf"(?:{x}\^(?P<a>\d+))?\s*(?:{y}\^(?P<b>\d+))?\s*(?P<unit>1)?\s*$")
    out = []
    for raw in split_terms(text):
        m = term.match(re.sub(rf"\b({x}|{y})\b(?!\^)", r"\1^1", raw.strip()))
        if not m or not any(m.groupdict().values()):
            raise ConfigError(f"cannot parse symbol term {raw!r}")
        coeff = parse_complex(m.group("coeff")) if m.group("coeff") else 1.0
        out.append((coeff, int(m.group("a") or 0), int(m.group("b") or 0)))
    return out


def format_terms(terms, x: str, y: str) -> str:
    """The '+'-joined terms `(coeff)*x^a y^b` of (coeff, a, b) triples, in
    the grammar ``parse_terms`` reads; a unit coefficient is left out and
    no terms at all is "0"."""
    bits = []
    for c, a, b in terms:
        core = " ".join(f"{v}^{p}" for v, p in ((x, a), (y, b)) if p) or "1"
        prefix = "" if c == 1 else f"({c:g})*" if c.imag == 0 else f"({c})*"
        bits.append(prefix + core)
    return " + ".join(bits) or "0"
