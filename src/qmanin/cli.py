"""Command-line front end.

One JSON config document (file or stdin) drives every subcommand, with
``--q/--weights/--cutoff/--tol`` overrides; artifacts are deterministic
JSON/CSV files under ``--out`` that embed the config that ran.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 out-of-phase-space input, 4 solver conditioning failure.

Each subcommand imports the modules it runs in its handler, so a cold
``operator`` or ``kernel`` never loads mpmath, the Gauss solver
(``measure``) or the acceptance suite.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import jsonio
from .algebra import ManinElement, parse_complex, parse_terms
from .errors import ConfigError, InputTooLargeError, QmaninError
from .weights import QParam, WeightSequence, json_number, json_object

# Size caps, checked before anything is allocated; MAX_CUTOFF also caps the window.
MAX_CUTOFF = 1024
MAX_BASIS = 256
MAX_GRID_POINTS = 100_000   # nr * ntheta


def _json_bool(value) -> bool:
    """JSON true or false only: bool("false") would read as true."""
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false, got {value!r}")
    return value


def parse_manin_symbol(text: str, q) -> ManinElement:
    """Symbol grammar: terms `(coeff) th^i tb^j` joined by '+'.

    Bare `th`/`tb` mean power one, e.g. "th^2 tb^1 + (0.5) 1"."""
    out = ManinElement(q, {})
    for coeff, i, j in parse_terms(text, "th", "tb"):
        out = out + ManinElement.monomial(q, i, j, coeff)
    return out


def _count(name: str, value, low: int = 0, cap: float = math.inf) -> int:
    """An integer key from ``low`` up to ``cap``: a JSON integer or an
    integral JSON number, kept exact."""
    try:
        n = json_number(value, integral=True)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} must be an integer, got {value!r}") from exc
    if n > cap:
        raise ConfigError(f"{name} {n} exceeds the cap {cap}")
    if n < low:
        raise ConfigError(f"{name} must be at least {low}, got {n}")
    return n


def _tol(value) -> float:
    tol = json_number(value)
    if not 0 < tol < math.inf:
        raise ConfigError(f"tolerance must be a positive finite number, got {tol!r}")
    return tol


def _grid(value) -> dict:
    """nr radii from rmin (default rmax / nr) to rmax, times ntheta angles."""
    json_object(value, ("rmax", "rmin", "nr", "ntheta"), "grid")
    try:
        rmax = json_number(value.get("rmax", 1.5))
        nr = _count("grid nr", value.get("nr", 10), low=1)
        ntheta = _count("grid ntheta", value.get("ntheta", 8), low=1)
        if not 0 < rmax < math.inf:
            raise ConfigError(f"grid rmax must be positive and finite, got {rmax!r}")
        _count("grid size nr * ntheta", nr * ntheta, cap=MAX_GRID_POINTS)
        rmin = json_number(value.get("rmin", rmax / nr))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"grid values must be numbers: {exc}") from exc
    if not math.isfinite(rmin):
        raise ConfigError("grid rmin must be finite")
    return {"rmax": rmax, "rmin": rmin, "nr": nr, "ntheta": ntheta}


def _symbol(text, x: str, y: str) -> str:
    """A symbol key: a JSON string in the grammar ``parse_terms`` reads."""
    if not isinstance(text, str):
        raise TypeError(f"expected a string, got {text!r}")
    parse_terms(text, x, y)
    return text


# each operator name -> the function of qmanin.operators that builds it,
# looked up when the handler runs; "number" takes the window alone
_OPERATORS = {"adjoint": "adjoint_annihilation_matrix",
              "annihilation": "annihilation_matrix",
              "creation": "creation_matrix",
              "number": "number_matrix"}


def _operator(name) -> str:
    if name not in _OPERATORS:
        raise ConfigError(f"unknown operator {name!r}; expected {', '.join(_OPERATORS)}")
    return name


def _nilpotency_order(value) -> int:
    from .paragrassmann import MAX_PG_ORDER
    return _count("nilpotency order", value, low=2, cap=MAX_PG_ORDER)


# Every config key: its parser and its default, which may be a function of
# the config that derives it from keys above it.  A parser refuses a value
# that cannot run, with a ConfigError or a TypeError/ValueError/OverflowError.
_KEYS = {
    "weights": (WeightSequence.from_json, "factorial"),
    "q": (lambda v: QParam.of(parse_complex(v)).value, 1.0),
    "cutoff": (lambda v: _count("cutoff", v, cap=MAX_CUTOFF), 16),
    "tol": (_tol, 1e-12),
    "order": (lambda v: _count("order", v, low=1), 12),
    "grid": (_grid, {}),
    "symbol": (lambda v: _symbol(v, "th", "tb"), "tb^1"),
    "lambda": (parse_complex, 1.0),
    # no mu: the diagonal, the squared norms K(lambda, lambda)
    "mu": (lambda v: v if v is None else parse_complex(v), None),
    "basis": (lambda v: _count("basis", v, cap=MAX_BASIS), 10),
    "window": (lambda v: _count("window", v, cap=MAX_CUTOFF),
               lambda cfg: max(96, cfg["cutoff"])),
    "phase_symbol": (lambda v: _symbol(v, "L", "Lc"), "L^1"),
    "operator": (_operator, "annihilation"),
    "normalized": (_json_bool, True),
    "l": (_nilpotency_order, 3),
    # no pg_weights: w_0..w_{l-1} of the run's weights; each positive and
    # finite, as in an explicit table
    "pg_weights": (lambda v: WeightSequence.explicit(map(json_number, v)).table,
                   lambda cfg: [cfg["weights"].weight(n) for n in range(cfg["l"])]),
}


class RunConfig(dict):
    """The config of one run, as a dict of the values that ran: ``cfg[key]``
    parses a key on its first read, from the document or else its default,
    and records the value.  Every artifact embeds it."""

    def __init__(self, doc: dict | None = None, flags: dict | None = None):
        super().__init__()
        # the flags --weights, --q, --cutoff and --tol override the document
        doc = json_object({} if doc is None else doc, _KEYS, "config")
        self.doc = {**doc, **(flags or {})}
        for key in self.doc:        # a given key is checked whatever runs
            self._parse(key)

    @classmethod
    def load(cls, args) -> "RunConfig":
        doc = {}
        config = getattr(args, "config", None)
        if config:
            try:    # text that is not UTF-8 or nests past the parser's recursion
                raw = (sys.stdin.read() if config == "-"
                       else Path(config).read_text(encoding="utf-8"))
                doc = json.loads(raw)
            except (ValueError, RecursionError) as exc:
                raise ConfigError(f"config is not valid JSON: {exc}") from exc
        return cls(doc, {k: v for k, v in vars(args).items() if k in _KEYS})

    def _parse(self, key: str):
        parse, default = _KEYS[key]
        value = self.doc.get(key, default)
        if callable(value):     # a derived default
            value = value(self)
        try:
            return parse(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"invalid config value for {key!r}: {value!r}") from exc
        except ConfigError as exc:
            if key not in self.doc:     # a derived default keeps its message
                raise
            raise ConfigError(f"invalid config value for {key!r}: {exc}") from exc

    def __missing__(self, key: str):
        self[key] = value = self._parse(key)
        return value


def _grid_points(grid: dict) -> np.ndarray:
    radii = np.linspace(grid["rmin"], grid["rmax"], grid["nr"])
    angles = 2.0 * math.pi * np.arange(grid["ntheta"]) / grid["ntheta"]
    return (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()


def _write(outdir: Path, name: str, payload) -> Path:
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / name
    if isinstance(payload, str):
        path.write_text(payload)
    else:
        jsonio.write(path, payload)
    print(f"wrote {path}", file=sys.stderr)
    return path


def _write_result(outdir: Path, name: str, cfg: RunConfig, result) -> Path:
    """The artifact ``name``: ``result`` with the config that ran embedded."""
    return _write(outdir, name, {"config": cfg, "result": result})


# ---------------------------------------------------------------------------
# subcommands; each imports what it runs, reading the module attributes at
# call time
# ---------------------------------------------------------------------------

def _cmd_radius(cfg: RunConfig, outdir: Path) -> int:
    from .coherent import radius_of_convergence

    est = radius_of_convergence(cfg["weights"], cfg["q"])
    _write_result(outdir, "radius.json", cfg, est)
    return 0


def _cmd_operator(cfg: RunConfig, outdir: Path) -> int:
    from .operators import toeplitz_matrix

    g = parse_manin_symbol(cfg["symbol"], cfg["q"])
    op = toeplitz_matrix(g, cfg["weights"], cfg["q"], cfg["cutoff"])
    _write_result(outdir, "operator.json", cfg, op)
    _write(outdir, "operator.csv", op.to_csv())
    return 0


def _cmd_coherent(cfg: RunConfig, outdir: Path) -> int:
    from .coherent import coherent_coefficients, eigen_residual

    lam, w, q = cfg["lambda"], cfg["weights"], cfg["q"]
    state = coherent_coefficients(lam, w, q, tol=cfg["tol"], finite_norm=True)
    window = max(cfg["cutoff"], state.n_cutoff)
    res = eigen_residual(state, w, q)
    _write_result(outdir, "coherent.json", cfg, {"state": state,
                                                 "residual": res.residual,
                                                 "leakage": res.leakage,
                                                 "window": window})
    return 0


def _cmd_kernel(cfg: RunConfig, outdir: Path) -> int:
    from .coherent import coherent_norm_sq, kernel
    from .symbols import SymbolValueGrid

    pts = _grid_points(cfg["grid"])
    w, q, tol, mu = cfg["weights"], cfg["q"], cfg["tol"], cfg["mu"]
    if mu is None:
        vals = coherent_norm_sq(pts, w, q, tol=tol) + 0j
    else:
        vals = kernel(mu, pts, w, q, tol=tol)
    big = np.flatnonzero(~np.isfinite(vals))
    if big.size:
        raise InputTooLargeError(f"the {'norm' if mu is None else 'kernel'} at "
                                 f"lambda = {complex(pts[big[0]])} overflows a double")
    _write(outdir, "kernel.csv", SymbolValueGrid(pts, vals).to_csv())
    _write_result(outdir, "kernel.json", cfg, {"points": len(pts), "csv": "kernel.csv"})
    return 0


def _moment_rule(cfg: RunConfig):
    """The moment-solved rule at the configured order.  The solver caps the
    order at MAX_ORDER, so only the moments a capped rule matches are built,
    and the order recorded is the order solved."""
    from .measure import MAX_ORDER, MomentSequence, gauss_quadrature_from_moments

    jmax = 2 * min(cfg["order"], MAX_ORDER) - 1
    moments = MomentSequence.from_weights(cfg["weights"], cfg["q"], jmax)
    quad = gauss_quadrature_from_moments(moments, cfg["order"])
    cfg["order"] = quad.order
    return quad


def _cmd_measure(cfg: RunConfig, outdir: Path) -> int:
    from .measure import (closed_form_density, norm_divergence_witness, verify_moments,
                          verify_resolution_identity)

    basis = cfg["basis"]
    quad = _moment_rule(cfg)
    w, q, tol = cfg["weights"], cfg["q"], cfg["tol"]
    nmax = min(2 * quad.order - 1, 20)
    mom_rep = verify_moments(quad, w, q, nmax, tol=tol)
    gram_rep = verify_resolution_identity(quad, w, q, basis, 2 * basis + 1, tol=tol)
    witness = norm_divergence_witness(quad, w, q, nmax)
    density = closed_form_density(w, q)
    _write_result(outdir, "measure.json", cfg, {
        "quadrature": quad,
        "closed_form": None if density is None else density.description,
        "moment_check": mom_rep,
        "gram_check": gram_rep,
        "divergence_witness": witness,
    })
    return 0


def _cmd_symbols(cfg: RunConfig, outdir: Path) -> int:
    from . import operators
    from .symbols import PolynomialSymbol, lower_symbol_grid, quantize_cs, secondary_toeplitz

    w, q, cutoff = cfg["weights"], cfg["q"], cfg["cutoff"]
    window = cfg["window"] = w.max_index(cfg["window"])
    f = PolynomialSymbol.parse(cfg["phase_symbol"])
    quad = _moment_rule(cfg)
    qcs = quantize_cs(f, quad, w, q, cutoff)
    sec = secondary_toeplitz(f, quad, w, q, cutoff)

    name = cfg["operator"]
    build = getattr(operators, _OPERATORS[name])
    op = build(window) if name == "number" else build(w, q, window)
    pts = _grid_points(cfg["grid"])
    grid = lower_symbol_grid(op, pts, w, q, normalized=cfg["normalized"])

    for name, mat in (("quantize_cs", qcs), ("secondary", sec)):
        _write_result(outdir, f"{name}.json", cfg, mat)
        _write(outdir, f"{name}.csv", mat.to_csv())
    _write(outdir, "lower_symbol.csv", grid.to_csv())
    return 0


def _cmd_paragrassmann(cfg: RunConfig, outdir: Path) -> int:
    from .paragrassmann import ParagrassmannConfig, pg_annihilation, pg_structure_report

    l, weights = cfg["l"], cfg["pg_weights"]
    pg = ParagrassmannConfig(l, weights, q=cfg["q"])
    op = pg_annihilation(pg)
    rep = pg_structure_report(pg)
    _write_result(outdir, "paragrassmann.json", cfg, {
        "l": l, "weights": weights, "matrix": op, "report": rep})
    return 0


def _cmd_verify(cfg: RunConfig, outdir: Path) -> int:
    from . import acceptance

    # the PASS/FAIL lines to stdout; each criterion's wall time to stderr only
    results = []
    for num, _, _ in acceptance.CRITERIA:
        start = time.perf_counter()
        r = acceptance.run_criterion(num)
        elapsed = time.perf_counter() - start
        print(r.line())
        print(f"criterion {num:02d} took {1e3 * elapsed:.1f} ms", file=sys.stderr)
        results.append(r)
    _write_result(outdir, "verify.json", cfg, results)
    return 0 if all(r.passed for r in results) else 1


# each subcommand -> its handler and its help line
_SUBCOMMANDS = {
    "radius": (_cmd_radius, "phase-space radius: exact for a rule, estimated for a table"),
    "operator": (_cmd_operator, "Toeplitz matrix of a Manin symbol (config key 'symbol')"),
    "coherent": (_cmd_coherent, "coherent state vector and eigen residual (key 'lambda')"),
    "kernel": (_cmd_kernel, "kernel / squared-norm grid as CSV (optional key 'mu')"),
    "measure": (_cmd_measure, "moment-solved quadrature plus certifications"),
    "symbols": (_cmd_symbols, "quantization, secondary Toeplitz and lower-symbol grids"),
    "paragrassmann": (_cmd_paragrassmann,
                      "nilpotent degenerate case structure report (key 'l')"),
    "verify": (_cmd_verify, "run the full acceptance suite"),
}


def build_parser() -> argparse.ArgumentParser:
    # shared flags accepted before or after the subcommand; SUPPRESS keeps a
    # subparser from clobbering a value parsed by the main parser
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS,
                        help="JSON config file, or '-' for stdin")
    common.add_argument("--q", default=argparse.SUPPRESS,
                        help="override q, e.g. '0.5+0.5j' or 're,im'")
    common.add_argument("--weights", default=argparse.SUPPRESS,
                        help="override weights: factorial | constant:C | "
                             "power-factorial:S | explicit:w0,w1,...")
    common.add_argument("--cutoff", type=int, default=argparse.SUPPRESS,
                        help="override the matrix cutoff N")
    common.add_argument("--tol", type=float, default=argparse.SUPPRESS,
                        help="override the tolerance")
    common.add_argument("--out", default=argparse.SUPPRESS,
                        help="artifact output directory (default '.')")

    parser = argparse.ArgumentParser(
        prog="qmanin",
        description="Toeplitz quantization of the Manin plane: operators, "
                    "coherent states, measures and symbol calculus.",
        parents=[common])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _SUBCOMMANDS.items():
        sub.add_parser(name, help=help_text, parents=[common])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig.load(args)
        handler, _ = _SUBCOMMANDS[args.command]
        return handler(cfg, Path(getattr(args, "out", ".") or "."))
    except QmaninError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 2)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
