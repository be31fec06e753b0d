"""Command-line front end.

One JSON config document (file or stdin) drives every subcommand, with
``--q/--weights/--cutoff/--tol`` overrides; artifacts are deterministic
JSON/CSV files under ``--out`` that embed the fully resolved config.

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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import jsonio
from .algebra import ManinElement, parse_complex, parse_terms
from .errors import ConfigError, InputTooLargeError, QmaninError
from .weights import QParam, WeightSequence

# Size caps, checked before anything is allocated; MAX_CUTOFF also caps the window.
MAX_CUTOFF = 1024
MAX_BASIS = 256
MAX_GRID_POINTS = 100_000   # nr * ntheta

# keys beyond RunConfig's own that some subcommand reads; any other is refused
_EXTRA_KEYS = frozenset({"horizon", "cap", "symbol", "lambda", "mu", "basis", "window",
                         "phase_symbol", "operator", "normalized", "l", "pg_weights"})


def _capped(name: str, value: int, cap: int) -> int:
    if value > cap:
        raise ConfigError(f"{name} {value} exceeds the cap {cap}")
    return value


def _json_bool(value) -> bool:
    """JSON true or false only: bool("false") would read as true."""
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false, got {value!r}")
    return value


def _parse_weights(spec) -> WeightSequence:
    if isinstance(spec, WeightSequence):
        return spec
    if isinstance(spec, dict):
        return WeightSequence.from_json(spec)
    s = str(spec).strip()
    if ":" in s:
        kind, arg = s.split(":", 1)
        kind = kind.strip()
        if kind == "constant":
            return WeightSequence.constant(float(arg))
        if kind == "power-factorial":
            return WeightSequence.power_factorial(float(arg))
        if kind == "explicit":
            return WeightSequence.explicit([float(x) for x in arg.split(",")])
        raise ConfigError(f"unknown weight shorthand {s!r}")
    if s == "factorial":
        return WeightSequence.factorial()
    if s == "constant":
        return WeightSequence.constant()
    raise ConfigError(f"unknown weight spec {s!r}")


def parse_manin_symbol(text: str, q) -> ManinElement:
    """Symbol grammar: terms `(coeff) th^i tb^j` joined by '+'.

    Bare `th`/`tb` mean power one, e.g. "th^2 tb^1 + (0.5) 1"."""
    out = ManinElement(q, {})
    for coeff, i, j in parse_terms(text, "th", "tb"):
        out = out + ManinElement.monomial(q, i, j, coeff)
    return out


@dataclass
class RunConfig:
    """Resolved run configuration; every artifact embeds ``resolved()``:
    the shared keys and the extra keys the subcommand read, each with the
    value it ran with."""

    weights: WeightSequence = field(default_factory=WeightSequence.factorial)
    q: complex = 1.0 + 0j
    cutoff: int = 16
    tol: float = 1e-12
    order: int = 12
    grid: dict = field(default_factory=lambda: {"rmax": 1.5, "nr": 10, "ntheta": 8})
    extra: dict = field(default_factory=dict)
    used: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0 < self.tol < math.inf:
            raise ConfigError(f"tolerance must be a positive finite number, "
                              f"got {self.tol!r}")
        if self.cutoff < 0 or self.order < 1:
            raise ConfigError("cutoff and order must be positive")
        _capped("cutoff", self.cutoff, MAX_CUTOFF)
        QParam.of(self.q)

    @classmethod
    def load(cls, args) -> "RunConfig":
        doc = {}
        config = getattr(args, "config", None)
        if config:
            raw = sys.stdin.read() if config == "-" else Path(config).read_text()
            try:
                doc = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config is not valid JSON: {exc}") from exc
            if not isinstance(doc, dict):
                raise ConfigError("config document must be a JSON object")
        for key in ("weights", "q", "cutoff", "tol"):    # the flag overrides
            if getattr(args, key, None) is not None:
                doc[key] = getattr(args, key)
        # the shared keys, each through its parser; an absent one takes the
        # field's default
        shared = {"weights": _parse_weights, "q": parse_complex, "cutoff": int,
                  "tol": float, "order": int, "grid": dict}
        unknown = sorted(set(doc) - set(shared) - _EXTRA_KEYS)
        if unknown:
            raise ConfigError(f"no subcommand reads the config key "
                              f"{', '.join(map(repr, unknown))}")
        try:
            return cls(**{k: shared[k](v) for k, v in doc.items() if k in shared},
                       extra={k: v for k, v in doc.items() if k not in shared})
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"invalid config value: {exc}") from exc

    def extra_value(self, key: str, default, convert):
        """The extra key ``key`` (or ``default``) through ``convert``, which
        may derive the value that runs from it; a value that does not
        convert is a ConfigError.  The value is recorded for ``resolved()``."""
        value = self.extra.get(key, default)
        try:
            self.used[key] = convert(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"invalid value for {key!r}: {value!r}") from exc
        return self.used[key]

    def resolved(self) -> dict:
        return {
            "weights": self.weights.to_json(),
            "q": [self.q.real, self.q.imag],
            "cutoff": self.cutoff,
            "tol": self.tol,
            "order": self.order,
            "grid": self.grid,
            **self.used,
        }


def _grid_points(grid: dict) -> np.ndarray:
    try:
        rmax = float(grid.get("rmax", 1.5))
        nr = int(grid.get("nr", 10))
        ntheta = int(grid.get("ntheta", 8))
        if nr < 1 or ntheta < 1 or not 0 < rmax < math.inf:
            raise ConfigError("grid needs nr, ntheta >= 1 and 0 < rmax < inf")
        _capped("grid size nr * ntheta", nr * ntheta, MAX_GRID_POINTS)
        rmin = float(grid.get("rmin", rmax / float(grid.get("nr", 10))))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"grid values must be numbers: {exc}") from exc
    if not math.isfinite(rmin):
        raise ConfigError("grid rmin must be finite")
    radii = np.linspace(rmin, rmax, nr)
    angles = 2.0 * math.pi * np.arange(ntheta) / ntheta
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
    return _write(outdir, name, {"config": cfg.resolved(), "result": result})


# ---------------------------------------------------------------------------
# subcommands; each imports what it runs, reading the module attributes at
# call time
# ---------------------------------------------------------------------------

def _cmd_radius(cfg: RunConfig, outdir: Path) -> int:
    from .coherent import radius_of_convergence

    horizon = cfg.extra_value("horizon", 10**15, int)
    cap = cfg.extra_value("cap", 1e6, float)
    est = radius_of_convergence(cfg.weights, cfg.q, horizon=horizon, cap=cap)
    _write_result(outdir, "radius.json", cfg, est.to_json())
    return 0


def _cmd_operator(cfg: RunConfig, outdir: Path) -> int:
    from .operators import toeplitz_matrix

    text = cfg.extra_value("symbol", "tb^1", str)
    g = parse_manin_symbol(text, cfg.q)
    op = toeplitz_matrix(g, cfg.weights, cfg.q, cfg.cutoff)
    _write_result(outdir, "operator.json", cfg, op.to_json())
    _write(outdir, "operator.csv", op.to_csv())
    return 0


def _cmd_coherent(cfg: RunConfig, outdir: Path) -> int:
    from .coherent import coherent_coefficients, eigen_residual

    lam = cfg.extra_value("lambda", 1.0, parse_complex)
    state = coherent_coefficients(lam, cfg.weights, cfg.q, tol=cfg.tol)
    if not math.isfinite(state.norm_sq):
        raise InputTooLargeError(f"the coherent state at lambda = {lam} has "
                                 f"coefficients too large for a double")
    window = max(cfg.cutoff, state.n_cutoff)
    res = eigen_residual(state, cfg.weights, cfg.q)
    _write_result(outdir, "coherent.json", cfg, {"state": state.to_json(),
                                                 "residual": res.residual,
                                                 "leakage": res.leakage,
                                                 "window": window})
    return 0


def _cmd_kernel(cfg: RunConfig, outdir: Path) -> int:
    from .coherent import coherent_norm_sq, kernel
    from .symbols import SymbolValueGrid

    pts = _grid_points(cfg.grid)
    # no mu: the diagonal, the squared norms K(lambda, lambda)
    mu = cfg.extra_value("mu", None, lambda v: v if v is None else parse_complex(v))
    if mu is None:
        vals = coherent_norm_sq(pts, cfg.weights, cfg.q, tol=cfg.tol) + 0j
    else:
        vals = kernel(mu, pts, cfg.weights, cfg.q, tol=cfg.tol)
    big = np.flatnonzero(~np.isfinite(vals))
    if big.size:
        raise InputTooLargeError(f"the {'norm' if mu is None else 'kernel'} at "
                                 f"lambda = {complex(pts[big[0]])} overflows a double")
    _write(outdir, "kernel.csv", SymbolValueGrid(pts, vals, "kernel").to_csv())
    _write_result(outdir, "kernel.json", cfg, {"points": len(pts), "csv": "kernel.csv"})
    return 0


def _moment_rule(cfg: RunConfig):
    """The moment-solved rule at the configured order.  The solver caps the
    order at MAX_ORDER, so only the moments a capped rule matches are built,
    ``cfg.order`` becomes the order solved and the artifacts embed what ran."""
    from .measure import MAX_ORDER, MomentSequence, gauss_quadrature_from_moments

    jmax = 2 * min(cfg.order, MAX_ORDER) - 1
    moments = MomentSequence.from_weights(cfg.weights, cfg.q, jmax)
    quad = gauss_quadrature_from_moments(moments, cfg.order)
    cfg.order = quad.order
    return quad


def _cmd_measure(cfg: RunConfig, outdir: Path) -> int:
    from .measure import (closed_form_density, norm_divergence_witness, verify_moments,
                          verify_resolution_identity)

    basis = _capped("basis", cfg.extra_value("basis", 10, int), MAX_BASIS)
    quad = _moment_rule(cfg)
    nmax = min(2 * cfg.order - 1, 20)
    mom_rep = verify_moments(quad, cfg.weights, cfg.q, nmax, tol=cfg.tol)
    gram_rep = verify_resolution_identity(quad, cfg.weights, cfg.q, basis,
                                          2 * basis + 1, tol=cfg.tol)
    witness = norm_divergence_witness(quad, cfg.weights, cfg.q, nmax)
    density = closed_form_density(cfg.weights, cfg.q)
    _write_result(outdir, "measure.json", cfg, {
        "quadrature": quad.to_json(),
        "closed_form": None if density is None else density.description,
        "moment_check": mom_rep.to_json(),
        "gram_check": gram_rep.to_json(),
        "divergence_witness": witness.to_json(),
    })
    return 0


def _cmd_symbols(cfg: RunConfig, outdir: Path) -> int:
    from .operators import (adjoint_annihilation_matrix, annihilation_matrix,
                            creation_matrix, number_matrix)
    from .symbols import PolynomialSymbol, lower_symbol_grid, quantize_cs, secondary_toeplitz

    named_operators = {
        "annihilation": annihilation_matrix,
        "creation": creation_matrix,
        "adjoint": adjoint_annihilation_matrix,
        "number": lambda w, q, N: number_matrix(N),
    }

    def capped_window(v):
        return cfg.weights.max_index(_capped("window", int(v), MAX_CUTOFF))

    window = cfg.extra_value("window", max(96, cfg.cutoff), capped_window)
    f = PolynomialSymbol.parse(cfg.extra_value("phase_symbol", "L^1", str))
    quad = _moment_rule(cfg)
    qcs = quantize_cs(f, quad, cfg.weights, cfg.q, cfg.cutoff)
    sec = secondary_toeplitz(f, quad, cfg.weights, cfg.q, cfg.cutoff)

    name = cfg.extra_value("operator", "annihilation", str)
    if name not in named_operators:
        raise ConfigError(f"unknown operator {name!r}; expected one of "
                          f"{sorted(named_operators)}")
    op = named_operators[name](cfg.weights, cfg.q, window)
    pts = _grid_points(cfg.grid)
    grid = lower_symbol_grid(op, pts, cfg.weights, cfg.q,
                             normalized=cfg.extra_value("normalized", True, _json_bool))

    for name, mat in (("quantize_cs", qcs), ("secondary", sec)):
        _write_result(outdir, f"{name}.json", cfg, mat.to_json())
        _write(outdir, f"{name}.csv", mat.to_csv())
    _write(outdir, "lower_symbol.csv", grid.to_csv())
    return 0


def _cmd_paragrassmann(cfg: RunConfig, outdir: Path) -> int:
    from .paragrassmann import (MAX_PG_ORDER, ParagrassmannConfig, pg_annihilation,
                                pg_structure_report)

    l = cfg.extra_value("l", 3, int)
    if l > MAX_PG_ORDER:
        raise ConfigError(f"nilpotency order {l} exceeds the cap {MAX_PG_ORDER}")

    def pg_weights(v):
        if v is None:       # w_0..w_{l-1} of the run's weights
            return tuple(cfg.weights.weight(n) for n in range(l))
        return tuple(float(x) for x in v)

    weights = cfg.extra_value("pg_weights", None, pg_weights)
    pg = ParagrassmannConfig(l, weights, q=cfg.q)
    op = pg_annihilation(pg)
    rep = pg_structure_report(pg)
    _write_result(outdir, "paragrassmann.json", cfg, {
        "l": l, "weights": list(weights), "matrix": op.to_json(), "report": rep.to_json()})
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
    _write_result(outdir, "verify.json", cfg, [
        {"number": r.number, "name": r.name, "passed": r.passed, "detail": r.detail}
        for r in results])
    return 0 if all(r.passed for r in results) else 1


_DISPATCH = {
    "radius": _cmd_radius,
    "operator": _cmd_operator,
    "coherent": _cmd_coherent,
    "kernel": _cmd_kernel,
    "measure": _cmd_measure,
    "symbols": _cmd_symbols,
    "paragrassmann": _cmd_paragrassmann,
    "verify": _cmd_verify,
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
    for name, help_text in [
        ("radius", "estimate the phase-space radius"),
        ("operator", "Toeplitz matrix of a Manin symbol (config key 'symbol')"),
        ("coherent", "coherent state vector and eigen residual (key 'lambda')"),
        ("kernel", "kernel / squared-norm grid as CSV (optional key 'mu')"),
        ("measure", "moment-solved quadrature plus certifications"),
        ("symbols", "quantization, secondary Toeplitz and lower-symbol grids"),
        ("paragrassmann", "nilpotent degenerate case structure report (key 'l')"),
        ("verify", "run the full acceptance suite"),
    ]:
        sub.add_parser(name, help=help_text, parents=[common])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig.load(args)
        return _DISPATCH[args.command](cfg, Path(getattr(args, "out", ".") or "."))
    except QmaninError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 2)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
