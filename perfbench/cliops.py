"""The CLI operations: seeded configs for all eight subcommands, the two
refusal inputs, and the checks that read each operation's artifacts.

Shared by the cold workload (one fresh ``python -m qmanin.cli`` per
operation) and the in-process pass of the traced run (``qmanin.cli.main``).
Nothing here imports qmanin.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

import refs
from metrics import SUBCOMMANDS

# seed streams: the cold rounds, the traced run's census, and in-process
# passes (100 + worker index)
STREAM, COLD, CENSUS = 13, 0, 1
FACTORIAL = {"kind": "factorial", "params": {"scale": 1.0}}
KERNEL_GRID = {"rmax": 2.0, "nr": 20, "ntheta": 16}
MEASURE_ORDER = 12
SYMBOLS_CUTOFF = 12
OPERATOR_CUTOFF = 16


def rng(seed: int, index: int):
    return np.random.default_rng([seed, STREAM, index])


class CliOp(NamedTuple):
    name: str
    args: tuple              # subcommand and flags, after ``--out DIR``
    config: Optional[dict]   # written to the op directory, passed by --config
    refusal: bool


def _cx(z: complex) -> list:
    return [float(z.real), float(z.imag)]


def _unit(rng) -> complex:
    return complex(np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))


def subcommand_ops(rng) -> list:
    """One seeded config for each subcommand, README-sized."""
    c = float(rng.uniform(0.5, 2.0))
    q_op = float(rng.uniform(0.8, 1.25)) * _unit(rng)
    q_coh = float(rng.uniform(0.8, 1.0)) * _unit(rng)
    lam = float(rng.uniform(0.2, 2.0)) * _unit(rng)
    mu = float(rng.uniform(0.2, 1.5)) * _unit(rng)
    l = int(rng.integers(3, 9))
    pg_weights = [float(x) for x in rng.uniform(0.5, 3.0, size=l)]
    configs = {
        "radius": {"weights": {"kind": "constant", "params": {"c": c}}, "q": 1.0},
        "operator": {"symbol": "th^1 tb^1", "q": _cx(q_op), "cutoff": OPERATOR_CUTOFF},
        "coherent": {"lambda": _cx(lam), "q": _cx(q_coh), "tol": 1e-14},
        "kernel": {"mu": _cx(mu), "q": _cx(_unit(rng)), "grid": dict(KERNEL_GRID)},
        "measure": {"order": MEASURE_ORDER, "q": _cx(_unit(rng))},
        "symbols": {"phase_symbol": "L^1", "cutoff": SYMBOLS_CUTOFF,
                    "q": _cx(_unit(rng))},
        "paragrassmann": {"l": l, "pg_weights": pg_weights},
        "verify": None,
    }
    return [CliOp(name, (name,), configs[name], False) for name in SUBCOMMANDS]


# Inputs the CLI must refuse with exit 2, 3 or 4 and no traceback.  They do
# not depend on the seed.
REFUSALS = (
    CliOp("refuse-operator-overflow", ("operator", "--q", "0.1", "--cutoff", "400"),
          None, True),
    CliOp("refuse-kernel-rmax", ("kernel",), {"grid": {"rmax": "abc"}}, True),
)


def round_ops(rng) -> list:
    """One round of the cold workload: every subcommand, then the refusals."""
    return subcommand_ops(rng) + list(REFUSALS)


def argv(op: CliOp, outdir: Path) -> list:
    """Arguments for ``qmanin.cli``; writes the op's config into ``outdir``."""
    outdir.mkdir(parents=True, exist_ok=True)
    out = ["--out", str(outdir), *op.args]
    if op.config is not None:
        path = outdir / "config.json"
        path.write_text(json.dumps(op.config))
        out += ["--config", str(path)]
    return out


# -- checks ------------------------------------------------------------------

def _matrix(doc: dict) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in doc["entries"]])


def _csv_values(path: Path) -> tuple:
    rows = list(csv.DictReader(io.StringIO(path.read_text())))
    pts = np.array([complex(float(r["re_lambda"]), float(r["im_lambda"])) for r in rows])
    vals = np.array([complex(float(r["re_value"]), float(r["im_value"])) for r in rows])
    return pts, vals


def _q(cfg: dict) -> complex:
    return complex(*cfg["q"])


def expected_grid(grid: dict) -> np.ndarray:
    """The lambda grid a kernel config describes: nr radii from rmax/nr to
    rmax, ntheta equally spaced angles, radius-major."""
    rmax, nr, nt = grid["rmax"], grid["nr"], grid["ntheta"]
    radii = [rmax / nr + (rmax - rmax / nr) * k / (nr - 1) for k in range(nr)]
    return np.array([r * complex(math.cos(2 * math.pi * a / nt), math.sin(2 * math.pi * a / nt))
                     for r in radii for a in range(nt)])


def check_op(op: CliOp, code: int, stdout: str, stderr: str, outdir: Path) -> list:
    """Checks for one finished CLI operation; an empty list never passes."""
    if op.refusal:
        ok = code in (2, 3, 4) and "Traceback" not in stderr
        return [refs.Check(ok, float(code), f"refused with exit {code}, "
                           f"traceback={'Traceback' in stderr}")]
    if code != 0:
        return [refs.Check(False, float(code), f"exit {code}")]
    cfg = op.config
    try:
        return _CHECKS[op.name](cfg, stdout, outdir)
    except (OSError, KeyError, ValueError, TypeError, IndexError) as exc:
        return [refs.Check(False, math.inf, f"unreadable artifact: {exc!r}")]


def _load(outdir: Path, name: str) -> dict:
    return json.loads((outdir / name).read_text())["result"]


def _check_radius(cfg, stdout, outdir):
    value = _load(outdir, "radius.json")["value"]
    return [refs.check_at_most(abs(float(value) - 1.0), 1e-2, "radius within 1e-2 of 1")]


def _check_operator(cfg, stdout, outdir):
    got = _matrix(_load(outdir, "operator.json"))
    want = refs.toeplitz_number_diagonal(FACTORIAL, _q(cfg), cfg["cutoff"])
    return [refs.check_matrix(got, want, 1e-12, "th tb = (n+1) q^-n on the diagonal")]


def _check_coherent(cfg, stdout, outdir):
    res = _load(outdir, "coherent.json")
    coeffs = np.array([complex(re, im) for re, im in res["state"]["coeffs"]])
    want = refs.coherent_coefficients(FACTORIAL, _q(cfg), complex(*cfg["lambda"]),
                                      len(coeffs))
    return [refs.check_matrix(coeffs, want, 1e-11, "coherent coefficients closed form"),
            refs.check_at_most(res["residual"], 1e-10, "eigen residual")]


def _check_kernel(cfg, stdout, outdir):
    pts, vals = _csv_values(outdir / "kernel.csv")
    mu = complex(*cfg["mu"])
    want = [refs.kernel_closed_form(FACTORIAL, mu, z) for z in pts]
    return [refs.check_values(pts, expected_grid(cfg["grid"]), 1e-12, "kernel grid points"),
            refs.check_values(vals, want, 1e-10, "kernel = exp(conj(mu) lambda)")]


def _check_measure(cfg, stdout, outdir):
    quad = _load(outdir, "measure.json")["quadrature"]
    order = cfg["order"]
    return [refs.check_at_most(abs(quad["order"] - order), 0, "rule order"),
            refs.check_moments(quad["nodes"], quad["masses"], FACTORIAL,
                               abs(_q(cfg)), 2 * order - 1)]


def _check_symbols(cfg, stdout, outdir):
    got = _matrix(_load(outdir, "quantize_cs.json"))
    want = refs.annihilation_band(FACTORIAL, _q(cfg), cfg["cutoff"])
    pts, vals = _csv_values(outdir / "lower_symbol.csv")
    return [refs.check_matrix(got, want, 1e-9, "quantize_cs(L) = annihilation band"),
            refs.check_at_most(float(np.max(np.abs(vals - pts))), 1e-10,
                               "lower symbol of the annihilation operator = lambda")]


def _check_paragrassmann(cfg, stdout, outdir):
    got = _matrix(_load(outdir, "paragrassmann.json")["matrix"])
    return [refs.check_nilpotent(got, cfg["l"]),
            refs.check_matrix(got, refs.paragrassmann_band(cfg["pg_weights"]), 1e-14,
                              "paragrassmann band from the weights")]


def _check_verify(cfg, stdout, outdir):
    passes = [line for line in stdout.splitlines() if line.startswith("PASS criterion")]
    return [refs.Check(len(passes) == 12, float(12 - len(passes)),
                       f"{len(passes)} of 12 PASS lines")]


_CHECKS = {
    "radius": _check_radius,
    "operator": _check_operator,
    "coherent": _check_coherent,
    "kernel": _check_kernel,
    "measure": _check_measure,
    "symbols": _check_symbols,
    "paragrassmann": _check_paragrassmann,
    "verify": _check_verify,
}
