"""In-process workloads: seeded inputs, the operations, and their checks.

Each workload hands out a warm-up and rounds.  A round is a fixed list of
operations; an operation is ``(label, run, check)`` where ``run()`` is the timed call into
qmanin and ``check(output)`` returns ``refs.Check`` values computed apart
from the program.  Calls go through module attributes (``coherent.kernel``)
so that a tracer installed after import sees them.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import math
import shutil
from pathlib import Path

import numpy as np

import qmanin.acceptance as acceptance
import qmanin.cli as cli
import qmanin.coherent as coherent
import qmanin.measure as measure
import qmanin.operators as operators
import qmanin.symbols as symbols
from qmanin.symbols import PolynomialSymbol
from qmanin.weights import WeightSequence

import cliops
import refs

FACTORIAL = {"kind": "factorial", "params": {"scale": 1.0}}
CONSTANT = {"kind": "constant", "params": {"c": 1.0, "scale": 1.0}}
POWER_FACTORIAL_2 = {"kind": "power-factorial", "params": {"s": 2.0, "scale": 1.0}}

# stream ids mixed into every seed, so workloads never share draws
SERIES_STREAM, QUAD_STREAM = 11, 12


def rng_for(seed: int, stream: int, index: int):
    return np.random.default_rng([seed, stream, index])


def disk_points(rng, radius: float, size: int) -> np.ndarray:
    """Area-uniform points in the disk |z| <= radius."""
    r = radius * np.sqrt(rng.uniform(0.0, 1.0, size))
    return r * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size))


# -- series-grid --------------------------------------------------------------

class SeriesGrid:
    """Certified series evaluations at single points.

    Configurations: factorial weights at q = 1, q = e^{i pi/5} and q = 0.8,
    and constant weights at q = 1 with |lambda|, |mu| <= 0.97.  The
    lower-symbol points of the constant family stay within |lambda| <= 0.6,
    where the certified coherent state fits the 97x97 operator window.
    """

    # name, weights, q, point radius, lower-symbol radius
    CONFIGS = (
        ("factorial-q1", FACTORIAL, 1.0 + 0j, 2.5, 2.5),
        ("factorial-rot", FACTORIAL, cmath.exp(1j * math.pi / 5), 2.5, 2.5),
        ("factorial-q0.8", FACTORIAL, 0.8 + 0j, 2.5, 2.5),
        ("constant-q1", CONSTANT, 1.0 + 0j, 0.97, 0.6),
    )
    POINTS_PER_KIND = 4     # per configuration and operation kind, per round
    POOL = 256              # rounds of distinct points drawn at set-up
    WINDOW = 96             # annihilation matrix is (WINDOW+1) x (WINDOW+1)

    def __init__(self, seed: int, index: int, workdir: Path):
        rng = rng_for(seed, SERIES_STREAM, index)
        k, n = self.POINTS_PER_KIND, self.POOL
        self.configs = []
        for name, spec, q, radius, sym_radius in self.CONFIGS:
            w = WeightSequence.from_json(spec)
            self.configs.append({
                "name": name, "spec": spec, "w": w, "q": q,
                "lam": disk_points(rng, radius, (n, k)),
                "mu": disk_points(rng, radius, (n, k)),
                "sym": disk_points(rng, sym_radius, (n, k)),
            })
        self.prepare()

    def prepare(self) -> None:
        """Build the annihilation matrices the lower symbols are taken on."""
        for c in self.configs:
            c["A"] = operators.annihilation_matrix(c["w"], c["q"], self.WINDOW)

    def warmup(self) -> list:
        return self.round(self.POOL - 1)[:1]

    def round(self, r: int) -> list:
        ops = []
        r %= self.POOL
        for c in self.configs:
            for j in range(self.POINTS_PER_KIND):
                lam, mu, sym = (complex(c["lam"][r, j]), complex(c["mu"][r, j]),
                                complex(c["sym"][r, j]))
                ops += [self._kernel(c, mu, lam), self._norm(c, lam),
                        self._coherent(c, lam), self._lower(c, sym)]
        return ops

    @staticmethod
    def _q_abs_is_one(c) -> bool:
        return abs(abs(c["q"]) - 1.0) < 1e-15

    def _kernel(self, c, mu, lam):
        w, q, spec = c["w"], c["q"], c["spec"]

        def check(value):
            if self._q_abs_is_one(c):
                return [refs.check_values(value, refs.kernel_closed_form(spec, mu, lam),
                                          1e-10, f"{c['name']} kernel closed form")]
            mirrored = coherent.kernel(lam, mu, w, q)
            return [refs.check_values(value, refs.kernel_direct(spec, abs(q), mu, lam),
                                      1e-10, f"{c['name']} kernel direct sum"),
                    refs.check_values(value, mirrored.conjugate(), 1e-13,
                                      f"{c['name']} kernel hermiticity")]

        return ("kernel", lambda: coherent.kernel(mu, lam, w, q), check)

    def _norm(self, c, lam):
        w, q, spec = c["w"], c["q"], c["spec"]

        def check(value):
            if self._q_abs_is_one(c):
                return [refs.check_values(value, refs.norm_sq_closed_form(spec, lam),
                                          1e-10, f"{c['name']} norm closed form")]
            diagonal = coherent.kernel(lam, lam, w, q)
            return [refs.check_values(value, refs.kernel_direct(spec, abs(q), lam, lam).real,
                                      1e-10, f"{c['name']} norm direct sum"),
                    refs.check_values(value, diagonal, 1e-12,
                                      f"{c['name']} K(lambda, lambda) = norm")]

        return ("norm", lambda: coherent.coherent_norm_sq(lam, w, q), check)

    def _coherent(self, c, lam):
        w, q, spec = c["w"], c["q"], c["spec"]

        def run():
            state = coherent.coherent_coefficients(lam, w, q)
            return state, coherent.eigen_residual(state, w, q)

        def check(out):
            state, res = out
            coeffs = state.coefficients()
            want = refs.coherent_coefficients(spec, q, lam, len(coeffs))
            return [refs.check_matrix(coeffs, want, 1e-11,
                                      f"{c['name']} coherent coefficients"),
                    refs.check_at_most(res.residual, 1e-10, f"{c['name']} eigen residual")]

        return ("coherent", run, check)

    def _lower(self, c, lam):
        w, q, A = c["w"], c["q"], c["A"]

        def check(value):
            return [refs.check_at_most(abs(value - lam), 1e-10,
                                       f"{c['name']} Berezin symbol = lambda")]

        return ("lower_symbol", lambda: symbols.lower_symbol(A, lam, w, q), check)


# -- quadrature ---------------------------------------------------------------

class Quadrature:
    """Moment-solved rule pipelines, a fresh moment sequence per operation.

    A round solves each (family, order) below once.  |q| is drawn from a
    band 0.01 wide per family, so the solver's working precision, which
    grows with the spread of the log moments, hardly varies between seeds
    while no moment sequence repeats; arg q is uniform.  Constant weights
    stay at orders <= 16: at |q| < 1 and order 20 the solved masses can
    come out non-positive.
    """

    # family, orders, |q| band
    FAMILIES = (
        (FACTORIAL, (8, 12, 16, 20), (0.95, 0.96)),
        (POWER_FACTORIAL_2, (8, 12, 16, 20), (0.95, 0.96)),
        (CONSTANT, (8, 12, 16), (0.90, 0.91)),
    )

    def __init__(self, seed: int, index: int, workdir: Path):
        self.rng = rng_for(seed, QUAD_STREAM, index)

    def prepare(self) -> None:
        pass

    def _draw_q(self, band) -> complex:
        return float(self.rng.uniform(*band)) * cmath.exp(
            1j * float(self.rng.uniform(0.0, 2.0 * math.pi)))

    def warmup(self) -> list:
        return [self._pipeline(FACTORIAL, 8, self._draw_q((0.95, 0.96)))]

    def round(self, r: int) -> list:
        return [self._pipeline(spec, order, self._draw_q(band))
                for spec, orders, band in self.FAMILIES for order in orders]

    @staticmethod
    def _pipeline(spec, order, q):
        w = WeightSequence.from_json(spec)
        N = 2 * order - 2     # largest cutoff with deg-1 symbols inside the reach
        lam, lam_conj, one = (PolynomialSymbol.lam(), PolynomialSymbol.lam_conj(),
                              PolynomialSymbol.one())
        label = f"{spec['kind']}-{order}"

        def run():
            moments = measure.MomentSequence.from_weights(w, q, 2 * order - 1)
            quad = measure.gauss_quadrature_from_moments(moments, order)
            mom = measure.verify_moments(quad, w, q, 2 * order - 1)
            gram = measure.verify_resolution_identity(quad, w, q, order, 2 * order + 1)
            q_one = symbols.quantize_cs(one, quad, w, q, N)
            q_lam = symbols.quantize_cs(lam, quad, w, q, N)
            sec = symbols.secondary_toeplitz(lam_conj, quad, w, q, N)
            bound = symbols.quantize_cs_norm_bound(lam, quad, w, q)
            return quad, mom, gram, q_one, q_lam, sec, bound

        def check(out):
            quad, mom, gram, q_one, q_lam, sec, bound = out
            return [
                refs.check_moments(quad.nodes, quad.masses, spec, abs(q), 2 * order - 1),
                refs.check_at_most(mom.max_deviation, 1e-8, "verify_moments deviation"),
                refs.check_at_most(gram.max_deviation, 1e-8, "Gram reconstruction deviation"),
                refs.check_identity(q_one.matrix, 1e-11, "quantize_cs(1) = I"),
                refs.check_matrix(q_lam.matrix, refs.annihilation_band(spec, q, N), 1e-10,
                                  "quantize_cs(lambda) = annihilation band"),
                refs.check_matrix(sec.matrix, refs.adjoint_band(spec, q, N), 1e-10,
                                  "secondary_toeplitz(conj lambda) = adjoint band"),
                refs.check_norm_bound(bound, q_lam.matrix, "norm bound >= ||Q(lambda)||"),
            ]

        return (label, run, check)


# -- acceptance ---------------------------------------------------------------

class Acceptance:
    """One pass of the twelve criteria per interpreter, in suite order.

    The criteria pin their own configurations, so the seed changes nothing
    here.  The warm-up runs criterion 11, which solves no Gauss rule, so it
    leaves the pass's own reuse untouched.
    """

    ONE_ROUND = True

    def __init__(self, seed: int, index: int, workdir: Path):
        pass

    def prepare(self) -> None:
        pass

    def warmup(self) -> list:
        return [self._criterion(11)]

    def round(self, r: int) -> list:
        return [self._criterion(n) for n, _name, _fn in acceptance.CRITERIA]

    @staticmethod
    def _criterion(n):
        def check(result):
            return [refs.Check(result.passed, 0.0 if result.passed else 1.0, result.line())]

        return (f"criterion_{n:02d}", lambda: acceptance.run_criterion(n), check)


# -- the CLI in-process -------------------------------------------------------

class CliInProcess:
    """The eight subcommands through ``qmanin.cli.main`` in one interpreter."""

    ONE_ROUND = True

    def __init__(self, seed: int, index: int, workdir: Path):
        self.ops = cliops.subcommand_ops(cliops.rng(seed, 100 + index))
        self.workdir = workdir

    def prepare(self) -> None:
        pass

    def warmup(self) -> list:
        return [self._op(self.ops[0], "warmup")]

    def round(self, r: int) -> list:
        return [self._op(op, f"r{r}") for op in self.ops]

    def _op(self, op, tag):
        outdir = self.workdir / f"{op.name}-{tag}"
        argv = cliops.argv(op, outdir)

        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            return code, out.getvalue(), err.getvalue()

        def check(result):
            try:
                return cliops.check_op(op, *result, outdir)
            finally:
                shutil.rmtree(outdir, ignore_errors=True)

        return (f"cli.{op.name}", run, check)


WORKLOADS = {
    "series-grid": SeriesGrid,
    "quadrature": Quadrature,
    "acceptance": Acceptance,
    "cli-inproc": CliInProcess,
}
