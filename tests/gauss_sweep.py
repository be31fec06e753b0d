"""The Gauss outcome sweep: fixed solver inputs through two trees, each in
its own interpreter, compared bit for bit.

    python tests/gauss_sweep.py --parent DIR --change DIR

Each DIR is a checkout with the package under src/qmanin.  Every input
(weights, q, order) goes through ``MomentSequence.from_weights(w, q,
2 order - 1)`` and ``gauss_quadrature_from_moments``.  Its outcome is the
float64 bytes of the nodes and masses, or the refusal's type, message and
achievable order.  The script prints the outcomes by kind, per part and per
tree, and how many differ.  For each input whose outcome differs it prints
both outcomes and that of the exact-moment reference
(``gauss_reference.exact_golub_welsch``, run in the change's tree, whose
solver API it uses).  It writes nothing, and exits 1 when any outcome
differs, else 0.

The inputs are fixed here once, 5,483 of them in five parts:

1. scan (450): the delta_0 + delta_1 table pi (2, 1, 1, ...) at |q| =
   1 - 10^-k and 1 + 10^-k, k = 1 + 11 i / 44 for i = 0..44, at orders 4,
   8, 12, 16 and 20.
2. random (2,400), ``random.Random(2026)``: a family drawn uniformly from
   factorial, power_factorial(s) with s ~ U[0.5, 3], constant(c) with
   c ~ U[0.3, 3], log-concave tables (log w_{j+1} - log w_j = a - d j, with
   a ~ U[0.5, 3] and d ~ U[0, 0.3]), pi times the moments of 1 to 7 atoms
   in [0.05, 5] with masses U[0.1, 2], delta_0 + delta_1, and tables
   U[0.5, 2] e^{U[0, 1] j}; |q| exactly 1 with probability 0.1, 1 - 10^-k
   with k ~ U{1..12} with probability 0.15, else U[0.05, 1.3]; a phase
   ~ U[0, 2 pi) with probability 0.5; the order ~ U{2..20}.
3. circle (2,000), ``random.Random(7)``: q = e^{i theta}, theta ~
   U[0, 2 pi), the order ~ U{2..12}, a family drawn uniformly from
   constant(c), delta_0 + delta_1, factorial and power_factorial(s), with c
   and s drawn as in part 2.
4. small (400), ``random.Random(11)``: |q| = 10^U[-30, log10 0.05], a phase
   ~ U[0, 2 pi) with probability 0.5, the order ~ U{1..20}, the family
   drawn as in part 2.
5. tests (233): the configurations of tests/test_measure.py, listed in
   ``_TEST_CONFIGS``.

Every table has 40 entries.
"""

import argparse
import cmath
import json
import math
import os
import random
import subprocess
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
_LENGTH = 40

FACTORIAL = {"kind": "factorial"}
DELTA01 = {"kind": "explicit", "table": [math.pi * x for x in (2,) + (1,) * 39]}


def _table(values):
    return {"kind": "explicit", "table": list(values)}


def _constant(c):
    return {"kind": "constant", "params": {"c": c}}


def _power(s):
    return {"kind": "power-factorial", "params": {"s": s}}


def _family(rng, kinds=("factorial", "power", "constant", "concave", "atoms", "delta",
                        "growing")):
    kind = rng.choice(kinds)
    if kind == "factorial":
        return FACTORIAL
    if kind == "power":
        return _power(rng.uniform(0.5, 3.0))
    if kind == "constant":
        return _constant(rng.uniform(0.3, 3.0))
    if kind == "concave":
        a, d = rng.uniform(0.5, 3.0), rng.uniform(0.0, 0.3)
        return _table(math.exp(sum(a - d * i for i in range(j))) for j in range(_LENGTH))
    if kind == "atoms":
        atoms = [(rng.uniform(0.05, 5.0), rng.uniform(0.1, 2.0))
                 for _ in range(rng.randint(1, 7))]
        return _table(math.pi * sum(m * x ** j for x, m in atoms) for j in range(_LENGTH))
    if kind == "delta":
        return DELTA01
    return _table(rng.uniform(0.5, 2.0) * math.exp(rng.uniform(0.0, 1.0) * j)
                  for j in range(_LENGTH))


def _phase(rng, modulus):
    if rng.random() < 0.5:
        return modulus * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    return complex(modulus)


# (weights, q, order) named in tests/test_measure.py, each once
_WFAC, _WCONST = FACTORIAL, _constant(1.0)
_GRID = [(w, q, order)
         for w in (_WFAC, _power(2.0), _WCONST, DELTA01)
         for q in (1.0, 0.95 * cmath.exp(0.7j), 0.7, 1.3, 0.5)
         for order in (2, 8, 14, 20)]
_TEST_CONFIGS = _GRID + [
    (_WFAC, 1.0, 5), (_WFAC, 1.0, 1), (_WCONST, 1.0, 1), (_WCONST, 1.0, 3), (_WCONST, 1.0, 5),
    (_WFAC, 0.5, 6), (_table([1.0, 10.0, 1.0, 10.0]), 1.0, 2),
    (_table([math.pi * x for x in (2, 1, 1, 1, 1, 1, 1, 1)]), 1.0, 2),
    (_table([math.pi * x for x in (2, 1, 1, 1, 1, 1, 1, 1)]), 1.0, 3),
    (_table([math.pi * x for x in (2, 1, 1, 1, 1, 1, 1, 1)]), 1.0, 4),
    (DELTA01, 1.0, 3), (_WFAC, 1.3, 2), (_power(2.0), 1.05j, 8), (_power(1.5), 1.02, 12),
    (_WFAC, 0.95 * cmath.exp(0.7j), 8), (_WFAC, 0.95 * cmath.exp(0.7j), 12),
    (_WCONST, 0.9, 8), (_WCONST, 0.9, 12), (_WFAC, 1.0, 8),
    (_WCONST, 0.6, 20), (_WFAC, 1e-6, 10), (_WFAC, 1e-30, 20), (_WFAC, 1e-30, 2),
    (_WCONST, 0.5, 17), (_constant(2.0), 0.5, 17), (DELTA01, 0.5, 17), (_power(0.5), 0.3, 13),
    (_WFAC, 1e-155, 1), (_WFAC, 1e300, 1), (_WFAC, 1e-155, 2), (_WFAC, 1.0, 20),
    (DELTA01, 0.6616357683510744 - 0.7498253863657081j, 9),
    (DELTA01, 0.9999943765867481, 20), (DELTA01, 0.9999968377223398, 20),
    (DELTA01, 0.9999982217205899, 18),
    (_constant(2.0), 0.10178114258214559 + 0.9948068149217077j, 6),
    (_WCONST, 0.8737292721603928 + 0.48641253989804817j, 5),
    (DELTA01, -0.8151944056348668 + 0.5791874316847839j, 4),
    (_WCONST, -0.1490597623392169 + 0.9888281889445588j, 4),
    (DELTA01, -0.9912759751350373 - 0.13180265976102656j, 7),
    (DELTA01, 0.05548377731337452 + 0.9984595887941784j, 8),
    (_WFAC, 0.1, 9), (_WFAC, 0.95, 20), (DELTA01, 0.9999, 16), (DELTA01, 0.99999, 12),
    (DELTA01, 0.9999999, 8), (_WFAC, -2.877957375027204e-30 + 2.556262796661036e-30j, 3),
    (DELTA01, 0.912978884799118 + 0.40800680865759914j, 2), (_WCONST, 0.7, 2),
    (_power(2.0), 0.95 * cmath.exp(0.7j), 2), (_WFAC, 1.0, 12), (_WCONST, 0.9, 20),
    (_constant(0.8563164613529595), 0.99999999, 17),
] + [(_constant(2.0), q, order) for q in (0.95, 0.8, 0.7, 0.5, 0.3)
     for order in range(1, 21)]


def configurations() -> list:
    """The sweep's inputs as (part, weights spec, [re q, im q], order)."""
    out = []
    for k in (1 + 11 * i / 44 for i in range(45)):
        for modulus in (1 - 10 ** -k, 1 + 10 ** -k):
            out += [("scan", DELTA01, modulus, order) for order in (4, 8, 12, 16, 20)]
    rng = random.Random(2026)
    for _ in range(2400):
        w, u = _family(rng), rng.random()
        modulus = (1.0 if u < 0.1 else 1 - 10.0 ** -rng.randint(1, 12) if u < 0.25
                   else rng.uniform(0.05, 1.3))
        out.append(("random", w, _phase(rng, modulus), rng.randint(2, 20)))
    rng = random.Random(7)
    for _ in range(2000):
        q = cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        order = rng.randint(2, 12)
        out.append(("circle", _family(rng, ("constant", "delta", "factorial", "power")),
                    q, order))
    rng = random.Random(11)
    for _ in range(400):
        w = _family(rng)
        q = _phase(rng, 10.0 ** rng.uniform(-30.0, math.log10(0.05)))
        out.append(("small", w, q, rng.randint(1, 20)))
    out += [("tests", w, q, order) for w, q, order in _TEST_CONFIGS]
    return [(part, w, [complex(q).real, complex(q).imag], order) for part, w, q, order in out]


def _solve(config) -> list:
    """The outcome of one input, as JSON: ["rule", node hex, mass hex] or
    ["refused", type, message, achievable order].  The package is imported
    here, in a worker, so that the driver loads neither tree."""
    from qmanin import MomentSequence, WeightSequence, gauss_quadrature_from_moments
    from qmanin.errors import QmaninError

    _, spec, (re, im), order = config
    w = WeightSequence.from_json(spec)
    try:
        quad = gauss_quadrature_from_moments(
            MomentSequence.from_weights(w, complex(re, im), 2 * order - 1), order)
    except QmaninError as exc:
        return ["refused", type(exc).__name__, str(exc), getattr(exc, "achievable", None)]
    return ["rule", [x.hex() for x in quad.nodes], [x.hex() for x in quad.masses]]


def _worker(mode: str) -> None:
    """Read inputs as JSON from stdin and write their outcomes to stdout:
    the solver's for "solve", the exact-moment reference's for "reference"."""
    configs = json.load(sys.stdin)
    if mode == "reference":
        import gauss_reference
        from qmanin import measure

        measure._golub_welsch = gauss_reference.exact_golub_welsch
    json.dump([_solve(c) for c in configs], sys.stdout)


def outcomes(tree, configs, mode: str = "solve") -> list:
    """The outcome of each input in the tree ``tree``, in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(Path(tree) / "src"), str(HERE)]))
    proc = subprocess.run([sys.executable, "-c", f"import gauss_sweep; gauss_sweep._worker({mode!r})"],
                          input=json.dumps(configs), capture_output=True, text=True, env=env,
                          cwd=HERE, check=True)
    return json.loads(proc.stdout)


def _kind(outcome) -> str:
    return "rule" if outcome[0] == "rule" else outcome[1]


def compare(parent, change, configs, out=sys.stdout) -> list:
    """Run ``configs`` through both trees at once and print the comparison;
    returns the indices of the inputs whose outcomes differ."""
    with ThreadPoolExecutor(2) as pool:
        futures = [pool.submit(outcomes, tree, configs) for tree in (parent, change)]
        results = [f.result() for f in futures]
    for name, res in zip(("parent", "change"), results):
        for part in dict.fromkeys(c[0] for c in configs):
            kinds = Counter(_kind(o) for c, o in zip(configs, res) if c[0] == part)
            print(f"{name} {part}: " + ", ".join(f"{n} {k}" for k, n in sorted(kinds.items())),
                  file=out)
    differ = [i for i, (a, b) in enumerate(zip(*results)) if a != b]
    kinds = sum(_kind(results[0][i]) != _kind(results[1][i]) for i in differ)
    print(f"{len(configs)} inputs; {len(differ)} differ, {kinds} of them in kind", file=out)
    if differ:
        reference = outcomes(change, [configs[i] for i in differ], "reference")
        for i, ref in zip(differ, reference):
            print(f"\ninput {i}: {json.dumps(configs[i])}", file=out)
            for name, outcome in (("parent", results[0][i]), ("change", results[1][i]),
                                  ("exact", ref)):
                print(f"  {name}: {json.dumps(outcome)}", file=out)
    return differ


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent tree")
    parser.add_argument("--change", required=True, help="checkout of the changed tree")
    args = parser.parse_args(argv)
    return 1 if compare(args.parent, args.change, configurations()) else 0


if __name__ == "__main__":
    sys.exit(main())
