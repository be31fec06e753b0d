"""Layered benchmark for qmanin: cold CLI, series grids, moment-solved
quadrature and the acceptance suite.

    python3 perfbench/run.py --workload cli-cold --seed 1 --seconds 15 --trace 0

Run from the root of a qmanin source tree; qmanin is imported from ``src``.
``--workload all`` runs the four workloads in turn.  With ``--trace 0`` the
run prints the end-to-end metrics, with ``--trace 1`` the per-layer metrics
of a traced run.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it records the run's context (versions, nproc, git sha, backend,
seed).  See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

import calibrate
import cliops
import metrics as names
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
CHILD_TIMEOUT_S = 150.0
WORKLOADS = ("cli-cold", "series-grid", "quadrature", "acceptance")
# interpreters per timed run; quadrature's rounds take seconds, so fewer
# interpreters leave each of them more than one round
WORKERS = {"series-grid": 3, "quadrature": 2}
CLI_MIN_ROUNDS = 2           # a cli-cold round takes 10-20 s; one is too few samples
TRACED_ROUNDS = {"series-grid": 40, "quadrature": 1, "acceptance": 1}


class BenchError(RuntimeError):
    """The benchmark itself could not run (not an operation failure)."""


class Child(NamedTuple):
    code: int
    wall: float
    rss_mb: float
    stdout: str
    stderr: str
    launched: float


class Runner:
    """Starts child interpreters one at a time and reaps each one."""

    def __init__(self, workdir: Path, seed: int):
        self.workdir = workdir
        self.seed = seed
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self._ids = itertools.count()

    def spawn(self, argv, cwd: Path) -> Child:
        n = next(self._ids)
        out_path, err_path = self.workdir / f"child{n}.out", self.workdir / f"child{n}.err"
        with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
            launched = time.monotonic()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=fo, stderr=fe,
                                    cwd=cwd, env=self.env)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                # wait4 gives this child's own peak RSS
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.monotonic() - launched
            proc.returncode = os.waitstatus_to_exitcode(status)
        stdout = out_path.read_text(errors="replace")
        stderr = err_path.read_text(errors="replace")
        out_path.unlink()
        err_path.unlink()
        return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0, stdout, stderr, launched)

    def worker(self, workload: str, index: int, **params) -> tuple:
        """Run one worker interpreter; returns (result dict, Child)."""
        tag = f"{workload}-{index}-{next(self._ids)}"
        spec = {"workload": workload, "seed": self.seed, "index": index,
                "workdir": str(self.workdir / tag), "out": str(self.workdir / f"{tag}.json"),
                "spans_out": str(WORK / f"spans-{workload}-{index}-seed{self.seed}.json"),
                **params}
        spec_path = self.workdir / f"{tag}.spec.json"
        spec_path.write_text(json.dumps(spec))
        child = self.spawn([sys.executable, str(HERE / "worker.py"), str(spec_path)], ROOT)
        if child.code != 0 or not Path(spec["out"]).is_file():
            raise BenchError(f"worker {tag} exited {child.code}:\n{child.stderr[-3000:]}")
        return json.loads(Path(spec["out"]).read_text()), child

    def cli(self, op: cliops.CliOp, tag: str) -> tuple:
        """One fresh ``python -m qmanin.cli`` process; returns (Child, checks)."""
        outdir = self.workdir / tag
        child = self.spawn([sys.executable, "-m", "qmanin.cli", *cliops.argv(op, outdir)],
                           self.workdir)
        checks = cliops.check_op(op, child.code, child.stdout, child.stderr, outdir)
        shutil.rmtree(outdir, ignore_errors=True)
        return child, checks


class Tally:
    """Operations attempted, failed and checked, with what went wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.notes = []
        self.backend = "unknown"

    def add_worker(self, res: dict) -> None:
        self.attempted += res["attempted"]
        self.failed += res["failed"]
        self.correct &= res["correct"]
        self.notes += res["errors"] + res["check_failures"]
        self.backend = res["backend"]

    def add_cli(self, op, child, checks, count=True) -> bool:
        """Records one CLI operation; returns whether it completed.

        An operation that exits non-zero (or a refusal that is not refused
        cleanly) failed; one that completed with wrong artifacts is
        incorrect.  Uncounted operations (warm-up, census) must not fail.
        """
        bad = [c for c in checks if not c.ok]
        failed = bool(bad) and (op.refusal or child.code != 0)
        if count:
            self.attempted += 1
            self.failed += failed
        if failed:
            last = (child.stderr.strip().splitlines() or [""])[-1]
            self.notes.append(f"{op.name}: exit {child.code}: {last[:200]}")
            if not count:
                self.correct = False
        elif bad:
            self.correct = False
            self.notes += [f"{op.name}: {c.what} (worst {c.worst:.3e})" for c in bad]
        return not failed


def round_median_ms(times) -> float:
    """Median over rounds of the median operation time in each round, in
    ms; ``times`` are (round key, seconds) of completed operations."""
    by_round = {}
    for key, t in times:
        by_round.setdefault(key, []).append(t)
    return statistics.median(statistics.median(v) for v in by_round.values()) * 1000.0


# -- end-to-end runs -------------------------------------------------------------

BACKEND_PROBE = "import qmanin.cli, qmanin; print(qmanin.backend_name())"


def timed_cli_cold(run: Runner, seconds: float, tally: Tally) -> tuple:
    """Returns (scaled metrics, raw metrics).  A bare interpreter
    (``calibrate.NULL_PROCESS``) runs before every measured process, and
    each process's time is scaled by the null processes on either side."""
    rng = cliops.rng(run.seed, cliops.COLD)
    warm_op = cliops.subcommand_ops(rng)[0]
    child, checks = run.cli(warm_op, "warmup")
    tally.add_cli(warm_op, child, checks, count=False)
    nulls = []

    def null():
        nulls.append(run.spawn([sys.executable, "-c", calibrate.NULL_PROCESS],
                               run.workdir).wall)
        return len(nulls) - 1

    probes = []
    for _ in range(3):
        probes.append((null(), run.spawn([sys.executable, "-c", BACKEND_PROBE], run.workdir)))
    if any(p.code != 0 for _i, p in probes):
        raise BenchError(f"import probe failed:\n{probes[0][1].stderr[-3000:]}")
    tally.backend = probes[0][1].stdout.strip()
    t0 = time.monotonic()
    ops = cliops.round_ops(rng)
    gen_s = time.monotonic() - t0

    timed = []                   # (round, null index, wall, completed)
    rss = []
    start, r = time.monotonic(), 0
    while True:
        round_start = time.monotonic()
        for i, op in enumerate(ops):
            before = null()
            child, checks = run.cli(op, f"r{r}-{i}")
            rss.append(child.rss_mb)
            timed.append((r, before, child.wall, tally.add_cli(op, child, checks)))
        r += 1
        last = time.monotonic() - round_start
        if r >= CLI_MIN_ROUNDS and time.monotonic() - start >= seconds - 0.5 * last:
            break
        ops = cliops.round_ops(rng)
    null()

    def metrics(scaling):
        def f(i):
            return calibrate.scale(nulls, i, calibrate.NULL_REFERENCE_S) if scaling else 1.0

        rounds = {}
        for rnd, i, wall, ok in timed:
            row = rounds.setdefault(rnd, [0, 0.0])
            row[0] += ok
            row[1] += wall * f(i)
        return {"setup_s": gen_s + statistics.median(p.wall * f(i) for i, p in probes),
                "ops_per_s": statistics.median(n / t for n, t in rounds.values()),
                "op_p50_ms": round_median_ms([(rnd, wall * f(i))
                                              for rnd, i, wall, ok in timed if ok]),
                "peak_rss_mb": max(rss)}

    return metrics(True), metrics(False)


def timed_in_process(run: Runner, workload: str, seconds: float, tally: Tally) -> tuple:
    """Returns (scaled metrics, raw metrics)."""
    workers = []

    def one(index, budget):
        res, child = run.worker(workload, index, budget=budget)
        tally.add_worker(res)
        workers.append((res, child))

    if workload == "acceptance":
        # one pass per fresh interpreter, as `qmanin verify` users get
        start, index = time.monotonic(), 0
        while True:
            t0 = time.monotonic()
            one(index, 0.0)
            index += 1
            last = time.monotonic() - t0
            if index >= 3 and time.monotonic() - start >= seconds - 0.5 * last:
                break
    else:
        for index in range(WORKERS[workload]):
            one(index, seconds / WORKERS[workload])

    def metrics(scaling):
        col = 2 if scaling else 1
        times = [((k, rnd), t * (s if scaling else 1.0)) for k, (res, _c) in enumerate(workers)
                 for rnd, _label, t, s in res["op_times"]]
        rates = [row[0] / row[col] for res, _c in workers for row in res["rounds"]]
        setups = [(res["ready"] - child.launched) * (res["setup_scale"] if scaling else 1.0)
                  for res, child in workers]
        return {"setup_s": statistics.median(setups),
                "ops_per_s": statistics.median(rates),
                "op_p50_ms": round_median_ms(times),
                "peak_rss_mb": max(child.rss_mb for _res, child in workers)}

    return metrics(True), metrics(False)


# -- traced runs -----------------------------------------------------------------

def import_tree_seconds(importtime: str, packages) -> dict:
    """Seconds spent importing each package, from ``-X importtime`` output.

    The report lists each module after the modules it imported, indented
    one level deeper.  A package's time is the cumulative time of its
    outermost modules: those whose importers are not in the package.
    """
    pending = []                       # finished subtrees awaiting a parent
    for line in importtime.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        try:
            cumulative = int(parts[1]) / 1e6
        except ValueError:
            continue                   # the header line
        name = parts[2].rstrip()
        level = (len(name) - len(name.lstrip()) - 1) // 2
        children = []
        while pending and pending[-1][0] > level:
            children.append(pending.pop())
        pending.append((level, name.strip(), cumulative, children))

    def owner(name):
        return next((p for p in packages if name == p or name.startswith(p + ".")), None)

    out = dict.fromkeys(packages, 0.0)

    def walk(nodes, inside):
        for _level, name, cumulative, children in nodes:
            pkg = owner(name)
            if pkg is not None and pkg != inside:
                out[pkg] += cumulative
            walk(children, pkg or inside)

    walk(pending, None)
    return out


def import_probe(run: Runner) -> dict:
    """Import seconds of qmanin, scipy and mpmath in a fresh interpreter,
    from ``-X importtime`` (median of three probes)."""
    packages = ("qmanin", "scipy", "mpmath")
    samples = []
    for _ in range(3):
        child = run.spawn([sys.executable, "-X", "importtime", "-c", "import qmanin"],
                          run.workdir)
        if child.code != 0:
            raise BenchError(f"import probe failed:\n{child.stderr[-3000:]}")
        samples.append(import_tree_seconds(child.stderr, packages))
    return {f"import.{p}_s": statistics.median(s[p] for s in samples) for p in packages}


def traced(run: Runner, workload: str, tally: Tally) -> dict:
    """Per-layer metrics: the workload's operations run twice on the same
    inputs in fresh interpreters, untraced then traced, plus a census that
    reaches every layer (import probe, the eight subcommands cold and
    through ``qmanin.cli.main`` traced)."""
    metrics = import_probe(run)
    layers, counters = {}, {}

    def absorb(res):
        tracing.merge(layers, res["layers"])
        for k, v in res["counters"].items():
            counters[k] = counters.get(k, 0.0) + v

    # cold CLI: a full round (with the refusals) on cli-cold, else the census
    if workload == "cli-cold":
        ops = cliops.round_ops(cliops.rng(run.seed, cliops.COLD))
    else:
        ops = cliops.subcommand_ops(cliops.rng(run.seed, cliops.CENSUS))
    for i, op in enumerate(ops):
        child, checks = run.cli(op, f"cold-{i}")
        tally.add_cli(op, child, checks, count=workload == "cli-cold")
        if not op.refusal:
            metrics[f"cli.{op.name}.cold_s"] = child.wall

    # the in-process CLI pass; on cli-cold it is the workload's own
    census, _ = run.worker("cli-inproc", 0, rounds=1, traced=True)
    tally.correct &= census["correct"] and not census["failed"]
    tally.notes += census["check_failures"] + census["errors"]
    absorb(census)
    for _round, label, t, _scale in census["op_times"]:
        metrics[f"{label}.inproc_s"] = t

    if workload == "cli-cold":
        own = census
        base, _ = run.worker("cli-inproc", 0, rounds=1, traced=False)
        tally.correct &= base["correct"] and not base["failed"]
    else:
        rounds = TRACED_ROUNDS[workload]
        base, _ = run.worker(workload, 0, rounds=rounds, traced=False)
        own, _ = run.worker(workload, 0, rounds=rounds, traced=True)
        tally.add_worker(base)
        tally.add_worker(own)
        absorb(own)
    tally.backend = own["backend"]

    metrics.update(names.layer_metrics(layers, counters))
    metrics["measure.gauss.repeat_share"] = (own["gauss_repeats"] / own["gauss_calls"]
                                             if own["gauss_calls"] else 0.0)
    # the same operations on the same inputs; positive means tracing costs
    metrics["trace.overhead"] = (sum(row[2] for row in own["rounds"])
                                 / sum(row[2] for row in base["rounds"]) - 1.0)
    return metrics


# -- context and output ----------------------------------------------------------

def git_sha(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def versions() -> dict:
    out = {"python": platform.python_version()}
    for pkg in ("numpy", "scipy", "mpmath"):
        try:
            out[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            out[pkg] = "absent"
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir = WORK / f"run-{os.getpid()}-{workload}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    run, tally = Runner(workdir, seed), Tally()
    raw = None
    try:
        if trace:
            values = traced(run, workload, tally)
        elif workload == "cli-cold":
            values, raw = timed_cli_cold(run, seconds, tally)
        else:
            values, raw = timed_in_process(run, workload, seconds, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = names.PER_LAYER if trace else names.END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    context = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
               **versions(), "nproc": os.cpu_count(), "git_sha": git_sha(ROOT),
               "backend": tally.backend, "unscaled": raw}
    return {"context": context, "notes": tally.notes,
            "result": {"correct": tally.correct, "attempted": tally.attempted,
                       "failed": tally.failed, "metrics": metrics}}


def report(out: dict) -> None:
    res, ctx = out["result"], out["context"]
    print(f"== {ctx['workload']} (seed {ctx['seed']}, trace {ctx['trace']}): "
          f"{res['attempted']} attempted, {res['failed']} failed, "
          f"correct={res['correct']}")
    for name, m in res["metrics"].items():
        print(f"  {name:<40} {m['value']:.6g} {m['unit']}")
    for note in out["notes"][:20]:
        print(f"  note: {note}", file=sys.stderr)
    print(json.dumps({"context": ctx}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qmanin" / "__init__.py").is_file():
        print(f"error: no qmanin source tree at {SRC}", file=sys.stderr)
        return 2
    todo = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in todo:
            out = run_workload(name, args.seed, args.seconds, bool(args.trace))
            report(out)
            results.append((name, out["result"]))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[0][1]
    else:
        final = {"correct": all(r["correct"] for _, r in results),
                 "attempted": sum(r["attempted"] for _, r in results),
                 "failed": sum(r["failed"] for _, r in results),
                 "metrics": {f"{n}.{k}": v for n, r in results
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
