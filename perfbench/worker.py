"""One interpreter of an in-process workload.

    python perfbench/worker.py SPEC.json

SPEC names the workload, seed, worker index, and either a timed budget
(``budget``: run whole rounds for about that many seconds) or a fixed
amount of work (``rounds``, with the tracer installed when ``traced``).
The worker imports qmanin, generates its inputs, runs one checked warm-up
operation, notes the monotonic time of its first timed operation, runs,
and writes its result JSON to ``SPEC["out"]``.

Between operations, at most every ``calibrate.EVERY_S``, it times the
calibration kernel; each operation's scale is the reference time over the
mean of the calibrations just before and just after it.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import calibrate


class Recorder:
    """Operations attempted, their times and checks, and the calibrations
    taken between them."""

    def __init__(self, calibrating: bool):
        self.calibrating = calibrating
        self.cals = []
        self._last_cal = -float("inf")
        self.entries = []        # [round, label, seconds, calibration index, ok]
        self.failed = 0
        self.errors = []
        self.check_failures = []

    def calibrate_if_due(self) -> None:
        if self.calibrating and time.perf_counter() - self._last_cal >= calibrate.EVERY_S:
            self.cals.append(calibrate.measure())
            self._last_cal = time.perf_counter()

    def run_round(self, ops, r, tracer=None) -> None:
        """Run one round in order.  Checks and calibrations run untimed and
        untraced."""
        for i, (label, run, check) in enumerate(ops):
            self.calibrate_if_due()
            if tracer is not None:
                tracer.op = f"r{r}:{i}"
                span = tracer.open(f"op.{label}")
            t0 = time.perf_counter()
            try:
                out, error = run(), None
            except Exception as exc:     # an operation that raises is a failed one
                out, error = None, repr(exc)
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.close(span)
                tracer.active = False
            self.entries.append([r, label, dt, len(self.cals) - 1, error is None])
            if error is not None:
                self.failed += 1
                self.errors.append(f"{label}: {error}")
            else:
                for chk in check(out):
                    if not chk.ok:
                        self.check_failures.append(f"{label}: {chk.what} "
                                                   f"(worst {chk.worst:.3e})")
            if tracer is not None:
                tracer.active = True

    def summary(self) -> dict:
        """Completed operations as ``[round, label, seconds, scale]``, and
        per-round totals ``[completed, seconds, scaled seconds]`` (failed
        operations count in the seconds)."""
        if self.calibrating:
            self.cals.append(calibrate.measure())

        def scale(idx):
            return calibrate.scale(self.cals, idx, calibrate.REFERENCE_S) if self.cals else 1.0

        rounds, op_times = {}, []
        for r, label, dt, idx, ok in self.entries:
            s = scale(idx)
            row = rounds.setdefault(r, [0, 0.0, 0.0])
            row[0] += ok
            row[1] += dt
            row[2] += dt * s
            if ok:
                op_times.append([r, label, dt, s])
        return {"attempted": len(self.entries), "failed": self.failed,
                "correct": not self.check_failures, "errors": self.errors,
                "check_failures": self.check_failures, "op_times": op_times,
                "rounds": list(rounds.values()), "setup_scale": scale(0)}


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    import qmanin
    import workloads
    from tracing import Tracer, aggregate

    workdir = Path(spec["workdir"])
    wl = workloads.WORKLOADS[spec["workload"]](spec["seed"], spec["index"], workdir)
    warm = Recorder(calibrating=False)
    warm.run_round(wl.warmup(), -1)
    ready = time.monotonic()
    rec = Recorder(calibrating=True)
    extra = {}

    if "budget" in spec:
        start, r = time.monotonic(), 0
        while True:
            t0 = time.monotonic()
            rec.run_round(wl.round(r), r)
            r += 1
            elapsed, last = time.monotonic() - start, time.monotonic() - t0
            if getattr(wl, "ONE_ROUND", False) or elapsed >= spec["budget"] - 0.5 * last:
                break
    elif not spec["traced"]:
        wl.prepare()
        for r in range(spec["rounds"]):
            rec.run_round(wl.round(r), r)
    else:
        tracer = Tracer()
        tracer.install()
        try:
            wl.prepare()
            for r in range(spec["rounds"]):
                rec.run_round(wl.round(r), r, tracer)
        finally:
            tracer.uninstall()
        extra = {"layers": aggregate(tracer.spans), "counters": dict(tracer.counters),
                 "gauss_calls": tracer.gauss_calls, "gauss_repeats": tracer.gauss_repeats}
        Path(spec["spans_out"]).write_text(json.dumps(tracer.spans))

    result = rec.summary()
    result.update(extra, ready=ready, backend=qmanin.backend_name())
    result["correct"] &= not (warm.failed or warm.check_failures)
    result["check_failures"] += warm.errors + warm.check_failures
    Path(spec["out"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
