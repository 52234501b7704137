"""One workload in one fresh process; `run.py` starts it.

Set-up (import, input generation, JSON files, sampler assembly and an
untimed warm-up call of each kind of op) runs first.  Then whole cycles of
ops repeat, one op after the other from a single client, until `--seconds`
have passed.  Each op is followed by a calibration slice that measures the
host's speed at that moment.  With `--trace 1` the first third of that time
runs untraced and the rest traced, which gives the tracing overhead.  Checks
run after the timed phase, on every op's output.  The last stdout line is
one JSON object for `run.py`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
# slices on each side of an op that calibrate it
CAL_WINDOW = 2
# slices run around set-up to calibrate it, and the slice time of the
# reference host that setup_s is scaled to (the median on the 2-CPU host
# this benchmark was sized on)
SETUP_SLICES = 10
CAL_REF_S = 1.4e-3
# a timed phase runs at least this many ops, so that ten lie beyond p90
MIN_OPS = 100


def calibration_kernel():
    """A fixed slice of work shaped like the program's: Fraction arithmetic
    as in the exact lane, then small numpy.linalg calls as in the numeric
    lane.  It takes 1 to 2 ms; its duration next to each op measures the
    host's speed at that moment."""
    import numpy as np

    a = np.eye(4) + 0.1 * np.ones((4, 4))

    def run():
        t0 = time.perf_counter()
        acc = Fraction(0)
        for k in range(1, 150):
            acc += Fraction(1, k)
        for _ in range(150):
            np.linalg.solve(a, a)
        return time.perf_counter() - t0

    return run


class Timed:
    """One timed phase: op wall times, outputs, and the calibration slice
    time measured right after each op."""

    def __init__(self):
        self.times, self.outputs, self.slices = [], [], []
        self.wall = 0.0

    def scaled(self):
        """Op times in units of the mean slice time of the five slices
        around the op (its own and two on each side): host speed moves
        within seconds, so the nearest slices track it best."""
        s = self.slices
        return [t / statistics.fmean(s[max(0, k - CAL_WINDOW):k + CAL_WINDOW + 1])
                for k, t in enumerate(self.times)]


def run_cycles(ops, seconds, calibrate, min_ops=0):
    """Whole cycles of ops, each op followed by a calibration slice, until
    `seconds` have passed and at least `min_ops` ops have run."""
    clock = time.perf_counter
    phase = Timed()
    start = clock()
    while True:
        for op in ops:
            t0 = clock()
            try:
                out = op.run()
            except Exception as exc:  # an op that raises is a failed op
                out = ("raised", f"{type(exc).__name__}: {exc}")
            phase.times.append(clock() - t0)
            phase.outputs.append(out)
            phase.slices.append(calibrate())
        if clock() - start >= seconds and len(phase.times) >= min_ops:
            phase.wall = clock() - start
            return phase


def verdict(op, out, peers):
    """(reason or None, whether the failure is the op's known defect)."""
    try:
        why = op.check(out, peers)
        known = why is not None and op.known_defect is not None and op.known_defect(out)
    except Exception as exc:  # output the check cannot read
        return f"check raised {type(exc).__name__}: {exc}", False
    return why, known


def check_outputs(ops, outputs):
    """Check every output; returns (failed, unexpected failure messages).

    An output must also equal the first-cycle output of the same op, since
    every cycle runs identical inputs through a deterministic program.  Only
    a failed check that the op's `known_defect` excuses is left out of the
    unexpected failures; an exception or a changed output never is.
    """
    reference = outputs[:len(ops)]
    peers = {op.label: out for op, out in zip(ops, reference)}
    verdicts = {}
    failed, unexpected = 0, []
    for k, out in enumerate(outputs):
        i = k % len(ops)
        op = ops[i]
        known = False
        if isinstance(out, tuple):
            why = f"raised {out[1]}"
        elif out != reference[i]:
            why = "output differs from the first cycle"
        else:
            if i not in verdicts:
                verdicts[i] = verdict(op, out, peers)
            why, known = verdicts[i]
        if why is not None:
            failed += 1
            if not known:
                unexpected.append(f"{op.label}: {why}")
    return failed, unexpected


def quantile_summary(times):
    q = statistics.quantiles(times, n=10)
    return statistics.median(times), q[8]


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--src", required=True)
    p.add_argument("--launched-at", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    calibrate = calibration_kernel()
    slices = [calibrate() for _ in range(SETUP_SLICES)]
    sys.path.insert(0, args.src)
    sys.path.insert(0, HERE)
    import numpy
    import unitons

    import workloads

    ops = workloads.build_ops(args.workload, args.seed, args.workdir)
    # warm-up: the first op of each kind (map, flow, cell, ...)
    for op in {op.label.split("/")[0]: op for op in reversed(ops)}.values():
        op.run()
    raw_setup = time.time() - args.launched_at - sum(slices)
    slices += [calibrate() for _ in range(SETUP_SLICES)]
    result = {
        "setup_raw_s": raw_setup,
        "setup_s": raw_setup * CAL_REF_S / statistics.fmean(slices),
        "cycle_ops": len(ops),
    }
    if args.setup_only:
        print(json.dumps(result))
        return 0

    if args.trace:
        from spans import Tracer, per_layer_metrics

        plain = run_cycles(ops, args.seconds / 3, calibrate)
        tracer = Tracer()
        tracer.instrument(unitons, numpy.linalg)
        try:
            phase = run_cycles(ops, args.seconds * 2 / 3, calibrate)
        finally:
            tracer.restore()
        overhead = statistics.fmean(phase.scaled()) / statistics.fmean(plain.scaled())
        result["metrics"] = per_layer_metrics(tracer, len(phase.times), overhead)
        all_out = plain.outputs + phase.outputs
    else:
        # --seconds 0 runs a single cycle, which the self-tests use
        phase = run_cycles(ops, args.seconds, calibrate, MIN_OPS if args.seconds > 0 else 0)
        scaled = phase.scaled()
        p50, p90 = quantile_summary(scaled)
        result["metrics"] = {
            "op_cal.p50": {"value": p50, "unit": "cal"},
            "op_cal.p90": {"value": p90, "unit": "cal"},
            "ops_per_cal": {"value": len(scaled) / sum(scaled), "unit": "1/cal"},
        }
        raw50, raw90 = quantile_summary(phase.times)
        result["raw"] = {
            "op_s.p50": {"value": raw50, "unit": "s"},
            "op_s.p90": {"value": raw90, "unit": "s"},
            "ops_per_s": {"value": len(phase.times) / sum(phase.times), "unit": "1/s"},
            "cal_s": {"value": statistics.fmean(phase.slices), "unit": "s"},
        }
        all_out = phase.outputs

    failed, unexpected = check_outputs(ops, all_out)
    result.update(
        attempted=len(all_out),
        failed=failed,
        unexpected=unexpected,
        known_defect_ops=sorted({op.label for op in ops if op.known_defect is not None}),
        timed_ops=len(phase.times),
        timed_wall_s=phase.wall,
        cycle_digest=workloads.digest(map(str, all_out[-len(ops):])),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        numpy=numpy.__version__,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
