"""Self-tests of the benchmark harness.

    python3 -m unittest discover -s bench -p "test_*.py"

They cover the span arithmetic of the tracer, that the known-defect excuse
covers only a harmonicity residual between tol and the ceiling, that tracing
leaves op outputs unchanged and repeats its counts exactly, and that a seed
held out from tuning passes every check.  The last two start worker
processes and take about two minutes.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from spans import Tracer  # noqa: E402

sys.path.insert(0, run.SRC)

HELD_OUT_SEED = 9001


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class SpanArithmetic(unittest.TestCase):
    def test_nested_self_times_and_counts(self):
        clock = FakeClock()
        tr = Tracer(clock=clock)
        probe = tr.probe(lambda: None)

        def leaf():
            clock.advance(2.0)
            probe()

        def middle():
            clock.advance(0.5)
            leaf_span()
            clock.advance(0.25)

        def top():
            clock.advance(1.0)
            middle_span()
            clock.advance(3.0)
            leaf_span()
            probe()

        leaf_span = tr.wrap("low", "low.leaf", leaf)
        middle_span = tr.wrap("mid", "mid.middle", middle)
        top_span = tr.wrap("high", "high.top", top)
        top_span()
        probe()  # outside any span: not counted

        self.assertEqual(dict(tr.calls), {"low.leaf": 2, "mid.middle": 1, "high.top": 1})
        self.assertEqual(tr.self_s["low"], 4.0)
        self.assertEqual(tr.self_s["mid"], 0.75)
        self.assertEqual(tr.self_s["high"], 4.0)
        self.assertEqual(tr.self_s["high.top"], 4.0)
        self.assertEqual(dict(tr.linalg), {"low": 2, "high": 1})
        self.assertEqual(tr.stack, [])

    def test_exception_closes_the_span(self):
        clock = FakeClock()
        tr = Tracer(clock=clock)

        def boom():
            clock.advance(1.0)
            raise ValueError("x")

        span = tr.wrap("low", "low.boom", boom)
        with self.assertRaises(ValueError):
            span()
        self.assertEqual(tr.calls["low.boom"], 1)
        self.assertEqual(tr.self_s["low"], 1.0)
        self.assertEqual(tr.stack, [])

    def test_instrument_rebinds_every_namespace_and_restores(self):
        import numpy
        import unitons
        import unitons.cli as cli
        import unitons.factorization as factorization
        import unitons.scalars as scalars
        import unitons.verify as verify

        original = factorization.harmonic_map_at
        original_add = scalars.RatFun.__dict__["__add__"]
        tr = Tracer()
        tr.instrument(unitons, numpy.linalg)
        try:
            self.assertIsNot(verify.harmonic_map_at, original)
            self.assertIs(verify.harmonic_map_at, factorization.harmonic_map_at)
            self.assertIs(cli.unitarize, factorization.unitarize)
            self.assertIs(unitons.harmonic_map_at, factorization.harmonic_map_at)
            spec = unitons.veronese_solution(2)
            verify.harmonicity_residual(verify.map_sampler(spec), [0.1 + 0.2j])
        finally:
            tr.restore()
        self.assertIs(verify.harmonic_map_at, original)
        self.assertIs(scalars.RatFun.__dict__["__add__"], original_add)
        self.assertEqual(tr.calls["factorization.harmonic_map_at"], 13)
        self.assertEqual(tr.calls["verify.harmonicity_residual"], 1)
        self.assertGreater(tr.linalg["factorization"], 0)
        self.assertGreater(tr.linalg["verify"], 0)


class KnownDefect(unittest.TestCase):
    """Only a residual above tol and up to the ceiling is excused."""

    def test_only_the_step_error_verdict_is_excused(self):
        from worker import check_outputs
        from workloads import DEFECT_CEILING, VERIFY_TOL, Op

        def op(label, known):
            def check(text, peers):
                return None if float(text) <= VERIFY_TOL else "residual above tol"

            def step_error(text):
                return float(text) <= DEFECT_CEILING

            return Op(label, None, check, step_error if known else None)

        ops = [op("known", True), op("other", False)]
        small, big = repr(VERIFY_TOL * 10), repr(DEFECT_CEILING * 10)
        cases = {
            "excused": ([small, "0.0", small, "0.0"], 2, []),
            "above the ceiling": ([big, "0.0"], 1, ["known"]),
            "nan": (["nan", "0.0"], 1, ["known"]),
            "raised": ([("raised", "ValueError: x"), "0.0"], 1, ["known"]),
            "changed output": ([small, "0.0", repr(VERIFY_TOL * 20), "0.0"], 2, ["known"]),
            "unreadable output": (["text", "0.0"], 1, ["known"]),
            "other op": (["0.0", small], 1, ["other"]),
        }
        for name, (outputs, failed, labels) in cases.items():
            with self.subTest(name):
                got_failed, unexpected = check_outputs(ops, outputs)
                self.assertEqual(got_failed, failed)
                self.assertEqual([m.split(":")[0] for m in unexpected], labels)


def worker(workload, seed, trace, workdir):
    """One worker run of a single cycle (--seconds 0)."""
    return run.run_child(workload, seed, 0, trace, workdir, time.monotonic() + 170)


class WorkerRuns(unittest.TestCase):
    def setUp(self):
        scratch = os.path.join(run.ROOT, ".bench_run")
        os.makedirs(scratch, exist_ok=True)
        self.workdir = tempfile.mkdtemp(prefix="test-", dir=scratch)

    def tearDown(self):
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.workdir))
        except OSError:  # another run still uses it
            pass

    def test_tracing_leaves_outputs_unchanged_and_counts_repeat(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                plain = worker(workload, run.DEFAULT_SEED, 0, self.workdir)
                traced = worker(workload, run.DEFAULT_SEED, 1, self.workdir)
                again = worker(workload, run.DEFAULT_SEED, 1, self.workdir)
                # every traced output equals the untraced first-cycle output of its op
                self.assertEqual(traced["unexpected"], [])
                self.assertEqual(traced["cycle_digest"], plain["cycle_digest"])
                self.assertEqual(traced["failed"] / traced["attempted"],
                                 plain["failed"] / plain["attempted"])
                counts = {k: v["value"] for k, v in traced["metrics"].items()
                          if v["unit"] in ("1/op", "B/op")}
                again_counts = {k: v["value"] for k, v in again["metrics"].items()
                                if v["unit"] in ("1/op", "B/op")}
                self.assertEqual(counts, again_counts)

    def test_held_out_seed_passes_every_check(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                res = worker(workload, HELD_OUT_SEED, 0, self.workdir)
                self.assertEqual(res["unexpected"], [])
                self.assertGreaterEqual(res["attempted"], res["cycle_ops"])


if __name__ == "__main__":
    unittest.main()
