"""Benchmark of `unitons`: one seeded workload per invocation.

    python3 bench/run.py --workload harmonic-grid --seed 31 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`, so nothing needs installing beyond numpy.  Workloads (see
`workloads.py` and NOTES.md): harmonic-grid, map-flow-factor, exact-cells.

Each workload runs in fresh child processes (`worker.py`) with BLAS pinned
to one thread, as one closed-loop client.  With `--trace 0` three children
set up (the median of their set-up times is `setup_s`) and the last one
also runs the timed phase; the end-to-end metrics are printed.  With
`--trace 1` one child runs untraced then traced and the per-layer metrics
are printed.  Human-readable lines come first; the last stdout line is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("harmonic-grid", "map-flow-factor", "exact-cells")
DEFAULT_SEED = 31
SETUP_REPEATS = 3
# the worker processes of one invocation get DEADLINE_S plus
# DEADLINE_PER_S times --seconds, all together; 160 s at --seconds 25
DEADLINE_S = 60
DEADLINE_PER_S = 4
# one BLAS thread per process, whatever the library
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


def git_sha(root):
    """HEAD commit read from .git without running git; "unknown" outside a clone."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


class WorkerError(Exception):
    """A worker process failed or ran past the deadline."""


def run_child(workload, seed, seconds, trace, workdir, deadline, setup_only=False):
    """Run one worker process to completion; its parsed last stdout line.

    `deadline` is a time.monotonic() value; a worker still running then is
    killed and WorkerError raised.
    """
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1", **BLAS_ENV)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", workdir, "--src", SRC, "--launched-at", repr(time.time())]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerError("worker ran past the deadline and was stopped") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(args):
    deadline = time.monotonic() + DEADLINE_S + DEADLINE_PER_S * args.seconds
    workdir = os.path.join(ROOT, ".bench_run", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    child = (args.workload, args.seed, args.seconds, args.trace, workdir, deadline)
    try:
        if args.trace:
            return run_child(*child), None
        setups = [run_child(*child, setup_only=True) for _ in range(SETUP_REPEATS - 1)]
        res = run_child(*child)
        setups.append(res)
        return res, setups
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "unitons", "__init__.py")):
        sys.stderr.write(f"error: no unitons package under {SRC}\n")
        return 2

    try:
        res, setups = measure(args)
    except WorkerError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    metrics = res["metrics"]
    if setups is not None:
        res["raw"]["setup_raw_s"] = {
            "value": statistics.median(r["setup_raw_s"] for r in setups), "unit": "s"}
        metrics["setup_s"] = {
            "value": statistics.median(r["setup_s"] for r in setups), "unit": "s"}
        metrics["peak_rss_mb"] = {"value": res["peak_rss_mb"], "unit": "MB"}

    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(ROOT),
        "python": platform.python_version(), "numpy": res["numpy"],
        "nproc": os.cpu_count(), "blas_threads": BLAS_ENV["OPENBLAS_NUM_THREADS"],
        "cycle_ops": res["cycle_ops"], "timed_ops": res["timed_ops"],
        "timed_wall_s": res["timed_wall_s"], "cycle_digest": res["cycle_digest"],
        "setup_runs_s": setups and [r["setup_s"] for r in setups],
        "known_defect_ops": res["known_defect_ops"],
    }
    print("provenance " + json.dumps(provenance))
    attempted, failed = res["attempted"], res["failed"]
    print(f"fail_ratio {failed / attempted:.6g} ({failed} of {attempted} ops failed; "
          f"{len(res['unexpected'])} outside the known defect)")
    for msg in res["unexpected"][:20]:
        print(f"unexpected failure: {msg}")
    for name, m in {**res.get("raw", {}), **metrics}.items():
        count = f" over {res['timed_ops']} ops" if name.startswith("op_") else ""
        print(f"{name} {m['value']:.6g} {m['unit']}{count}")
    print(json.dumps({
        "correct": not res["unexpected"],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
