#!/usr/bin/env python3
"""Repository benchmark: the simulation pipeline, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload mesh64-rtl-jit-warm --seed 1 \\
        --seconds 10 --trace 0

Each run repeats one job (build, set up, run, check) of the chosen
workload until ``--seconds`` of jobs have run, and at least
``MIN_JOBS`` times, then reports medians over the jobs.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced jobs and reports the per-layer metrics
plus the tracing overhead.  Human-readable lines come first; the last
line of standard output is one JSON object.  ``README.md`` beside this
file defines every metric and workload.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import traceback
from statistics import median
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")

MIN_JOBS = 3          # untraced jobs per run (trace 0)
MIN_PAIRS = 2         # untraced + traced job pairs per run (trace 1)

# name -> (job kind, design size, measured cycles, .so cache policy).
# Smoke sizes keep the benchmark's own tests short.
WORKLOADS = {
    "mesh64-rtl-jit-warm": ("mesh", 64, 6000, "warm"),
    "mesh64-rtl-jit-cold": ("mesh", 64, 2000, "cold"),
    "tile-rtl-interp": ("tile", (32, 64), None, None),
}
SMOKE = {
    "mesh64-rtl-jit-warm": ("mesh", 16, 300, "warm"),
    "mesh64-rtl-jit-cold": ("mesh", 16, 300, "cold"),
    "tile-rtl-interp": ("tile", (2, 8), None, None),
}
REFERENCE_CYCLES = 100    # traffic cycles checked against the interpreter

# Layer self times that, with unaccounted_s, make up setup + run.
SELF_TIMES = (
    "core.elaboration.s", "core.simulation.init_s",
    "core.simulation.reset_s", "core.simulation.cycle_s",
    "simjit.lower_s", "simjit.cgen_s", "simjit.gcc_s", "simjit.load_s",
    "simjit.engine_s", "net.traffic.self_s", "unaccounted_s",
)


def declared_units(kind):
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics
    that BENCHMARK.json declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny design sizes (the benchmark's own tests)")
    return parser.parse_args(argv)


def host_fingerprint():
    """nproc, Python, gcc and commit of the measuring host."""
    def first_line(cmd):
        env = dict(os.environ,
                   GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        try:
            out = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                                 text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return "unknown"
        lines = out.stdout.splitlines()
        return lines[0] if out.returncode == 0 and lines else "unknown"

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "gcc": first_line(["gcc", "--version"]),
        "git_sha": first_line(["git", "rev-parse", "--short", "HEAD"]),
    }


class Run:
    """Drives the jobs of one benchmark run and checks their outputs."""

    def __init__(self, pipeline, workload, seed, smoke):
        self.p = pipeline
        self.kind, self.size, self.ncycles, self.cache = (
            SMOKE if smoke else WORKLOADS)[workload]
        self.seed = seed
        self.last = None            # (wrapper, sim) of the last mesh job
        self.expected_stats = None
        self.cold_jobs = 0

    def prepare(self):
        """Point the ``.so`` cache at a private directory; for the warm
        workload, build the design into it once, untimed."""
        os.environ.pop("REPRO_SIMJIT_CACHE", None)
        os.environ["SIMJIT_CACHE_DIR"] = os.path.join(WORK, "simjit-warm")
        if self.cache == "warm":
            self.p.specialize_mesh(self.size)

    def job(self, layers):
        self.last = None            # free the previous job's design
        gc.collect()                # ... before the timed region starts
        if self.kind == "tile":
            rows, cols = self.size
            result = self.p.tile_job(rows, cols, self.seed, layers)
        elif self.cache == "warm":
            result, *self.last = self.p.mesh_job(
                self.size, self.ncycles, self.seed, True, layers)
        else:
            cache_dir = os.path.join(
                WORK, f"simjit-cold-{os.getpid()}-{self.cold_jobs}")
            self.cold_jobs += 1
            shutil.rmtree(cache_dir, ignore_errors=True)
            os.environ["SIMJIT_CACHE_DIR"] = cache_dir
            try:
                result, *self.last = self.p.mesh_job(
                    self.size, self.ncycles, self.seed, False, layers)
            finally:
                shutil.rmtree(cache_dir, ignore_errors=True)
        # The same seed must reproduce the same simulated statistics.
        if self.expected_stats is None:
            self.expected_stats = result.stats
        elif result.stats != self.expected_stats:
            result.failed = result.ops
        return result

    def reference_ok(self):
        """Outputs against the interpreted static simulator (mesh); the
        tile's outputs are checked in every job against mvmult_data."""
        if self.kind == "tile":
            return True
        if self.last is None:
            return False
        wrapper, sim = self.last
        try:
            return self.p.mesh_reference_ok(
                self.size, REFERENCE_CYCLES, self.seed, wrapper, sim)
        except Exception:           # a program error fails the check
            traceback.print_exc()
            return False


def run_jobs(run, seconds, trace):
    """Untraced jobs (and traced ones when ``trace``) until ``seconds``
    of jobs have run and the minimum count is met."""
    untraced, traced, crashed = [], [], 0
    start = perf_counter()
    while True:
        for layers in ((None, run.p.Layers()) if trace else (None,)):
            try:
                result = run.job(layers)
            except Exception:       # a program error fails the job
                traceback.print_exc()
                crashed += 1
                continue
            (untraced if layers is None else traced).append(result)
        done = len(traced) if trace else len(untraced) + crashed
        if (done >= (MIN_PAIRS if trace else MIN_JOBS)
                and perf_counter() - start >= seconds) or crashed >= 3:
            return untraced, traced, crashed


def end_to_end(untraced):
    return {
        "setup_s": median([r.setup_s for r in untraced]),
        "sim_cps": median([r.sim_cps for r in untraced]),
        "time_to_result_s": median([r.total_s for r in untraced]),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(untraced, traced, names):
    values = dict.fromkeys(names, 0)
    for name in traced[0].layers:
        values[name] = median([r.layers[name] for r in traced])
    stats = traced[0].stats
    values["sim.cycles"] = stats[0]
    if len(stats) > 1:
        (values["net.injected"], values["net.ejected"],
         values["net.latency_sum"]) = stats[1:]
    values["trace.overhead.setup_s"] = (
        median([r.setup_s for r in traced])
        - median([r.setup_s for r in untraced]))
    values["trace.overhead.sim_cps"] = (
        median([r.sim_cps for r in traced])
        - median([r.sim_cps for r in untraced]))
    return values


def check_accounting(traced):
    """Layer self times plus unaccounted_s must make up setup + run."""
    for r in traced:
        covered = sum(r.layers[name] for name in SELF_TIMES
                      if name in r.layers)
        wall = r.setup_s + r.run_s
        if abs(covered - wall) > 1e-3 + 1e-3 * wall:
            raise RuntimeError(
                f"layer times cover {covered:.4f}s of {wall:.4f}s")


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    # gcc and tempfile put scratch files under TMPDIR: keep them in the
    # checkout, like the .so caches.
    os.makedirs(os.path.join(WORK, "tmp"), exist_ok=True)
    os.environ["TMPDIR"] = os.path.join(WORK, "tmp")
    sys.path.insert(0, SRC)
    import pipeline

    run = Run(pipeline, args.workload, args.seed, args.smoke)
    run.prepare()
    untraced, traced, crashed = run_jobs(run, args.seconds, args.trace)
    if not untraced or (args.trace and not traced):
        print("perfbench: every job failed", file=sys.stderr)
        return 1
    if args.trace:
        check_accounting(traced)
    jobs = untraced + traced
    attempted = sum(r.ops for r in jobs) + crashed
    failed = sum(r.failed for r in jobs) + crashed
    gc.collect()
    if not run.reference_ok():
        failed = attempted

    if args.trace:
        units = declared_units("per_layer")
        metrics = per_layer(untraced, traced, units)
    else:
        units = declared_units("end_to_end")
        metrics = end_to_end(untraced)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} "
                           "differ from BENCHMARK.json")
    print(f"host {json.dumps(host_fingerprint(), sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed} jobs "
          f"{len(untraced)} untraced, {len(traced)} traced")
    for i, r in enumerate(jobs):
        print(f"  job {i} {'traced' if r.layers else 'untraced'}: setup_s "
              f"{r.setup_s:.4f} sim_cps {r.sim_cps:.1f} time_to_result_s "
              f"{r.total_s:.4f} failed {r.failed}/{r.ops}")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.6g} {units[name]}")
    print(f"  {'error_rate':32s} {failed / attempted:14.6g} ratio")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
