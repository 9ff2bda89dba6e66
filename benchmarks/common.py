"""Shared infrastructure for the paper-reproduction benchmarks.

Provides:

- mesh builders at FL/CL/RTL detail (interpreted or SimJIT-compiled);
- the Python-stepped SimJIT traffic harness (the paper's "SimJIT"
  configuration; the product's compiled harness is the all-C
  reference, see DESIGN.md);
- result-table helpers that print the rows each figure reports and
  persist them under ``benchmarks/results/``.
"""

from __future__ import annotations

import os
import sys
import time

from repro.core import SimulationTool
from repro.core.simjit import SimJITCL, SimJITRTL
from repro.net import (
    MeshNetworkStructural,
    NetworkFL,
    NetworkTrafficHarness,
    RouterCL,
    RouterRTL,
)

NMSGS = 256
DATA_NBITS = 32
NENTRIES = 2

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def build_network(level, nrouters):
    """Fresh elaborated network model at the requested level."""
    if level == "fl":
        return NetworkFL(nrouters, NMSGS, DATA_NBITS, NENTRIES).elaborate()
    router = RouterCL if level == "cl" else RouterRTL
    return MeshNetworkStructural(
        router, nrouters, NMSGS, DATA_NBITS, NENTRIES
    ).elaborate()


def specializer_for(level):
    return SimJITCL if level == "cl" else SimJITRTL


def build_jit_network(level, nrouters, cache=True):
    """SimJIT-specialized mesh; returns (wrapper_model, specializer)."""
    net = build_network(level, nrouters)
    spec = specializer_for(level)(net, cache=cache)
    wrapper = spec.specialize().elaborate()
    return wrapper, spec


def python_stepped_harness(wrapper, seed):
    """Traffic harness that steps a SimJIT model from Python each cycle.

    This is the paper's Fig. 14/15 "SimJIT" configuration: compiled
    model, Python test bench.  ``run_uniform_random`` would otherwise
    move the whole loop into the kernel's compiled traffic driver; any
    registered cycle hook keeps it on the Python loop, so a no-op hook
    selects this configuration without changing a simulated bit.
    """
    sim = SimulationTool(wrapper)
    sim.add_cycle_hook(lambda cycle: None)
    return NetworkTrafficHarness(wrapper, sim=sim, seed=seed)


# -- paired order-alternating timing harness ------------------------------------------
#
# One shared implementation of the measurement idiom every overhead
# bench uses (and the insight gate consumes): calibrate the rep length
# until one rep clears the timer floor, then time the two workloads in
# alternating order so slow drift in host CPU speed (thermal /
# frequency scaling) hits both equally — the only honest way to
# resolve a small ratio between them.


class PairedTiming:
    """Result of one paired order-alternating measurement.

    Holds the per-rep times for both workloads (same ``ncycles``
    each), exposes best-of rates, the paired slowdown estimate, and
    ``pair_spread`` — the relative spread of the per-rep slowdown
    ratios, i.e. the *observed* noise floor of this measurement.  The
    regression gate (:mod:`repro.insight.gate`) widens its tolerance
    by a multiple of this recorded spread, so noisy hosts gate
    loosely and quiet hosts gate tightly.
    """

    def __init__(self, ncycles, times_a, times_b):
        self.ncycles = ncycles
        self.times_a = list(times_a)
        self.times_b = list(times_b)

    @property
    def best_a(self):
        return min(self.times_a)

    @property
    def best_b(self):
        return min(self.times_b)

    @property
    def cps_a(self):
        return self.ncycles / self.best_a

    @property
    def cps_b(self):
        return self.ncycles / self.best_b

    @property
    def slowdown(self):
        """Best-of paired slowdown of b relative to a."""
        return self.best_b / self.best_a

    @property
    def pair_spread(self):
        """Relative spread of the per-rep b/a ratios: how much the
        slowdown estimate itself wobbled across reps."""
        ratios = [tb / ta for ta, tb in zip(self.times_a, self.times_b)
                  if ta > 0]
        if len(ratios) < 2:
            return 0.0
        low = min(ratios)
        return (max(ratios) - low) / low if low > 0 else 0.0

    def __iter__(self):
        # Legacy tuple shape: (ncycles, cps_a, cps_b).
        return iter((self.ncycles, self.cps_a, self.cps_b))


def calibrate(fn, min_rep_seconds, start_cycles=64):
    """Grow the rep length until one rep runs at least
    ``min_rep_seconds`` — idle-mesh kernel cycles are sub-microsecond,
    far below timer resolution at fixed small N."""
    ncycles = start_cycles
    while True:
        start = time.process_time()
        fn(ncycles)
        elapsed = time.process_time() - start
        if elapsed >= min_rep_seconds:
            return ncycles, elapsed
        ncycles *= 4


def best_of(fn, reps, min_rep_seconds):
    """Best-of-``reps`` rate for a single workload: (ncycles, cyc/s)."""
    ncycles, first = calibrate(fn, min_rep_seconds)
    best = first
    for _ in range(reps - 1):
        start = time.process_time()
        fn(ncycles)
        best = min(best, time.process_time() - start)
    return ncycles, ncycles / best


def best_of_paired(fn_a, fn_b, reps, min_rep_seconds, warmup_b=False):
    """Time two workloads at the same cycle count with alternating
    reps; returns a :class:`PairedTiming`.

    Which workload goes first swaps every rep: under thermal
    throttling the second slot is systematically slower, and the
    alternation cancels that bias out of the ratio.  ``warmup_b``
    runs ``fn_b`` once at the calibrated length before timing starts
    (``fn_a`` is warm from calibration) — for workloads with one-shot
    transients like buffer growth.
    """
    ncycles, _ = calibrate(fn_a, min_rep_seconds)
    if warmup_b:
        fn_b(ncycles)
    times_a, times_b = [], []
    for rep in range(2 * reps):
        first, second = (fn_a, fn_b) if rep % 2 == 0 else (fn_b, fn_a)
        start = time.process_time()
        first(ncycles)
        mid = time.process_time()
        second(ncycles)
        end = time.process_time()
        t_first, t_second = mid - start, end - mid
        t_a, t_b = ((t_first, t_second) if rep % 2 == 0
                    else (t_second, t_first))
        times_a.append(t_a)
        times_b.append(t_b)
    return PairedTiming(ncycles, times_a, times_b)


# -- reporting -----------------------------------------------------------------------


def write_result(name, text):
    """Persist a result table under benchmarks/results/ and print it."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, name)
    with open(path, "w") as handle:
        handle.write(text + "\n")
    print()
    print(text)
    return path


def git_sha():
    """Short commit sha of the working tree, or "unknown"."""
    import subprocess
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=os.path.dirname(__file__), capture_output=True,
            text=True, timeout=10,
        )
        sha = out.stdout.strip()
        return sha if out.returncode == 0 and sha else "unknown"
    except OSError:
        return "unknown"


def host_fingerprint():
    """Describe the measuring host: cpu budget, arch, interpreter.

    Stamped into every ``repro-bench-v1`` envelope so the regression
    gate can tell a same-host A/B comparison from a cross-machine one
    (absolute rates only transfer within the former).
    """
    import platform
    try:
        cpus = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        cpus = os.cpu_count() or 1
    return {
        "host_cpus": cpus,
        "machine": platform.machine(),
        "platform": sys.platform,
        "python": platform.python_version(),
    }


def write_json_result(name, results, **extra):
    """Persist machine-readable benchmark output as ``BENCH_<name>.json``.

    ``results`` is a list of measurement dicts (design, mode,
    cycles_per_sec, ...).  The ``repro-bench-v1`` envelope stamps the
    schema id, the git sha, and the host fingerprint so numbers stay
    attributable — and gateable (:mod:`repro.insight.gate`) — after
    the fact.
    """
    import json
    payload = {
        "schema": "repro-bench-v1",
        "bench": name,
        "git_sha": git_sha(),
        "host": host_fingerprint(),
        "results": results,
    }
    payload.update(extra)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"BENCH_{name}.json")
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"\n[json] {path}")
    return path


def format_table(title, headers, rows):
    widths = [
        max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows
        else len(str(h))
        for i, h in enumerate(headers)
    ]
    lines = [title, "-" * len(title)]
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    for row in rows:
        lines.append(
            "  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
