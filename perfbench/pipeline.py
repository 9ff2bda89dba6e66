"""One benchmark job per workload, timed from outside the program.

A job is what a user does once: build the design, set it up, run it,
and check the result.  Every layer is timed around calls into its
public functions; nothing inside ``src/`` is edited or wrapped at
import time.  When tracing is off only four wall-clock marks are
taken per job (start, setup done, run done, check done); when it is on,
:class:`Layers` wraps the layer entry points of this one job's
objects and accumulates inclusive and self times.
"""

from __future__ import annotations

import resource
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from time import perf_counter

from repro import SimulationTool
from repro.accel import Tile, mvmult_data, mvmult_xcel
from repro.accel.kernels import Y_BASE
from repro.core.simjit import SimJITRTL
from repro.net import MeshNetworkStructural, NetworkTrafficHarness, RouterRTL
from repro.proc import assemble

# Mesh geometry of the paper's Fig. 14 network (256-entry sequence
# space, 32-bit payload, 2-entry router queues).
NMSGS, DATA_NBITS, NENTRIES = 256, 32, 2
RATE = 0.30          # uniform-random injection, near saturation (Fig. 14)
DRAIN = 2000         # upper bound on drain cycles; every packet must arrive
TILE_MAX_CYCLES = 2_000_000

# engine.lib entry points the Python<->C crossing count covers.
COUNTED_CALLS = ("set_net", "get_nets", "eval_comb", "cycle")


class Layers:
    """Inclusive and self wall time per layer for one traced job.

    Spans nest: time spent in a span opened inside another is
    subtracted from the outer span's self time, so self times add up
    to the root span's inclusive time.
    """

    def __init__(self):
        self.total = defaultdict(float)
        self.nested = defaultdict(float)
        self.calls = Counter()
        self._stack = []

    @contextmanager
    def span(self, name):
        self._stack.append(name)
        start = perf_counter()
        try:
            yield
        finally:
            elapsed = perf_counter() - start
            self._stack.pop()
            self.total[name] += elapsed
            if self._stack:
                self.nested[self._stack[-1]] += elapsed

    def self_s(self, name):
        return self.total[name] - self.nested[name]

    def wrap(self, obj, attr, name):
        """Time every call of ``obj.attr`` (an instance attribute
        shadowing the method, so only this object is affected)."""
        func = getattr(obj, attr)
        span = self.span

        def timed(*args, **kwargs):
            with span(name):
                return func(*args, **kwargs)

        setattr(obj, attr, timed)


class _CountingLib:
    """Proxy for a SimJIT engine's cffi library that counts calls to
    the Python<->C crossing entry points."""

    def __init__(self, lib, calls):
        self._lib = lib
        self._calls = calls

    def __getattr__(self, name):
        func = getattr(self._lib, name)
        if name not in COUNTED_CALLS:
            return func
        calls = self._calls

        def counted(*args):
            calls[name] += 1
            return func(*args)

        return counted


@dataclass
class JobResult:
    """Measurements and outcome of one job."""

    setup_s: float
    run_s: float
    total_s: float            # setup + run + output check
    cycles: int               # simulated cycles of the measured run
    ops: int                  # operations attempted (packets or kernel runs)
    failed: int               # operations whose output was wrong
    stats: tuple              # simulated statistics; must repeat per seed
    layers: dict = field(default_factory=dict)   # traced jobs only

    @property
    def sim_cps(self):
        return self.cycles / self.run_s


def _span(layers, name):
    return layers.span(name) if layers is not None else nullcontext()


def _setup_sim(model, layers, **kwargs):
    with _span(layers, "core.simulation.init"):
        sim = SimulationTool(model, **kwargs)
    if layers is not None:
        layers.wrap(sim, "reset", "core.simulation.reset")
        layers.wrap(sim, "cycle", "core.simulation.cycle")
    sim.reset()
    return sim


# -- mesh -------------------------------------------------------------------


def build_mesh(nrouters):
    return MeshNetworkStructural(RouterRTL, nrouters, NMSGS, DATA_NBITS,
                                 NENTRIES)


def specialize_mesh(nrouters):
    """Build the mesh into the current ``.so`` cache (warm-up only)."""
    return SimJITRTL(build_mesh(nrouters).elaborate()).specialize()


def traffic(wrapper, sim, seed, ncycles):
    """Closed-loop uniform-random traffic; returns the harness stats."""
    harness = NetworkTrafficHarness(wrapper, sim=sim, seed=seed)
    return harness.run_uniform_random(RATE, ncycles, drain=DRAIN)


def stats_key(stats):
    return (stats.injected, stats.ejected, sum(stats.latencies))


def mesh_job(nrouters, ncycles, seed, expect_hit, layers=None):
    """Elaborate, specialize with SimJIT-RTL, reset, drive traffic.

    Returns ``(JobResult, wrapper, sim)``; the caller keeps the last
    simulator for the reference check.  The ``.so`` cache directory is
    whatever ``SIMJIT_CACHE_DIR`` names when the job runs.
    """
    start = perf_counter()
    with _span(layers, "job"):
        with _span(layers, "core.elaboration"):
            net = build_mesh(nrouters).elaborate()
        spec = SimJITRTL(net)
        with _span(layers, "simjit.specialize"):
            wrapper = spec.specialize()
        engine = wrapper.jit_engine
        if layers is not None:
            engine.lib = _CountingLib(engine.lib, layers.calls)
            layers.wrap(engine, "tick", "simjit.engine")
            layers.wrap(engine, "eval_comb", "simjit.engine")
        with _span(layers, "core.elaboration"):
            wrapper.elaborate()
        sim = _setup_sim(wrapper, layers)
        setup_done = perf_counter()
        if layers is not None:
            layers.calls.clear()
        first_cycle = sim.ncycles
        with _span(layers, "net.traffic"):
            stats = traffic(wrapper, sim, seed, ncycles)
        run_done = perf_counter()
    cycles = sim.ncycles - first_cycle

    hit = bool(spec.overheads.get("cache_hit"))
    failed = stats.injected - stats.ejected
    if hit != expect_hit or len(stats.latencies) != stats.ejected:
        failed = stats.injected
    result = JobResult(
        setup_s=setup_done - start,
        run_s=run_done - setup_done,
        total_s=perf_counter() - start,
        cycles=cycles,
        ops=stats.injected,
        failed=failed,
        stats=(cycles,) + stats_key(stats),
    )
    if layers is not None:
        result.layers = _mesh_layers(layers, net, spec, sim, cycles, hit)
    return result, wrapper, sim


def _mesh_layers(layers, net, spec, sim, cycles, hit):
    ovh = spec.overheads
    phases = {
        "simjit.lower_s": ovh["veri"],
        "simjit.cgen_s": ovh["cgen"],
        "simjit.gcc_s": ovh["comp"],
        "simjit.load_s": ovh["wrap"] + ovh["simc"],
    }
    source = spec.c_source
    values = _common_layers(layers, net, sim)
    # specialize() time outside the four phases it records (slot
    # numbering, wrapper bookkeeping) belongs to no reported layer.
    values["unaccounted_s"] += (layers.self_s("simjit.specialize")
                                - sum(phases.values()))
    values.update(phases)
    values.update({
        "simjit.engine_s": layers.self_s("simjit.engine"),
        "simjit.cache_hit": int(hit),
        "simjit.c_lines": source.count("\n") + 1,
        "simjit.c_bytes": len(source.encode()),
        # RUSAGE_CHILDREN is the largest child the process has waited
        # for, so it is gcc's peak only on a job that compiled.
        "simjit.gcc_peak_rss_mb": 0.0 if hit else resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "simjit.c_calls_per_cycle": sum(layers.calls.values()) / cycles,
        "net.traffic.self_s": layers.self_s("net.traffic"),
    })
    return values


def _common_layers(layers, model, sim):
    info = sim.sched_info()
    return {
        "core.elaboration.s": layers.self_s("core.elaboration"),
        "core.elaboration.nets": len(model._all_nets),
        "core.simulation.init_s": layers.self_s("core.simulation.init"),
        "core.simulation.reset_s": layers.self_s("core.simulation.reset"),
        "core.simulation.cycle_s": layers.self_s("core.simulation.cycle"),
        "core.scheduling.static_blocks": info["static_blocks"],
        "core.scheduling.event_blocks": info["event_blocks"],
        "unaccounted_s": layers.self_s("job"),
    }


def mesh_reference_ok(nrouters, ncycles, seed, wrapper, sim):
    """Same-seed stats of the SimJIT mesh and the interpreted static
    simulator over a short traffic run."""
    ref_net = build_mesh(nrouters).elaborate()
    ref_sim = SimulationTool(ref_net, sched="static")
    want = traffic(ref_net, ref_sim, seed, ncycles)
    got = traffic(wrapper, sim, seed, ncycles)
    return (stats_key(want) == stats_key(got)
            and want.latencies == got.latencies
            and want.injected == want.ejected)


# -- accelerator tile ----------------------------------------------------------


TILE_LEVELS = ("rtl", "rtl", "rtl")


def tile_job(rows, cols, seed, layers=None):
    """⟨RTL,RTL,RTL⟩ tile running ``mvmult_xcel`` under the interpreted
    simulator (``sched="auto"``); one kernel run is one operation."""
    words = assemble(mvmult_xcel(rows, cols))
    data, expected = mvmult_data(rows, cols, seed=seed)
    start = perf_counter()
    with _span(layers, "job"):
        with _span(layers, "core.elaboration"):
            tile = Tile(TILE_LEVELS).elaborate()
        tile.mem.load(0, words)
        for addr, value in data.items():
            tile.mem.write_word(addr, value)
        sim = _setup_sim(tile, layers, sched="auto")
        setup_done = perf_counter()
        first_cycle = sim.ncycles
        halted = True
        while not int(tile.proc.done):
            sim.cycle()
            if sim.ncycles - first_cycle > TILE_MAX_CYCLES:
                halted = False
                break
        run_done = perf_counter()
    cycles = sim.ncycles - first_cycle
    got = [tile.mem.read_word(Y_BASE + 4 * i) for i in range(rows)]
    result = JobResult(
        setup_s=setup_done - start,
        run_s=run_done - setup_done,
        total_s=perf_counter() - start,
        cycles=cycles,
        ops=1,
        failed=0 if halted and got == expected else 1,
        stats=(cycles,),
    )
    if layers is not None:
        result.layers = _common_layers(layers, tile, sim)
    return result
