"""Campaign task specs: picklable units of simulation work.

A campaign is a named, seeded list of tasks.  Each task is a small
plain-data object that *describes* a simulation — it carries no model,
no simulator, no open file — so it pickles across the process boundary
and the worker rebuilds the DUT from scratch.  Three task families
cover the three campaign shapes the roadmap names:

- :class:`VerifSweepTask` — a differential co-simulation sweep
  (:mod:`repro.verif`): build N implementation points of one scenario,
  drive them from seed-derived constrained-random stimulus, diff
  online.  On a mismatch the task *returns* structured diagnostics
  (ddmin-shrunk stimulus, standalone repro, observe bundles) instead
  of crashing the fleet.
- :class:`FaultSweepTask` — a resilience fault-injection sweep
  (:func:`repro.resilience.sweeps.link_fault_sweep`).
- :class:`BenchPointTask` — one design-space evaluation point (cache
  geometry, mesh traffic) returning metrics.

**Determinism rules.**  Every task derives all randomness from
``RNG(campaign_seed).fork("task:" + task_id)`` — the crc32 substream
scheme of :mod:`repro.verif.strategies` — so a task's result depends
only on ``(campaign_seed, task_id, spec fields)``, never on which
worker ran it, in what order, or alongside what.  Task results carry
only deterministic data (wall-clock timing lives in the runner's
side-channel stats, not in results), which is what lets the aggregator
promise byte-identical ``repro-fleet-v1`` reports for any worker
count.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field
from time import perf_counter

from ..verif.strategies import (
    RNG,
    backpressure_pattern,
    mem_request_strategy,
    net_message_strategy,
    presence_pattern,
)

__all__ = [
    "Campaign",
    "CampaignTask",
    "VerifSweepTask",
    "FaultSweepTask",
    "BenchPointTask",
    "TaskResult",
    "demo_campaign",
]


def _safe_tag(tag):
    return "".join(ch if ch.isalnum() or ch in "._-" else "_"
                   for ch in str(tag))


@dataclass
class TaskResult:
    """What a worker ships back for one task.

    Everything except ``elapsed``/``worker`` is deterministic given
    ``(campaign_seed, task spec)``; the aggregator only reads the
    deterministic fields.
    """

    task_id: str
    kind: str
    status: str          # ok | mismatch | timeout | error | poisoned
    seed: int                         # the task's derived substream seed
    payload: dict = field(default_factory=dict)
    coverage: dict = field(default_factory=dict)
    telemetry: dict = field(default_factory=dict)
    diagnostics: dict | None = None
    elapsed: float = 0.0              # wall seconds (non-deterministic)
    worker: int | None = None         # worker pid (non-deterministic)

    @property
    def ok(self):
        return self.status == "ok"


class CampaignTask:
    """Base class: id, seed derivation, and the failure-capture shell.

    ``wall_budget`` (seconds) arms an in-worker SIGALRM watchdog
    (:func:`repro.resilience.guard.wall_budget_alarm`) around
    :meth:`run`, so a pure-Python hang becomes a structured, *retryable*
    ``"timeout"`` result long before the supervisor's harder process-
    level deadline fires.  ``cycle_budget`` clamps the task's simulated-
    cycle limits (``max_cycles``), so a livelocked design becomes a
    deterministic ``"timeout"`` result.
    """

    kind = "task"

    def __init__(self, task_id, wall_budget=None, cycle_budget=None):
        self.task_id = str(task_id)
        if not self.task_id:
            raise ValueError("task_id must be non-empty")
        self.wall_budget = wall_budget
        self.cycle_budget = (None if cycle_budget is None
                             else int(cycle_budget))

    def _clamp_cycles(self, max_cycles):
        """``max_cycles`` bounded by the task's cycle budget."""
        if self.cycle_budget is None:
            return max_cycles
        if max_cycles is None:
            return self.cycle_budget
        return min(int(max_cycles), self.cycle_budget)

    def rng(self, campaign_seed):
        """The task's private RNG substream (crc32 fork by task id)."""
        return RNG(campaign_seed).fork(f"task:{self.task_id}")

    def run(self, rng, ctx):
        """Execute; return ``(payload, coverage, telemetry)`` dicts.
        Subclasses implement this and may raise."""
        raise NotImplementedError

    # -- failure-capture shell -------------------------------------------

    def execute(self, campaign_seed, ctx, attempt=1):
        """Run under the fleet contract: never raise, always return a
        :class:`TaskResult`.  Verification failures become structured
        ``mismatch`` results (with shrunk repro + observe bundles via
        :meth:`_diagnose_mismatch`), budget blowouts become
        ``timeout``, anything else becomes ``error`` with a traceback
        — sibling tasks on the same worker keep running either way.

        ``attempt`` is the supervisor's retry ordinal (1 on the first
        try); it selects chaos injections and is *never* allowed to
        influence the result — every attempt derives the identical RNG
        substream, which is what makes retried results byte-equal to
        first-try results.
        """
        from ..resilience.guard import WatchdogTimeout, wall_budget_alarm
        from ..telemetry import tracing
        from ..verif.cosim import CoSimMismatch, CoSimTimeout
        from .chaos import maybe_inject

        rng = self.rng(campaign_seed)
        seed = rng._seed & 0xFFFFFFFF
        start = perf_counter()
        status, payload, coverage, telemetry, diagnostics = \
            "ok", {}, {}, {}, None
        with tracing.span("fleet.task", task=self.task_id,
                          kind=self.kind, attempt=attempt) as sp:
            try:
                with wall_budget_alarm(self.wall_budget,
                                       label=self.task_id):
                    maybe_inject(self.task_id, attempt)
                    payload, coverage, telemetry = self.run(rng, ctx)
            except CoSimMismatch as exc:
                status = "mismatch"
                diagnostics = self._diagnose_mismatch(
                    exc, campaign_seed, ctx)
            except (CoSimTimeout, WatchdogTimeout) as exc:
                status = "timeout"
                diagnostics = {"message": str(exc)}
                wd_diag = getattr(exc, "diagnostics", None)
                if wd_diag:
                    diagnostics["watchdog"] = _strip_timing(wd_diag)
                    # Wall-clock trips are machine noise, not a fact
                    # about the design: mark them transient so the
                    # supervisor's retry policy gives the task a fresh
                    # attempt.  Cycle-budget trips are deterministic
                    # and final.
                    if wd_diag.get("kind") == "wall-budget":
                        diagnostics["transient"] = True
            except Exception as exc:
                status = "error"
                diagnostics = {
                    "type": type(exc).__name__,
                    "message": str(exc),
                    "traceback": traceback.format_exc(limit=16),
                }
            sp.set(status=status)
        import os
        return TaskResult(
            task_id=self.task_id, kind=self.kind, status=status,
            seed=seed, payload=payload, coverage=coverage,
            telemetry=telemetry, diagnostics=diagnostics,
            elapsed=perf_counter() - start, worker=os.getpid())

    def _diagnose_mismatch(self, exc, campaign_seed, ctx):
        """Default mismatch diagnostics: the divergence facts."""
        return _mismatch_facts(exc)

    def __repr__(self):
        return f"<{type(self).__name__} {self.task_id!r}>"


def _mismatch_facts(exc):
    facts = {
        "message": str(exc),
        "ref": exc.ref,
        "dut": exc.dut,
        "channel": exc.channel,
        "index": exc.index,
        "expected": list(exc.expected) if exc.expected else None,
        "actual": list(exc.actual) if exc.actual else None,
    }
    if exc.bundles:
        import os

        from ..telemetry import tracing

        # With host-span tracing armed, hang the spans collected so
        # far (the failing task's timeline) off every exported bundle.
        # Side-channel only: the manifests embedded in the report
        # below strip the trace reference, so report bytes stay
        # identical with tracing on or off.
        tracer = tracing.active()
        if tracer is not None:
            from ..observe.forensics import attach_trace
            for dut, path in sorted(exc.bundles.items()):
                try:
                    attach_trace(path, tracer.events)
                except Exception:
                    pass
        facts["bundles"] = {
            dut: os.path.basename(path)
            for dut, path in sorted(exc.bundles.items())}
        manifests = {}
        for dut, path in sorted(exc.bundles.items()):
            try:
                from ..observe.forensics import read_manifest
                manifest = read_manifest(path)
                manifest.pop("trace", None)
                manifests[dut] = manifest
            except Exception:
                pass
        if manifests:
            facts["bundle_manifests"] = manifests
    return facts


def _strip_timing(diag):
    """Watchdog diagnostics minus wall-clock fields (reports must be
    byte-identical across worker counts, and elapsed seconds are not)."""
    return {k: v for k, v in dict(diag).items()
            if k not in ("elapsed_seconds",)}


def _telemetry_export(sim, prefix=""):
    """Counters + histograms of one simulator as plain dicts."""
    counters = {f"{prefix}{name}": int(value)
                for name, value in sim.telemetry.counters().items()}
    histograms = {f"{prefix}{name}": hist.to_dict()
                  for name, hist in sim.telemetry.histograms().items()}
    return {"counters": counters, "histograms": histograms}


def _pattern(spec, rng, label, factory):
    """Build a backpressure/presence schedule from a picklable
    ``(kind, kwargs)`` spec, seeding it from the task substream."""
    if spec is None:
        return None
    kind, kwargs = spec if isinstance(spec, tuple) else (spec, {})
    kwargs = dict(kwargs)
    kwargs.setdefault("seed", rng.fork(label)._seed & 0xFFFFFFFF)
    return factory(kind, **kwargs)


# -- verif sweep tasks --------------------------------------------------------


class VerifSweepTask(CampaignTask):
    """One differential co-simulation sweep as a campaign unit.

    ``scenario`` names a built-in scenario (``"cache"``, ``"mesh"``,
    ``"proc"``) or is a module-level callable ``f(rng, task) ->
    (make_harness, stimulus, run_kwargs)`` (it must be importable in
    the worker — a plain function, not a closure).  ``points`` is a
    tuple of ``(name, params)`` implementation points the scenario
    builds; defaults compare the event- and static-scheduled
    substrates of the RTL model.

    On divergence the worker re-derives the identical scenario, ddmin-
    shrinks the stimulus (:func:`repro.verif.shrink.shrink_cosim_failure`),
    optionally emits a standalone pytest repro into the artifact dir
    (``build_src``), and returns everything as diagnostics.
    ``observe_depth > 0`` arms a flight recorder on every DUT's
    capture channels so the divergence additionally exports
    ``repro-observe-v1`` bundles.
    """

    kind = "verif"

    DEFAULT_POINTS = (("event", {"sched": "event"}),
                      ("static", {"sched": "static"}))

    def __init__(self, task_id, scenario="cache", ntxns=120,
                 points=None, dut_params=None, compare=None,
                 backpressure=("random", {"p": 0.75}),
                 presence=("random", {"p": 0.85}),
                 max_cycles=60_000, shrink=True, shrink_runs=150,
                 observe_depth=0, build_src=None,
                 wall_budget=None, cycle_budget=None):
        super().__init__(task_id, wall_budget=wall_budget,
                         cycle_budget=cycle_budget)
        self.scenario = scenario
        self.ntxns = int(ntxns)
        self.points = tuple(points) if points else self.DEFAULT_POINTS
        self.dut_params = dict(dut_params or {})
        self.compare = compare
        self.backpressure = backpressure
        self.presence = presence
        self.max_cycles = int(max_cycles)
        self.shrink = bool(shrink)
        self.shrink_runs = int(shrink_runs)
        self.observe_depth = int(observe_depth)
        self.build_src = build_src

    # -- scenario materialization ---------------------------------------

    def _materialize(self, rng):
        """Deterministically rebuild ``(make_harness, stimulus,
        run_kwargs)`` from the task substream.  Called once for the
        sweep and again (with an equal ``rng``) for shrinking."""
        scenario = self.scenario
        if not callable(scenario):
            scenario = SCENARIOS[scenario]
        make, stimulus, run_kwargs = scenario(rng, self)
        run_kwargs = dict(run_kwargs)
        run_kwargs.setdefault("max_cycles", self.max_cycles)
        run_kwargs["max_cycles"] = self._clamp_cycles(
            run_kwargs["max_cycles"])
        if "backpressure" not in run_kwargs:
            run_kwargs["backpressure"] = _pattern(
                self.backpressure, rng, "bp", backpressure_pattern)
        if "presence" not in run_kwargs:
            run_kwargs["presence"] = _pattern(
                self.presence, rng, "pr", presence_pattern)
        return make, stimulus, run_kwargs

    def _arm(self, harness, ctx):
        """Arm per-DUT flight recorders on the capture channels and
        point divergence bundles at the artifact dir."""
        if not self.observe_depth:
            return
        if ctx.artifact_dir:
            harness.bundle_dir = str(ctx.artifact_dir)
        for dut in harness.duts:
            signals = []
            for ch in dut.channels:
                if ch.role != "drive":
                    signals.extend(
                        (ch.bundle.val, ch.bundle.rdy, ch.bundle.msg))
            if signals:
                dut.sim.flight_recorder(
                    signals=signals, depth=self.observe_depth)

    def run(self, rng, ctx):
        make, stimulus, run_kwargs = self._materialize(rng)
        harness = make()
        self._arm(harness, ctx)
        res = harness.run(stimulus, **run_kwargs)
        ref = harness.duts[0]
        payload = {
            "points": [name for name, _ in self.points],
            "ntransactions": res.ntransactions(),
            "ncycles": {name: n for name, n in res.ncycles.items()},
        }
        return payload, res.coverage.to_dict(), _telemetry_export(ref.sim)

    def _diagnose_mismatch(self, exc, campaign_seed, ctx):
        facts = _mismatch_facts(exc)
        if not self.shrink:
            return facts
        from ..verif.shrink import emit_repro, shrink_cosim_failure

        # Re-derive the identical scenario for the shrink probes; the
        # harness factory builds fresh simulators per probe.
        rng = self.rng(campaign_seed)
        make, stimulus, run_kwargs = self._materialize(rng)
        if not stimulus:
            return facts                    # self-running: seed is the repro
        shrink_kwargs = {k: v for k, v in run_kwargs.items()}
        try:
            shrunk, shrunk_exc = shrink_cosim_failure(
                make, stimulus, shrink_kwargs,
                max_runs=self.shrink_runs)
        except Exception as shrink_err:
            facts["shrink_error"] = (
                f"{type(shrink_err).__name__}: {shrink_err}")
            return facts
        facts["shrunk_stimulus"] = {
            ch: list(payloads) for ch, payloads in sorted(shrunk.items())}
        facts["shrunk_ntxns"] = sum(len(v) for v in shrunk.values())
        facts["shrunk_message"] = str(shrunk_exc)
        if self.build_src and ctx.artifact_dir:
            import os
            name = f"repro_{_safe_tag(self.task_id)}.py"
            try:
                path = emit_repro(
                    os.path.join(str(ctx.artifact_dir), name),
                    self.build_src, shrunk,
                    {"max_cycles": self.max_cycles},
                    note=f"Shrunk by repro.fleet task "
                         f"{self.task_id!r}.",
                    mismatch=shrunk_exc)
                facts["repro_file"] = os.path.basename(path)
                with open(path) as f:
                    facts["repro_source"] = f.read()
            except Exception as emit_err:
                facts["repro_error"] = (
                    f"{type(emit_err).__name__}: {emit_err}")
        return facts


# -- built-in scenarios -------------------------------------------------------
#
# A scenario turns (task rng, task spec) into the three things a sweep
# needs: a re-callable harness factory, the stimulus dict, and run
# kwargs.  Factories capture only plain data derived *before* they are
# returned, so calling one twice (sweep, then shrink probes) builds
# identical fresh simulators.


def _cache_scenario(rng, task):
    from ..verif.cosim import CoSimHarness
    from ..verif.duts import make_cache_dut

    params = dict(task.dut_params)
    addr_words = params.pop("addr_words", 64)
    strat = mem_request_strategy(addr_words=addr_words)
    srng = rng.fork("stimulus")
    stimulus = {"req": [strat.sample(srng) for _ in range(task.ntxns)]}
    points, compare = task.points, task.compare or "cycle_exact"

    def make():
        return CoSimHarness(
            [make_cache_dut(name, **{**params, **pt})
             for name, pt in points],
            compare=compare)

    return make, stimulus, {}


def _mesh_scenario(rng, task):
    from ..net import NetMsg
    from ..verif.cosim import CoSimHarness
    from ..verif.duts import make_mesh_dut

    params = dict(task.dut_params)
    nrouters = params.setdefault("nrouters", 4)
    msg_type = NetMsg(nrouters, params.get("nmsgs", 256),
                      params.get("data_nbits", 16))
    stimulus = {}
    for src in range(nrouters):
        port_rng = rng.fork(f"port{src}")
        strat = net_message_strategy(msg_type, src, nrouters)
        stimulus[f"in{src}"] = [
            strat.sample(port_rng) for _ in range(task.ntxns)]
    points, compare = task.points, task.compare or "cycle_exact"

    def make():
        return CoSimHarness(
            [make_mesh_dut(name, **{**params, **pt})
             for name, pt in points],
            compare=compare)

    return make, stimulus, {}


def _proc_scenario(rng, task):
    from ..proc import assemble
    from ..verif.cosim import CoSimHarness
    from ..verif.duts import make_proc_dut, random_minrisc_program

    params = dict(task.dut_params)
    length = params.pop("length", max(20, task.ntxns))
    words = assemble(random_minrisc_program(
        rng.fork("prog"), length=length,
        store_frac=params.pop("store_frac", 0.2)))
    points = task.points
    if points == VerifSweepTask.DEFAULT_POINTS:
        # The class default names simulator substrates; for the
        # self-running processor scenario compare abstraction levels.
        points = (("fl", {"level": "fl"}), ("cl", {"level": "cl"}))
    compare = task.compare or "cycle_tolerant"

    def make():
        return CoSimHarness(
            [make_proc_dut(name, pt.get("level", name), words,
                           **{**params,
                              **{k: v for k, v in pt.items()
                                 if k != "level"}})
             for name, pt in points],
            compare=compare)

    # Self-running DUTs: nothing to drive, so no stimulus patterns.
    return make, {}, {"backpressure": None, "presence": None}


SCENARIOS = {
    "cache": _cache_scenario,
    "mesh": _mesh_scenario,
    "proc": _proc_scenario,
}


# -- fault sweep tasks --------------------------------------------------------


class FaultSweepTask(CampaignTask):
    """Resilience fault-injection sweep (resilient-link exactly-once)
    as a campaign unit — see
    :func:`repro.resilience.sweeps.link_fault_sweep`."""

    kind = "fault"

    def __init__(self, task_id, npackets=120, drop=0.05, corrupt=0.05,
                 stall=0.05, levels=("fl", "cl", "rtl"),
                 payload_nbits=16, max_cycles=60_000, rdy_p=0.2,
                 wall_budget=None, cycle_budget=None):
        super().__init__(task_id, wall_budget=wall_budget,
                         cycle_budget=cycle_budget)
        self.npackets = int(npackets)
        self.drop = float(drop)
        self.corrupt = float(corrupt)
        self.stall = float(stall)
        self.levels = tuple(levels)
        self.payload_nbits = int(payload_nbits)
        self.max_cycles = int(max_cycles)
        self.rdy_p = float(rdy_p)

    def run(self, rng, ctx):
        from ..resilience.sweeps import link_fault_sweep

        out = link_fault_sweep(
            seed=rng.fork("sweep")._seed,
            npackets=self.npackets, drop=self.drop,
            corrupt=self.corrupt, stall=self.stall,
            levels=self.levels, payload_nbits=self.payload_nbits,
            max_cycles=self._clamp_cycles(self.max_cycles),
            rdy_p=self.rdy_p)
        coverage = out.pop("coverage")
        telemetry = {"counters": out.pop("counters"),
                     "histograms": {}}
        return out, coverage, telemetry


# -- design-space benchmark tasks ---------------------------------------------


def _mesh_traffic_point(rng, params):
    """Uniform-random traffic on an interpreted mesh/crossbar network."""
    from ..core import SimulationTool
    from ..net import (
        MeshNetworkStructural,
        NetworkFL,
        NetworkTrafficHarness,
        RouterCL,
        RouterRTL,
    )

    level = params.get("level", "rtl")
    nrouters = int(params.get("nrouters", 4))
    nmsgs = int(params.get("nmsgs", 256))
    data_nbits = int(params.get("data_nbits", 32))
    nentries = int(params.get("nentries", 2))
    if level == "fl":
        net = NetworkFL(nrouters, nmsgs, data_nbits, nentries)
    else:
        router = {"cl": RouterCL, "rtl": RouterRTL}[level]
        net = MeshNetworkStructural(router, nrouters, nmsgs,
                                    data_nbits, nentries)
    net.elaborate()
    sim = SimulationTool(net, sched=params.get("sched", "auto"))
    harness = NetworkTrafficHarness(
        net, sim=sim, seed=rng.fork("traffic")._seed & 0xFFFFFFFF)
    stats = harness.run_uniform_random(
        float(params.get("rate", 0.2)),
        int(params.get("ncycles", 300)),
        warmup=int(params.get("warmup", 0)))
    metrics = {
        "injected": stats.injected,
        "ejected": stats.ejected,
        "avg_latency": stats.avg_latency,
        "throughput": stats.throughput,
        "ncycles": stats.ncycles,
    }
    return metrics, sim


def _cache_geometry_point(rng, params):
    """CL tile running the scalar matrix-vector kernel at one D$
    geometry (the Section III-C design-space study, one point)."""
    from ..accel import Tile, mvmult_data, mvmult_scalar
    from ..core import SimulationTool
    from ..proc import assemble

    rows = int(params.get("rows", 4))
    cols = int(params.get("cols", 16))
    words = assemble(mvmult_scalar(rows, cols))
    data, _expected = mvmult_data(rows, cols)
    tile = Tile(("cl", "cl", "cl"),
                cache_nlines=int(params.get("nlines", 16)),
                cache_assoc=int(params.get("assoc", 1))).elaborate()
    tile.mem.load(0, words)
    for addr, value in data.items():
        tile.mem.write_word(addr, value)
    sim = SimulationTool(tile)
    sim.reset()
    limit = int(params.get("max_cycles", 3_000_000))
    from ..telemetry import tracing
    start = sim.ncycles
    with tracing.span("sim.run", design="Tile",
                      start_cycle=start) as sp:
        while not int(tile.proc.done):
            sim.cycle()
            if sim.ncycles >= limit:
                raise RuntimeError(
                    f"cache_geometry point did not finish in {limit} "
                    f"cycles")
        sp.set(ncycles=sim.ncycles - start)
    metrics = {
        "ncycles": sim.ncycles,
        "miss_rate": tile.dcache.miss_rate(),
    }
    return metrics, sim


DESIGN_POINTS = {
    "mesh_traffic": _mesh_traffic_point,
    "cache_geometry": _cache_geometry_point,
}


class BenchPointTask(CampaignTask):
    """One design-space evaluation point.

    ``design`` names a registered point function (``"mesh_traffic"``,
    ``"cache_geometry"``) or is a module-level callable
    ``f(rng, params) -> (metrics, sim)``.
    """

    kind = "bench"

    def __init__(self, task_id, design, params=None,
                 wall_budget=None, cycle_budget=None):
        super().__init__(task_id, wall_budget=wall_budget,
                         cycle_budget=cycle_budget)
        self.design = design
        self.params = dict(params or {})

    def run(self, rng, ctx):
        fn = self.design if callable(self.design) \
            else DESIGN_POINTS[self.design]
        params = self.params
        if self.cycle_budget is not None:
            params = dict(params)
            params["max_cycles"] = self._clamp_cycles(
                params.get("max_cycles"))
        metrics, sim = fn(rng, params)
        payload = {
            "design": getattr(self.design, "__name__", self.design),
            "params": dict(sorted(self.params.items())),
            "metrics": metrics,
        }
        telemetry = _telemetry_export(sim) if sim is not None \
            else {"counters": {}, "histograms": {}}
        return payload, {}, telemetry


# -- campaigns ----------------------------------------------------------------


class Campaign:
    """A named, seeded, ordered list of tasks with unique ids."""

    def __init__(self, name, seed, tasks):
        self.name = str(name)
        self.seed = int(seed)
        self.tasks = list(tasks)
        ids = [t.task_id for t in self.tasks]
        dups = sorted({i for i in ids if ids.count(i) > 1})
        if dups:
            raise ValueError(f"duplicate task ids: {dups}")
        if not self.tasks:
            raise ValueError("a campaign needs at least one task")

    def __len__(self):
        return len(self.tasks)

    def __repr__(self):
        return (f"<Campaign {self.name!r} seed={self.seed} "
                f"ntasks={len(self.tasks)}>")


def demo_campaign(seed=7, scale="small"):
    """A mixed demonstration campaign (CI smoke, CLI default).

    ``scale="small"`` keeps every task to a couple of seconds;
    ``"medium"`` grows the mesh and packet counts.
    """
    big = scale != "small"
    nrouters = 16 if big else 4
    tasks = [
        VerifSweepTask("verif/cache/base", scenario="cache",
                       ntxns=120 if big else 60),
        VerifSweepTask("verif/cache/assoc2", scenario="cache",
                       ntxns=120 if big else 60,
                       dut_params={"assoc": 2}),
        VerifSweepTask(f"verif/mesh{nrouters}/base", scenario="mesh",
                       ntxns=40 if big else 20,
                       dut_params={"nrouters": nrouters}),
        FaultSweepTask("fault/link/mixed", npackets=120 if big else 60,
                       drop=0.05, corrupt=0.05, stall=0.05),
        FaultSweepTask("fault/link/droppy", npackets=120 if big else 60,
                       drop=0.10, corrupt=0.0, stall=0.08),
        BenchPointTask("bench/mesh/r20",
                       design="mesh_traffic",
                       params={"nrouters": nrouters, "rate": 0.20,
                               "ncycles": 400 if big else 250}),
        BenchPointTask("bench/cache/4x1",
                       design="cache_geometry",
                       params={"nlines": 4, "assoc": 1,
                               "rows": 2, "cols": 8}),
    ]
    return Campaign(f"demo-{scale}", seed, tasks)
