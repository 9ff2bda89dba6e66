"""SimJIT tests: specialized models must be cycle-exact drop-ins.

The core property (paper Section IV): for any supported model, the
C-compiled simulation produces bit-identical port behaviour to the
interpreted simulation, cycle by cycle, under arbitrary stimulus.
"""

import random
import re

import pytest

from repro.core import InValRdyBundle, Model, OutValRdyBundle, SimulationTool
from repro.core.signals import InPort, OutPort, Wire
from repro.core.simjit import SimJITCL, SimJITRTL, SpecializationError
from repro.components import (
    IntPipelinedMultiplier,
    NormalQueue,
    RoundRobinArbiter,
    run_src_sink_test,
)
from repro.mem import CacheRTL, MemMsg
from repro.net import MeshNetworkStructural, NetworkTrafficHarness, RouterRTL


def _flat_ports(model, kind):
    from repro.core.simjit.specializer import _flat_ports as flat
    return flat(model, kind)


def assert_cycle_exact(factory, ncycles=200, seed=0, specializer=SimJITRTL):
    """Drive both the interpreted and specialized model with identical
    random inputs; compare every output port every cycle."""
    interp = factory().elaborate()
    jit = specializer(factory().elaborate()).specialize().elaborate()

    sim_i = SimulationTool(interp)
    sim_j = SimulationTool(jit)
    sim_i.reset()
    sim_j.reset()

    in_i = [p for p in _flat_ports(interp, InPort)
            if p.name not in ("clk", "reset")]
    in_j = [p for p in _flat_ports(jit, InPort)
            if p.name not in ("clk", "reset")]
    out_i = _flat_ports(interp, OutPort)
    out_j = _flat_ports(jit, OutPort)
    assert len(in_i) == len(in_j)
    assert len(out_i) == len(out_j)

    rng = random.Random(seed)
    for cycle in range(ncycles):
        for pi, pj in zip(in_i, in_j):
            value = rng.getrandbits(pi.nbits)
            pi.value = value
            pj.value = value
        sim_i.cycle()
        sim_j.cycle()
        for po_i, po_j in zip(out_i, out_j):
            assert int(po_i) == int(po_j), (
                f"cycle {cycle}: {po_i.name} differs "
                f"(interp {int(po_i):#x} vs jit {int(po_j):#x})"
            )


# -- component-level equivalence -------------------------------------------------


def test_register_equivalent():
    from repro.components import Register
    assert_cycle_exact(lambda: Register(8))


def test_muxreg_equivalent():
    from tests.test_core_smoke import MuxReg
    assert_cycle_exact(lambda: MuxReg(8, 4))


def test_counter_equivalent():
    from repro.components import Counter
    assert_cycle_exact(lambda: Counter(4))


def test_normal_queue_equivalent():
    assert_cycle_exact(lambda: NormalQueue(4, 16))


def test_multiplier_equivalent():
    assert_cycle_exact(lambda: IntPipelinedMultiplier(32, 4))


def test_arbiter_equivalent():
    assert_cycle_exact(lambda: RoundRobinArbiter(8))


def test_cache_rtl_equivalent():
    # Random val/rdy wiggling exercises the FSM heavily even without a
    # real memory behind it.
    assert_cycle_exact(lambda: CacheRTL(MemMsg(), MemMsg(), 4),
                       ncycles=300)


def test_router_rtl_equivalent():
    assert_cycle_exact(lambda: RouterRTL(0, 4, 64, 16, 2), ncycles=300)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_mesh_equivalent_random_seeds(seed):
    assert_cycle_exact(
        lambda: MeshNetworkStructural(RouterRTL, 4, 64, 16, 2),
        ncycles=150, seed=seed,
    )


def test_mesh_traffic_statistics_match():
    """End-to-end: identical traffic through interpreted and JIT
    meshes delivers identical packet statistics."""
    def build():
        return MeshNetworkStructural(RouterRTL, 16, 256, 32, 2).elaborate()

    interp_stats = NetworkTrafficHarness(build(), seed=7) \
        .run_uniform_random(0.3, 150)
    jit = SimJITRTL(build()).specialize().elaborate()
    jit_stats = NetworkTrafficHarness(jit, seed=7) \
        .run_uniform_random(0.3, 150)
    assert interp_stats.injected == jit_stats.injected
    assert interp_stats.ejected == jit_stats.ejected
    assert interp_stats.latencies == jit_stats.latencies


# -- composition: a JIT model inside an interpreted design -------------------------


def test_jit_queue_composes_with_interpreted_harness():
    queue = NormalQueue(2, 16).elaborate()
    jit_queue = SimJITRTL(queue).specialize()
    msgs = list(range(1, 20))
    run_src_sink_test(jit_queue, 16, msgs, msgs, src_interval=1,
                      sink_interval=2)


def test_jit_component_inside_parent_model():
    """A JIT-specialized register inside a bigger interpreted model."""
    from repro.components import Register

    jit_reg = SimJITRTL(Register(8).elaborate()).specialize()

    class Wrapper(Model):
        def __init__(s):
            s.in_ = InPort(8)
            s.out = OutPort(8)
            s.reg_ = jit_reg
            s.connect(s.in_, s.reg_.in_)
            s.connect(s.reg_.out, s.out)

    model = Wrapper().elaborate()
    sim = SimulationTool(model)
    sim.reset()
    model.in_.value = 99
    sim.cycle()
    assert model.out == 99


def test_two_jit_instances_have_independent_state():
    """Two instances of the same compiled model must not share state
    (regression: identical C source -> one shared library -> the
    instances must still get separate state structs)."""
    from repro.components import Register

    jit_a = SimJITRTL(Register(8).elaborate()).specialize()
    jit_b = SimJITRTL(Register(8).elaborate()).specialize()

    class Two(Model):
        def __init__(s):
            s.a_in = InPort(8)
            s.b_in = InPort(8)
            s.a_out = OutPort(8)
            s.b_out = OutPort(8)
            s.a = jit_a
            s.b = jit_b
            s.connect(s.a_in, s.a.in_)
            s.connect(s.b_in, s.b.in_)
            s.connect(s.a.out, s.a_out)
            s.connect(s.b.out, s.b_out)

    model = Two().elaborate()
    sim = SimulationTool(model)
    sim.reset()
    model.a_in.value = 11
    model.b_in.value = 22
    sim.cycle()
    assert model.a_out == 11
    assert model.b_out == 22


# -- error handling and overheads ----------------------------------------------------


def test_fl_model_rejected():
    from repro.mem import TestMemory
    mem = TestMemory().elaborate()
    with pytest.raises(SpecializationError, match="fl"):
        SimJITRTL(mem).specialize()


def test_cl_model_rejected_by_rtl_specializer():
    from repro.net import RouterCL
    router = RouterCL(0, 4, 64, 16, 2).elaborate()
    with pytest.raises(SpecializationError):
        SimJITRTL(router).specialize()


def test_overheads_recorded():
    from repro.components import Register
    spec = SimJITRTL(Register(8).elaborate(), cache=False)
    spec.specialize()
    for phase in ("elab", "veri", "cgen", "comp", "wrap", "simc"):
        assert phase in spec.overheads
    assert spec.overheads["comp"] > 0


def test_compile_cache_hit():
    from repro.components import Register
    first = SimJITRTL(Register(12).elaborate())
    first.specialize()
    second = SimJITRTL(Register(12).elaborate())
    second.specialize()
    assert second.overheads["cache_hit"]
    assert second.overheads["comp"] < max(0.5, first.overheads["comp"])


def test_generated_source_is_c(tmp_path):
    from repro.components import Register
    spec = SimJITRTL(Register(8).elaborate())
    spec.specialize()
    assert "run_comb_blocks" in spec.c_source
    assert "run_tick_blocks" in spec.c_source
    assert spec.lib_path.endswith(".so")


# -- shared canonical bodies ------------------------------------------------------


def _emitted_bodies(c_source):
    """``{function name: (block label, body text)}`` of every emitted
    block function."""
    found = re.findall(
        r"/\* (\S+) \*/\nstatic void (blk_\d+)(\(inst_t \*I, "
        r"const int \*N\) \{\n.*?\n\})", c_source, re.S)
    return {name: (label, body) for label, name, body in found}


def test_mesh_emits_one_function_per_distinct_body():
    from repro.telemetry import tracing

    net = MeshNetworkStructural(RouterRTL, 16, 256, 32, 2).elaborate()
    spec = SimJITRTL(net)
    tracer = tracing.arm()
    try:
        spec.specialize()
    finally:
        tracing.disarm()
    bodies = _emitted_bodies(spec.c_source)
    texts = [body for _, body in bodies.values()]
    assert len(bodies) == spec.n_functions
    assert len(set(texts)) == len(texts)
    # 16 routers x (5 queues x 2 blocks + 3 router blocks); only the
    # router's switch_logic, which folds the router's (x, y), varies.
    assert spec.n_blocks == 16 * 13
    assert spec.n_functions == 16 + 4
    labels = [label for label, _ in bodies.values()]
    assert labels.count("NormalQueue.seq_logic") == 1
    assert labels.count("NormalQueue.comb_logic") == 1
    # Every lowered block still gets exactly one call line.
    calls = re.findall(r"^  blk_\d+\(I, \w+\);$", spec.c_source, re.M)
    assert len(calls) == spec.n_blocks

    compile_rec = next(rec for rec in tracer.events
                       if rec["name"] == "simjit.compile")
    assert compile_rec["args"]["blocks"] == spec.n_blocks
    assert compile_rec["args"]["functions"] == spec.n_functions


class _Mixer(Model):
    """Register file written through a dynamic pointer; the output
    mixes the input with two dynamically selected entries."""

    def __init__(s, nbits=8):
        s.in_ = InValRdyBundle(nbits)
        s.out = OutValRdyBundle(nbits)
        s.sel_a = InPort(2)
        s.sel_b = InPort(2)
        s.regs = [Wire(nbits) for _ in range(4)]
        s.ptr = Wire(2)

        @s.tick_rtl
        def seq_logic():
            if s.reset:
                s.ptr.next = 0
            elif s.in_.val.uint() and s.in_.rdy.uint():
                s.regs[s.ptr.uint()].next = s.in_.msg.uint()
                s.ptr.next = s.ptr.uint() + 1

        @s.combinational
        def comb_logic():
            s.in_.rdy.value = s.out.rdy.uint()
            s.out.val.value = s.in_.val.uint()
            s.out.msg.value = (s.in_.msg.uint()
                               + s.regs[s.sel_a.uint()].uint()
                               + 3 * s.regs[s.sel_b.uint()].uint())


class _MixerTrio(Model):
    """Three mixers; the last one's two select ports share one net."""

    def __init__(s):
        s.in_ = InValRdyBundle[3](8)
        s.out = OutValRdyBundle[3](8)
        s.mix = [_Mixer() for _ in range(3)]
        s.shared_sel = Wire(2)
        for i, mix in enumerate(s.mix):
            s.connect(s.in_[i], mix.in_)
            s.connect(mix.out, s.out[i])
            if i < 2:
                s.connect(mix.sel_a, s.in_[i].msg[0:2])
                s.connect(mix.sel_b, s.in_[i].msg[2:4])
        s.connect(s.shared_sel, s.in_[2].msg[4:6])
        s.connect(s.mix[2].sel_a, s.shared_sel)
        s.connect(s.mix[2].sel_b, s.shared_sel)


def test_shared_bodies_with_aliased_ports_cosim_cycle_exact():
    """Instances of one type share a body unless their slot pattern
    differs: an instance whose two select ports alias one net gets its
    own comb body, and every instance stays cycle-exact against the
    interpreted static scheduler under random stimulus."""
    from repro.verif import RNG, CoSimHarness, DutAdapter
    from repro.verif import backpressure_pattern, presence_pattern

    spec = SimJITRTL(_MixerTrio().elaborate())
    jit = spec.specialize().elaborate()
    labels = [label for label, _ in
              _emitted_bodies(spec.c_source).values()]
    assert labels.count("_Mixer.seq_logic") == 1
    assert labels.count("_Mixer.comb_logic") == 2

    def adapter(name, model, **kw):
        return DutAdapter(
            name, model,
            drives={f"in{i}": model.in_[i] for i in range(3)},
            captures={f"out{i}": model.out[i] for i in range(3)}, **kw)

    rng = RNG(17)
    stimulus = {}
    for i in range(3):
        port_rng = rng.fork(f"in{i}")
        stimulus[f"in{i}"] = [port_rng.getrandbits(8) for _ in range(300)]
    res = CoSimHarness(
        [adapter("static", _MixerTrio(), sched="static"),
         adapter("jit", jit)],
        compare="cycle_exact").run(
            stimulus,
            backpressure=backpressure_pattern("random", p=0.7, seed=3),
            presence=presence_pattern("random", p=0.8, seed=3))
    assert res.ntransactions() == 3 * 300
