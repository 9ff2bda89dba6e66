"""Traffic generation and measurement harness for network models.

Drives a network's terminal ports with synthetic traffic and measures
delivered-packet latency, throughput, and loss.  Used by the network
tests, the Section III-D zero-load/saturation experiments, and the
Figure 14/15 performance benchmarks.

The harness embeds the injection timestamp in each packet's payload
field, so latency needs no side tables.  It has two interchangeable
paths.  The Python loop pokes ports every cycle and works on any
simulator; it is the reference.  On a single-engine SimJIT top with no
per-cycle Python work armed, the same loop runs inside the compiled
kernel (``traffic_run`` in :mod:`repro.core.simjit.cgen`), which
replays the harness's ``random.Random`` stream with MT19937 in C, so
both paths give bit-identical results.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..core import SimulationTool

#: Cycles per compiled-driver call: bounds the latency buffer to
#: ``nterminals * _CHUNK`` entries and returns to Python (signals,
#: watchdogs) at least this often.
_CHUNK = 1024


@dataclass
class TrafficStats:
    """Results of a traffic run."""

    ncycles: int = 0
    nterminals: int = 1
    injected: int = 0
    ejected: int = 0
    latencies: list = field(default_factory=list)

    @property
    def avg_latency(self):
        if not self.latencies:
            return float("nan")
        return sum(self.latencies) / len(self.latencies)

    @property
    def throughput(self):
        """Delivered packets per terminal per cycle."""
        return self.ejected / max(1, self.ncycles) / max(1, self.nterminals)


class NetworkTrafficHarness:
    """Uniform-random traffic driver for any network exposing
    ``in_``/``out`` lists of val/rdy bundles and a ``msg_type``."""

    def __init__(self, network, sim=None, seed=0):
        if not network.is_elaborated():
            network.elaborate()
        self.net = network
        self.sim = sim if sim is not None else SimulationTool(network)
        self.nterminals = len(network.in_)
        self.msg_type = network.msg_type
        self.rng = random.Random(seed)
        self.seqnum = 0
        # Precomputed field offsets: the harness builds/parses raw int
        # messages on the hot path instead of BitStruct objects.
        msg_type = network.msg_type
        self._dest_shift = msg_type.field_slice("dest")[0]
        self._src_shift = msg_type.field_slice("src")[0]
        self._seq_shift = msg_type.field_slice("opaque")[0]
        seq_lo, seq_hi = msg_type.field_slice("opaque")
        self._seq_mask = (1 << (seq_hi - seq_lo)) - 1
        pay_lo, pay_hi = msg_type.field_slice("payload")
        self._payload_shift = pay_lo
        self._payload_mask = (1 << (pay_hi - pay_lo)) - 1

    def _mk_msg(self, src, dest, timestamp):
        """Raw-int network message with the timestamp as payload."""
        seq = self.seqnum & self._seq_mask
        self.seqnum += 1
        return ((dest << self._dest_shift)
                | (src << self._src_shift)
                | (seq << self._seq_shift)
                | ((timestamp & self._payload_mask)
                   << self._payload_shift))

    def run_uniform_random(self, injection_rate, ncycles,
                           warmup=0, drain=1000):
        """Bernoulli uniform-random traffic.

        Each terminal independently injects with probability
        ``injection_rate`` per cycle to a uniformly random destination.
        Packets injected during the first ``warmup`` cycles are not
        measured.  After ``ncycles``, injection stops and up to
        ``drain`` extra cycles let in-flight packets arrive.

        When the simulator could batch its cycles in C anyway (a
        single-engine SimJIT top, see
        :meth:`~repro.core.SimulationTool.c_batch_blocker`), with no
        compiled instrumentation armed, ``self.rng`` a plain
        ``random.Random`` and an ``int``/``float`` rate, the whole run
        executes in the kernel's ``traffic_run`` driver.  That driver
        replays the ``random.Random`` stream with MT19937 in C and
        mirrors this method's per-cycle loop, so the result is
        bit-identical: the same stats (latencies in order), ``sim.ncycles``,
        ``self.seqnum``, ``self.rng`` state and port values.  Otherwise
        the Python loop below runs; it is the reference path and the
        only one for interpreted models.
        """
        from time import perf_counter_ns

        from ..telemetry import tracing

        net, sim = self.net, self.sim
        sim.reset()
        # The harness drives per-cycle, so the simulator's own batch
        # instrumentation never fires; the whole measurement+drain
        # loop is one honest "sim.run" span instead.
        tracer = tracing.active()
        t0 = perf_counter_ns() if tracer is not None else 0
        start_cycle = sim.ncycles
        stats = TrafficStats(nterminals=self.nterminals)

        for port in net.out:
            port.rdy.value = 1

        fallback = self._compiled_blocker(injection_rate)
        if fallback is None:
            self._run_compiled(stats, injection_rate, ncycles, warmup,
                               drain)
        else:
            self._run_python(stats, injection_rate, ncycles, warmup,
                             drain)

        stats.ncycles = ncycles
        if tracer is not None:
            driver = ({"driver": "compiled"} if fallback is None
                      else {"driver": "python", "fallback": fallback})
            tracer.add_span("sim.run", t0, perf_counter_ns(),
                            design=type(net).__name__,
                            ncycles=sim.ncycles - start_cycle,
                            start_cycle=start_cycle, **driver)
        return stats

    def _compiled_blocker(self, injection_rate):
        """Why this run cannot use the compiled driver, or None."""
        sim = self.sim
        reason = sim.c_batch_blocker()
        if reason is not None:
            return reason
        instr = sim._jit_instr
        if instr is not None and instr.active:
            return "compiled_instrumentation"
        if type(self.rng) is not random.Random:
            return "rng_type"
        if type(injection_rate) not in (int, float):
            return "rate_type"
        return None

    def _run_python(self, stats, injection_rate, ncycles, warmup, drain):
        """The reference loop: pokes ports from Python every cycle."""
        net, sim, rng = self.net, self.sim, self.rng
        pending = [None] * self.nterminals    # staged packet per input
        pay_shift, pay_mask = self._payload_shift, self._payload_mask

        def service_outputs():
            for i in range(self.nterminals):
                port = net.out[i]
                if port.val.uint():
                    ts = (port.msg.uint() >> pay_shift) & pay_mask
                    stats.ejected += 1
                    if ts != 0:
                        stats.latencies.append(sim.ncycles - ts)

        def step():
            # The handshake fires at the coming edge with the rdy value
            # visible *now* — snapshot acceptance before cycling.
            accepted = [
                pending[i] is not None and int(net.in_[i].rdy)
                for i in range(self.nterminals)
            ]
            sim.cycle()
            for i in range(self.nterminals):
                if accepted[i]:
                    pending[i] = None
            service_outputs()

        for cycle in range(ncycles):
            measured = cycle >= warmup
            for i in range(self.nterminals):
                port = net.in_[i]
                if pending[i] is None and rng.random() < injection_rate:
                    dest = rng.randrange(self.nterminals)
                    ts = sim.ncycles if measured else 0
                    pending[i] = self._mk_msg(i, dest, ts)
                    stats.injected += 1
                if pending[i] is not None:
                    port.val.value = 1
                    port.msg.value = pending[i]
                else:
                    port.val.value = 0
            step()

        # Drain phase: finish offering staged packets, inject nothing new.
        for _ in range(drain):
            if stats.ejected >= stats.injected:
                break
            for i in range(self.nterminals):
                net.in_[i].val.value = 1 if pending[i] is not None else 0
            step()

    def _run_compiled(self, stats, injection_rate, ncycles, warmup, drain):
        """The same loop inside the SimJIT kernel, in chunks of at most
        ``_CHUNK`` cycles (bounded latency buffer, responsive signals)."""
        import cffi

        from ..core.simjit import SpecializationError

        net, sim, rng = self.net, self.sim, self.rng
        eng = sim.model.jit_engine
        ffi = cffi.FFI()
        n = self.nterminals
        slot = eng.port_slots()
        ports = ([p.val for p in net.in_], [p.msg for p in net.in_],
                 [p.rdy for p in net.in_], [p.val for p in net.out],
                 [p.msg for p in net.out])
        slots = ffi.new("int[]", [slot[id(sig)] for group in ports
                                  for sig in group])
        word = (1 << 64) - 1
        fmt = ffi.new("uint64_t[]", [
            self._dest_shift, self._src_shift, self._seq_shift,
            self._payload_shift,
            self._seq_mask & word, self._seq_mask >> 64,
            self._payload_mask & word, self._payload_mask >> 64])
        version, state, gauss_next = rng.getstate()
        mt = ffi.new("uint32_t[]", list(state))
        ctr = ffi.new("int64_t[]", [sim.ncycles, self.seqnum, 0, 0, 0])
        pend = ffi.new("uint64_t[]", 3 * n)
        lat = ffi.new("int64_t[]", n * _CHUNK)
        if type(injection_rate) is int:
            # random() is in [0, 1), so clamping keeps every comparison
            # and makes any int representable as a double.
            injection_rate = min(max(injection_rate, 0), 1)
        rate = float(injection_rate)

        eng._push_inputs()

        def run(inject, cycle0, count):
            ran = eng.lib.traffic_run(
                eng.inst, mt, ctr, slots, n, fmt, rate, inject, cycle0,
                warmup, count, pend, lat)
            if ran < 0:
                raise SpecializationError("combinational loop in C model")
            stats.latencies.extend(ffi.unpack(lat, ctr[4]))
            return ran

        try:
            for cycle0 in range(0, ncycles, _CHUNK):
                run(1, cycle0, min(_CHUNK, ncycles - cycle0))
            left = drain
            while left > 0:
                count = min(_CHUNK, left)
                ran = run(0, 0, count)
                left -= ran
                if ran < count:
                    break
        finally:
            sim.ncycles = ctr[0]
            self.seqnum = ctr[1]
            stats.injected, stats.ejected = ctr[2], ctr[3]
            rng.setstate((version, tuple(mt), gauss_next))
            # Hand the final input values (the first 2n slots) back to
            # the Python nets, then resync the outputs.
            buf = ffi.new("uint64_t[]", 4 * n)
            eng.lib.get_nets(eng.inst, slots, 2 * n, buf)
            for i, sig in enumerate(ports[0] + ports[1]):
                sig.value = buf[2 * i] | (buf[2 * i + 1] << 64)
            eng.invalidate_shadows()
            eng._pull_outputs(as_next=False)

    def send_single(self, src, dest, max_cycles=200):
        """Inject one packet and return its delivery latency."""
        net, sim = self.net, self.sim
        sim.reset()
        for port in net.out:
            port.rdy.value = 1
        msg = self._mk_msg(src, dest, 0)
        want_seq = (msg >> self._seq_shift) & self._seq_mask
        port = net.in_[src]
        port.msg.value = msg
        port.val.value = 1
        inject_cycle = None
        for _ in range(max_cycles):
            offered = int(port.val) and int(port.rdy)
            sim.cycle()
            if offered and inject_cycle is None:
                inject_cycle = sim.ncycles - 1
                port.val.value = 0
            if int(net.out[dest].val):
                got_seq = (net.out[dest].msg.uint()
                           >> self._seq_shift) & self._seq_mask
                if got_seq == want_seq:
                    return sim.ncycles - inject_cycle
        raise AssertionError(
            f"packet {src}->{dest} not delivered in {max_cycles} cycles"
        )


def measure_zero_load_latency(network, npairs=20, seed=0):
    """Average single-packet latency over random src/dest pairs."""
    harness = NetworkTrafficHarness(network, seed=seed)
    rng = random.Random(seed)
    n = harness.nterminals
    total = 0
    for _ in range(npairs):
        src = rng.randrange(n)
        dest = rng.randrange(n)
        while dest == src:
            dest = rng.randrange(n)
        total += harness.send_single(src, dest)
    return total / npairs


def measure_saturation(network_factory, rates, ncycles=600, warmup=100,
                       seed=0):
    """Sweep injection rate; return [(rate, avg_latency, throughput)].

    ``network_factory`` builds a fresh network per rate (state from an
    overloaded run must not leak into the next point).
    """
    results = []
    for rate in rates:
        harness = NetworkTrafficHarness(network_factory(), seed=seed)
        stats = harness.run_uniform_random(rate, ncycles, warmup=warmup)
        results.append((rate, stats.avg_latency, stats.throughput))
    return results


def find_saturation_point(sweep, zero_load=None, factor=3.0,
                          throughput_frac=0.95):
    """First injection rate at which the network saturates.

    Two conventional criteria, either of which triggers: average
    latency exceeds ``factor`` x the zero-load latency, or delivered
    throughput falls below ``throughput_frac`` of the offered rate
    (the network can no longer accept the offered load).
    """
    for rate, latency, throughput in sweep:
        if zero_load is not None and latency > factor * zero_load:
            return rate
        if throughput < throughput_frac * rate:
            return rate
    return None
