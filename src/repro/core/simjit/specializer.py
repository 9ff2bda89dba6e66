"""SimJIT specializers: compile elaborated models to C (paper Section IV).

``SimJITRTL`` and ``SimJITCL`` take an elaborated PyMTL-style model,
lower every behavioral block to IR, emit a single C translation unit,
compile it with gcc, load it through cffi, and hand back a drop-in
:class:`JITModel` exposing the original port interface — exactly the
flow of paper Figure 12, with our own RTL→C compiler standing in for
Verilator (see DESIGN.md).

The translation unit holds one net-state array for the whole flattened
design, one C function per *distinct* block body (instances of a model
type share it and pass their own net-slot table, see
:class:`~.cgen.CBackend`), and a statically scheduled combinational
fixpoint that calls every block instance in dependency order.  The
compiled ``.so`` is cached under the sha256 of the emitted source.

Per-phase overheads (elab / veri / cgen / comp / wrap / simc) are
recorded on the returned engine for the Figure 16 experiment.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import subprocess
import tempfile
import time

from ...telemetry import tracing
from ..ast_ir import BlockIR, TranslationError, translate_block
from ..elaboration import elaborate
from ..model import Model
from ..portbundle import PortBundle
from ..signals import InPort, OutPort, Signal, _SignalSlice
from .cgen import C_HEADER_DECLS, C_OBS_DECLS, CBackend

_CACHE_ENV = "SIMJIT_CACHE_DIR"
_CACHE_OPTOUT_ENV = "REPRO_SIMJIT_CACHE"


class SpecializationError(Exception):
    """Raised when a model cannot be specialized."""


def _default_cache_dir():
    return os.environ.get(
        _CACHE_ENV,
        os.path.join(tempfile.gettempdir(), "repro-simjit-cache"),
    )


@contextlib.contextmanager
def _build_lock(lock_path):
    """Advisory inter-process lock serializing builders of one cache key.

    Fleet campaigns fan workers across processes that all need the same
    design hash on their first task; without the lock every worker that
    passes the exists() check before the first publication compiles its
    own copy (correct — publication is an atomic replace — but N-1
    compiles are wasted).  Holding an ``flock`` on ``<digest>.so.lock``
    makes the race deterministic: exactly one process compiles, the
    rest block briefly and take the cache hit.  Yields ``True`` when
    the lock is held; on platforms without ``fcntl`` (or an unwritable
    cache dir) it degrades to the lock-free behavior and yields
    ``False``.  The lock file itself is left in place — unlinking it
    would reopen the race it exists to close.
    """
    try:
        import fcntl
        handle = open(lock_path, "a")
    except (ImportError, OSError):
        yield False
        return
    locked = False
    try:
        fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        locked = True
    except OSError:
        pass
    try:
        yield locked
    finally:
        if locked:
            try:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
            except OSError:
                pass
        handle.close()


class _Timer:
    """Accumulates wall time into ``record[key]``; with host-span
    tracing armed, each timed phase also lands as a ``simjit.<key>``
    span (``perf_counter`` and ``perf_counter_ns`` read the same
    clock, so the converted timestamps nest correctly under the
    enclosing ``simjit.compile`` span)."""

    def __init__(self, record, key):
        self.record = record
        self.key = key

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        self.record[self.key] = self.record.get(self.key, 0.0) \
            + end - self.start
        tracer = tracing.active()
        if tracer is not None:
            tracer.add_span(f"simjit.{self.key}",
                            int(self.start * 1e9), int(end * 1e9))
        return False


class SimJITEngine:
    """Runtime half of a specialized model: owns the compiled library
    and the Python<->C port synchronization."""

    def __init__(self, model, lib, slot_of, overheads):
        self.model = model
        self.lib = lib
        self.slot_of = slot_of
        self.inst = lib.new_instance()
        self.overheads = overheads
        import cffi
        self._ffi = cffi.FFI()
        self._buf = self._ffi.new("uint64_t[2]")
        # CL-state addressing metadata: attached by the specializer
        # (``engine.state_index``/``engine.model_index``) so external
        # tools (fault injection, checkpointing) can reach compiled
        # state by (model, attr) instead of C variable names.
        self.state_index = {}
        self.model_index = {}
        # (signal, slot) maps; nets resolved lazily (the parent design
        # may re-merge nets after specialization).
        self._in_ports = [
            (sig, slot_of(sig)) for sig in _flat_ports(model, InPort)
        ]
        self._out_ports = [
            (sig, slot_of(sig)) for sig in _flat_ports(model, OutPort)
        ]
        self._in_nets = None
        self._shadow = {}

    def _bind(self):
        import cffi
        ffi = cffi.FFI()
        self._in_nets = [
            (sig._net.find(), slot) for sig, slot in self._in_ports
        ]
        n_out = len(self._out_ports)
        self._out_slots = ffi.new(
            "int[]", [slot for _, slot in self._out_ports])
        self._out_buf = ffi.new("uint64_t[]", 2 * max(1, n_out))
        self._out_shadow = [None] * n_out

    def _push_inputs(self):
        if self._in_nets is None:
            self._bind()
        shadow = self._shadow
        set_net = self.lib.set_net
        inst = self.inst
        for net, slot in self._in_nets:
            value = net.read()
            if shadow.get(slot) != value:
                shadow[slot] = value
                set_net(inst, slot, value & 0xFFFFFFFFFFFFFFFF,
                        value >> 64)

    def _read_slot(self, slot):
        self.lib.get_net(self.inst, slot, self._buf)
        return self._buf[0] | (self._buf[1] << 64)

    def _pull_outputs(self, as_next):
        """Batch-read all output nets from C; write back only values
        that changed since the last pull (hot-path optimization — this
        Python<->C boundary is exactly the overhead the paper attacks
        with PyPy)."""
        out_ports = self._out_ports
        n = len(out_ports)
        buf = self._out_buf
        self.lib.get_nets(self.inst, self._out_slots, n, buf)
        shadow = self._out_shadow
        for i in range(n):
            value = buf[2 * i] | (buf[2 * i + 1] << 64)
            if shadow[i] != value:
                shadow[i] = value
                sig = out_ports[i][0]
                if as_next:
                    sig.next = value
                else:
                    sig.value = value

    def eval_comb(self):
        self._push_inputs()
        if self.lib.eval_comb(self.inst) < 0:
            raise SpecializationError("combinational loop in C model")
        self._pull_outputs(as_next=False)

    def tick(self):
        self._push_inputs()
        if self.lib.cycle(self.inst, 1) < 0:
            raise SpecializationError("combinational loop in C model")
        self._pull_outputs(as_next=True)

    # Direct-drive API for standalone benchmarking (no Python nets).
    def raw_cycle(self, n=1):
        if self.lib.cycle(self.inst, n) < 0:
            raise SpecializationError("combinational loop in C model")

    def raw_set(self, slot, value):
        self.lib.set_net(self.inst, slot,
                         value & 0xFFFFFFFFFFFFFFFF, value >> 64)
        # The forced value must survive the next input push even when
        # the Python-side net did not change: drop the push cache entry
        # so the slot re-syncs only when Python actually drives it.
        self._shadow.pop(slot, None)

    def raw_get(self, slot):
        return self._read_slot(slot)

    def raw_set_state(self, idx, elem, value):
        """Write one CL state variable (``state_index`` addressing)."""
        self.lib.set_state_at(self.inst, idx, int(elem), int(value))

    def state_slot(self, model, attr):
        """``state_index`` slot of ``model.attr``, or None when the
        attribute was not lowered to compiled state."""
        key = f"st_m{self.model_index[id(model)]}_{attr}"
        return self.state_index.get(key)

    def read_probes(self, probes):
        """Bulk counter readback: one C call for any mix of probes.

        ``probes`` is a list of ``(kind, idx, elem)`` triples — kind 0
        reads net slot ``idx`` (unsigned, up to 128 bits), kind 1 reads
        CL state ``state_index`` entry ``idx`` element ``elem`` (signed
        int64).  Returns the values in order.  This extends the
        per-counter ``raw_get``/``get_state_at`` readback path to one
        FFI round trip per engine.
        """
        n = len(probes)
        if not n:
            return []
        ffi = self._ffi
        req = ffi.new("int64_t[]", [int(x) for p in probes for x in p])
        out = ffi.new("uint64_t[]", 2 * n)
        self.lib.read_probes(self.inst, req, n, out)
        values = []
        for i, (kind, _, _) in enumerate(probes):
            lo, hi = out[2 * i], out[2 * i + 1]
            if kind == 0:
                values.append(lo | (hi << 64))
            else:
                values.append(lo - (1 << 64) if lo >= (1 << 63) else lo)
        return values

    # -- checkpoint/restore (resilience.snapshot) -------------------------

    def snapshot_raw(self):
        """Entire compiled instance state (nets + CL state) as bytes."""
        n = int(self.lib.inst_size())
        buf = self._ffi.new("char[]", n)
        self.lib.save_inst(self.inst, buf)
        return bytes(self._ffi.buffer(buf, n))

    def restore_raw(self, blob):
        """Overwrite the compiled instance state from a snapshot blob."""
        self.lib.load_inst(self.inst, blob)
        self.invalidate_shadows()

    def invalidate_shadows(self):
        """Drop the Python<->C change-detection caches after any
        out-of-band state mutation, so the next push/pull re-syncs
        every port."""
        self._shadow = {}
        if self._in_nets is not None:
            self._out_shadow = [None] * len(self._out_ports)


class JITModel(Model):
    """Drop-in replacement model wrapping a SimJIT engine.

    Adopts the original model's port objects so every attribute path a
    test bench uses (``m.in_[3].val`` …) keeps working unchanged.
    """

    def __init__(s, orig, engine):
        s.jit_engine = engine
        s._orig_class = type(orig).__name__
        from ..bitstruct import BitStruct
        for name, attr in list(orig.__dict__.items()):
            if name.startswith("_"):
                continue
            if _is_portlike(attr):
                setattr(s, name, attr)
                _clear_parent(attr)
            elif isinstance(attr, (int, str)) or (
                    isinstance(attr, type)
                    and issubclass(attr, BitStruct)):
                # Plain metadata (sizes, message types) that test
                # harnesses read off the model.
                setattr(s, name, attr)

        @s.tick_fl
        def jit_tick():
            engine.tick()

        @s.combinational
        def jit_comb():
            engine.eval_comb()

    def line_trace(s):
        return f"[jit:{s._orig_class}]"


def _is_portlike(attr, depth=0):
    if isinstance(attr, (InPort, OutPort, PortBundle)):
        return True
    if isinstance(attr, list) and depth < 3 and attr:
        return all(_is_portlike(a, depth + 1) for a in attr)
    return False


def _clear_parent(attr):
    if isinstance(attr, (Signal, PortBundle)):
        attr.parent = None
    elif isinstance(attr, list):
        for item in attr:
            _clear_parent(item)


def _flat_ports(model, kind):
    ports = []
    for name, attr in model.__dict__.items():
        if name.startswith("_"):
            continue
        ports.extend(_collect_ports(attr, kind))
    return ports


def _collect_ports(attr, kind, depth=0):
    if isinstance(attr, kind):
        return [attr]
    if isinstance(attr, PortBundle):
        return [s for s in attr.get_signals() if isinstance(s, kind)]
    if isinstance(attr, list) and depth < 3:
        found = []
        for item in attr:
            found.extend(_collect_ports(item, kind, depth + 1))
        return found
    return []


class _Specializer:
    """Shared flatten/lower/compile pipeline."""

    #: behavioral-block kinds this specializer accepts
    allowed_ticks = ()
    name = "simjit"

    def __init__(self, model, opt="-O2", cache=True, verbose=False,
                 extra_c="", extra_cdef="", schedule=True):
        self.orig = model
        self.opt = opt
        self.cache = cache
        self.verbose = verbose
        self.extra_c = extra_c          # e.g. an all-C bench driver
        self.extra_cdef = extra_cdef
        self.schedule = schedule        # static comb scheduling on/off
        self.overheads = {}
        # Lowered blocks vs distinct C functions in the last emission
        # (instances of one model type share a function).
        self.n_blocks = 0
        self.n_functions = 0

    def specialize(self):
        """Run the full pipeline; returns a :class:`JITModel`."""
        with tracing.span("simjit.compile",
                          design=type(self.orig).__name__) as sp:
            wrapper = self._specialize()
            sp.set(cache_hit=bool(self.overheads.get("cache_hit")),
                   blocks=self.n_blocks, functions=self.n_functions)
            return wrapper

    def _specialize(self):
        model = self.orig
        with _Timer(self.overheads, "elab"):
            if not model.is_elaborated():
                elaborate(model)
            self._build_slots(model)

        with _Timer(self.overheads, "veri"):
            block_irs, tick_irs = self._lower_blocks(model)
            comb_order = self._schedule(block_irs)

        with _Timer(self.overheads, "cgen"):
            c_source = self._emit(model, comb_order, tick_irs)

        with _Timer(self.overheads, "comp"):
            lib_path, cache_hit = self._compile(c_source)
        self.overheads["cache_hit"] = cache_hit

        with _Timer(self.overheads, "wrap"):
            lib = self._load(lib_path)
            engine = SimJITEngine(model, lib, self._slot_of,
                                  self.overheads)
            engine.state_index = dict(self._state_index)
            engine.model_index = dict(self._model_index)

        with _Timer(self.overheads, "simc"):
            wrapper = JITModel(model, engine)
            self._rebind_telemetry(model, wrapper, engine)
        self.c_source = c_source
        self.lib_path = lib_path
        return wrapper

    def _rebind_telemetry(self, model, wrapper, engine):
        """Re-point declared counters at compiled state and carry them
        onto the wrapper, so telemetry survives specialization (the
        Python tick code that used to advance them no longer runs).

        Signal-backed counters read their net slot; state-backed ones
        read the namespaced CL state variable.  Python-kind counters
        (and histograms) are carried over as-is — their values freeze
        at specialization time, which the docs call out as a SimJIT
        limitation.
        """
        lib, inst = engine.lib, engine.inst
        top_prefix = model.full_name() + "."
        for sub in model._all_models:
            if sub is model:
                rel = ""
            else:
                rel = sub.full_name()[len(top_prefix):]
            for cname, ctr in sub._telemetry_counters.items():
                if ctr._sig is not None:
                    slot = self._slot_of(ctr._sig)
                    ctr._jit_read = (
                        lambda s=slot: engine.raw_get(s))
                    ctr._jit_probe = (engine, 0, slot, 0)
                elif ctr._state is not None:
                    attr, elem = ctr._state
                    st = f"st_m{self._model_index[id(sub)]}_{attr}"
                    idx = self._state_index.get(st)
                    if idx is not None:
                        ctr._jit_read = (
                            lambda i=idx, e=(elem or 0):
                                lib.get_state_at(inst, i, e))
                        ctr._jit_probe = (engine, 1, idx, elem or 0)
                key = f"{rel}.{cname}" if rel else cname
                wrapper._telemetry_counters[key] = ctr
            for hname, hist in sub._telemetry_histograms.items():
                key = f"{rel}.{hname}" if rel else hname
                wrapper._telemetry_histograms[key] = hist

    # -- flattening -------------------------------------------------------------

    def _build_slots(self, model):
        self._slots = {}
        for i, net in enumerate(model._all_nets):
            self._slots[id(net)] = i
        self._net_widths = [net.nbits for net in model._all_nets]
        self._model = model

    def _slot_of(self, sig):
        return self._slots[id(sig._net.find())]

    def _lower_blocks(self, model):
        comb_irs = []
        tick_irs = []
        for sub in model._all_models:
            for blk in sub.get_comb_blocks():
                comb_irs.append(translate_block(sub, blk, "comb"))
            for blk in sub.get_tick_blocks():
                if blk.level not in self.allowed_ticks:
                    raise SpecializationError(
                        f"{self.name} cannot specialize "
                        f"{sub.full_name()}.{blk.func.__name__} "
                        f"(level '{blk.level}'; supported: "
                        f"{sorted(self.allowed_ticks)})"
                    )
                kind = "tick_cl" if blk.level == "cl" else "tick_rtl"
                tick_irs.append(translate_block(sub, blk, kind))

        # Slice connectors become synthetic comb copies.
        from ..ast_ir import AssignSig, SigRead
        for idx, (src, dst) in enumerate(model._connectors):
            ir = BlockIR(name=f"connector{idx}", kind="comb", model=model)
            src_ref = _ref_of(src)
            dst_ref = _ref_of(dst)
            ir.body = [AssignSig(dst_ref, SigRead(src_ref), False)]
            ir.sig_reads = [src_ref]
            ir.sig_writes = [dst_ref]
            comb_irs.append(ir)
        return comb_irs, tick_irs

    def _schedule(self, comb_irs):
        """Topologically order comb blocks by write->read dependencies;
        cycles (if any) are left to the runtime fixpoint loop."""
        if not self.schedule:
            # Ablation mode: declaration order, rely on the fixpoint
            # loop alone (more passes per eval).
            return list(comb_irs)
        def slots_of(refs):
            out = set()
            for ref in refs:
                for sig in ref.signals:
                    out.add(self._slot_of(sig))
            return out

        reads = [slots_of(ir.sig_reads) for ir in comb_irs]
        writes = [slots_of(ir.sig_writes) for ir in comb_irs]
        n = len(comb_irs)
        writers_of = {}
        for i, wset in enumerate(writes):
            for slot in wset:
                writers_of.setdefault(slot, []).append(i)
        deps = [set() for _ in range(n)]       # deps[i] = must run before i
        for i, rset in enumerate(reads):
            for slot in rset:
                for j in writers_of.get(slot, ()):
                    if j != i:
                        deps[i].add(j)
        order = []
        placed = [False] * n
        remaining = set(range(n))
        while remaining:
            ready = [i for i in sorted(remaining)
                     if all(placed[j] for j in deps[i])]
            if not ready:
                # Dependency cycle: emit the rest in index order; the
                # runtime fixpoint loop still guarantees convergence.
                order.extend(comb_irs[i] for i in sorted(remaining))
                break
            for i in ready:
                placed[i] = True
                remaining.discard(i)
                order.append(comb_irs[i])
        return order

    # -- emission ---------------------------------------------------------------------

    def _emit(self, model, comb_order, tick_irs):
        from .cgen import C_API, C_OBS, C_PRELUDE

        # Namespace CL state per model instance.
        model_index = {id(m): i for i, m in enumerate(model._all_models)}
        self._state_models = {id(m): m for m in model._all_models}

        def state_cname(ref):
            return f"st_m{model_index[id(ref.model)]}_{ref.name}"

        backend = CBackend(self._slot_of, state_cname)
        state_vars = {}            # cname -> (model, attr_name, size)

        def collect(ir):
            for stmt in _walk_stmts(ir.body):
                from ..ast_ir import StateRef
                ref = getattr(stmt, "ref", None)
                if isinstance(ref, StateRef):
                    state_vars[state_cname(ref)] = (
                        ref.model, ref.name, ref.size)
            for ref in ir.state_names:
                state_vars[state_cname(ref)] = (
                    ref.model, ref.name, ref.size)

        # Call lines keep the scheduled order; instances of one model
        # type share a function body and differ only in slot tables.
        comb_calls = [backend.block_call(ir) for ir in comb_order]
        tick_calls = [backend.block_call(ir) for ir in tick_irs]
        for ir in (*comb_order, *tick_irs):
            collect(ir)
        self.n_blocks = len(comb_calls) + len(tick_calls)
        self.n_functions = len(backend.functions)

        parts = [C_PRELUDE.replace(
            "@NNETS@", str(max(1, len(self._net_widths))))]

        widths = ", ".join(str(w) for w in self._net_widths) or "0"
        parts.append(
            f"static const unsigned short net_width[] = {{{widths}}};"
        )

        # Instance struct: net state + CL plain state.  Every instance
        # of the compiled model gets its own heap-allocated copy.
        state_list = sorted(state_vars.items())
        struct_lines = ["typedef struct {",
                        "  u128 cur[NNETS];",
                        "  u128 nxt[NNETS];",
                        "  u128 prev[NNETS];"]
        for cname, (_, _, size) in state_list:
            if size == 0:
                struct_lines.append(f"  int64_t {cname};")
            else:
                struct_lines.append(f"  int64_t {cname}[{size}];")
        struct_lines.append("} inst_t;")
        parts.append("\n".join(struct_lines))

        parts.extend(backend.functions)
        parts.append(backend.emit_tables())

        run_comb = "\n".join(f"  {c}" for c in comb_calls)
        parts.append(
            "static void run_comb_blocks(inst_t *I) {\n"
            f"  (void)I;\n{run_comb}\n}}"
        )
        run_tick = "\n".join(f"  {c}" for c in tick_calls)
        parts.append(
            "static void run_tick_blocks(inst_t *I) {\n"
            f"  (void)I;\n{run_tick}\n}}"
        )

        # State probe for observability from Python.  Element-indexed
        # so state-backed counters over int-list entries stay readable
        # after specialization.
        probes = []
        for i, (cname, (_, _, size)) in enumerate(state_list):
            ref = f"I->{cname}" if size == 0 else f"I->{cname}[elem]"
            probes.append(f"  if (idx == {i}) return {ref};")
        parts.append(
            "static int64_t state_probe_at(inst_t *I, int idx, "
            "int elem) {\n"
            "  (void)I; (void)elem;\n"
            + "\n".join(probes) + "\n  return 0;\n}"
        )
        # Mirror poke for fault injection (resilience.inject): write a
        # CL state variable in place, by the same (idx, elem) addressing
        # as the probe.
        pokes = []
        for i, (cname, (_, _, size)) in enumerate(state_list):
            ref = f"I->{cname}" if size == 0 else f"I->{cname}[elem]"
            pokes.append(
                f"  if (idx == {i}) {{ {ref} = value; return; }}")
        parts.append(
            "static void state_poke_at(inst_t *I, int idx, int elem, "
            "int64_t value) {\n"
            "  (void)I; (void)elem; (void)value;\n"
            + "\n".join(pokes) + "\n}"
        )
        self._state_index = {cname: i
                             for i, (cname, _) in enumerate(state_list)}
        self._model_index = model_index

        # init_instance(): seed net values, constant ties, CL state.
        init_lines = []
        for i, net in enumerate(model._all_nets):
            value = net.read()
            if value:
                lo = value & 0xFFFFFFFFFFFFFFFF
                hi = value >> 64
                init_lines.append(
                    f"  I->cur[{i}] = (((u128){hi}ULL) << 64) | {lo}ULL;"
                )
        for end, const in model._const_ties:
            ref = _ref_of(end)
            slot = self._slot_of(ref.signals[0])
            width = ref.width
            init_lines.append(
                f"  I->cur[{slot}] = (I->cur[{slot}] & "
                f"~(mask_of({width}) << {ref.lo})) | "
                f"(((u128){const}ULL & mask_of({width})) << {ref.lo});"
            )
        for cname, (owner, attr_name, size) in state_list:
            value = getattr(owner, attr_name)
            if size == 0:
                init_lines.append(f"  I->{cname} = {int(value)}LL;")
            else:
                for j, v in enumerate(value):
                    if int(v):
                        init_lines.append(
                            f"  I->{cname}[{j}] = {int(v)}LL;")
        parts.append(
            "static void init_instance(inst_t *I) {\n"
            "  (void)I;\n" + "\n".join(init_lines) + "\n}"
        )
        parts.append(C_API)
        parts.append(C_OBS)
        if self.extra_c:
            parts.append(self.extra_c)
        return "\n\n".join(parts)

    # -- compile / load -----------------------------------------------------------------

    def _compile(self, c_source):
        """Compile (or reuse) the shared library for ``c_source``.

        The on-disk cache is content-addressed: artifacts are keyed by
        the sha256 of the generated source plus the optimization flag,
        so any codegen change produces a new key and repeated builds of
        the same design reuse the compiled ``.so``.  Writes go through
        a per-process temporary name followed by an atomic
        ``os.replace``, so concurrent builders and cache eviction never
        expose a half-written artifact (a reader that already opened
        the old inode keeps it alive).  Concurrent builders of the
        *same* digest additionally serialize on a per-key ``flock``
        (see :func:`_build_lock`): exactly one process compiles, the
        rest take cache hits.  Opt out per engine with ``cache=False``
        or globally with ``REPRO_SIMJIT_CACHE=0``.
        """
        digest = hashlib.sha256(
            (c_source + self.opt).encode()
        ).hexdigest()[:24]
        cache_dir = _default_cache_dir()
        os.makedirs(cache_dir, exist_ok=True)
        lib_path = os.path.join(cache_dir, f"simjit_{digest}.so")
        use_cache = self.cache and os.environ.get(
            _CACHE_OPTOUT_ENV, "1") != "0"
        if use_cache and os.path.exists(lib_path):
            return lib_path, True
        if not use_cache:
            return self._compile_locked(c_source, cache_dir, digest,
                                        lib_path), False
        # Concurrent builders of the same digest (fleet workers on
        # their first task) serialize on the key's lock: the winner
        # compiles, everyone else re-checks under the lock and hits.
        with _build_lock(lib_path + ".lock"):
            if os.path.exists(lib_path):
                return lib_path, True
            return self._compile_locked(c_source, cache_dir, digest,
                                        lib_path), False

    def _compile_locked(self, c_source, cache_dir, digest, lib_path):
        # Per-process temporaries keep their real extensions (gcc
        # dispatches on them) and land with atomic renames.
        tag = f".tmp{os.getpid()}"
        src_path = os.path.join(cache_dir, f"simjit_{digest}.c")
        tmp_src = os.path.join(cache_dir, f"simjit_{digest}{tag}.c")
        tmp_lib = os.path.join(cache_dir, f"simjit_{digest}{tag}.so")
        with open(tmp_src, "w") as handle:
            handle.write(c_source)
        cmd = ["gcc", self.opt, "-shared", "-fPIC", "-o",
               tmp_lib, tmp_src]
        result = subprocess.run(cmd, capture_output=True, text=True)
        if result.returncode != 0:
            try:
                os.remove(tmp_src)
            except OSError:
                pass
            raise SpecializationError(
                f"gcc failed:\n{result.stderr[:4000]}"
            )
        os.replace(tmp_src, src_path)
        os.replace(tmp_lib, lib_path)
        return lib_path

    def _load(self, lib_path):
        import cffi
        ffi = cffi.FFI()
        ffi.cdef(C_HEADER_DECLS + C_OBS_DECLS + self.extra_cdef)
        return ffi.dlopen(lib_path)


class SimJITRTL(_Specializer):
    """SimJIT-RTL: specializes pure-RTL designs (comb + tick_rtl)."""

    allowed_ticks = ("rtl",)
    name = "SimJIT-RTL"


class SimJITCL(_Specializer):
    """SimJIT-CL: specializes subset-style CL designs (tick_cl blocks
    with int/int-list state, plus any RTL blocks)."""

    allowed_ticks = ("cl", "rtl")
    name = "SimJIT-CL"


def _ref_of(end):
    from ..ast_ir import SigRef
    if isinstance(end, _SignalSlice):
        return SigRef([end.signal], lo=end.lo, hi=end.hi)
    return SigRef([end])


def _walk_stmts(stmts):
    from ..ast_ir import For, If
    for stmt in stmts:
        yield stmt
        if isinstance(stmt, If):
            yield from _walk_stmts(stmt.body)
            yield from _walk_stmts(stmt.orelse)
        elif isinstance(stmt, For):
            yield from _walk_stmts(stmt.body)
