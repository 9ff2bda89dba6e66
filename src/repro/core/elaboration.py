"""Elaboration: turn a model description into a simulatable instance.

Elaboration (paper Figure 3) walks the hierarchy built by the user's
constructors and produces an in-memory design representation that the
tools (simulator, translator, SimJIT) consume:

1. every signal and submodel gets a hierarchical name and parent link;
2. ``clk``/``reset`` propagate implicitly from parent to child;
3. full-signal connections are merged into *nets* (union-find), so all
   signals on a net share one storage slot;
4. slice connections and constant ties become directional *connector*
   specs (the driver inferred from port kinds and hierarchy);
5. each ``@combinational`` block gets a sensitivity list inferred by
   static AST analysis of the signals it reads, plus precise
   read/write sets used by the simulator's static scheduling pass.

The result is stored on the top model: ``_all_models``, ``_all_signals``,
``_all_nets``, ``_connectors``, ``_const_ties``.

Sensitivity vs. read/write analysis
-----------------------------------

Two related analyses run over each combinational block's AST:

- the *sensitivity list* (``blk.signals``) drives the event-driven
  simulator: the block re-executes when any listed signal's net
  changes.  It deliberately over-approximates — e.g. a write to
  ``s.enq.rdy.value`` leaves the ``s.enq`` prefix in the list, so the
  whole bundle counts as read — because extra triggers only cost
  re-execution, never correctness.
- the *read/write sets* (``blk.reads`` / ``blk.writes``) feed the
  static scheduler, which needs them tight: phantom bundle-prefix
  "reads" would manufacture cycles in the block dataflow graph (a
  queue's ``rdy`` driver would appear to read the very handshake it
  drives).  Reads therefore exclude pure assignment-target prefixes,
  and writes resolve every statically-visible assignment target.
  When a block's writes cannot be bounded statically (writes through
  local aliases, calls into non-signal model attributes, unavailable
  source), ``blk.writes_known`` is False and the simulator schedules
  the block event-driven.
"""

from __future__ import annotations

import ast
import copy

from .ast_ir import parse_func
from .model import Model, _CombBlock
from .portbundle import PortBundle
from .signals import InPort, OutPort, Signal, Wire, _SignalSlice


class ElaborationError(Exception):
    """Raised for malformed structure (width mismatches, bad drivers)."""


def elaborate(top):
    """Elaborate ``top`` as the root of a design hierarchy."""
    if top._elaborated:
        return top
    from ..telemetry import tracing
    with tracing.span("sim.elaborate", design=type(top).__name__):
        return _elaborate(top)


def _elaborate(top):
    if top.name is None:
        top.name = "top"

    _name_model(top)

    all_models = []
    _collect_models(top, all_models)

    # Implicit clk/reset propagation from each parent to its children.
    for model in all_models:
        for child in model._submodels:
            model._connections.append((model.clk, child.clk))
            model._connections.append((model.reset, child.reset))

    connectors = []
    const_ties = []
    for model in all_models:
        for left, right in model._connections:
            _process_connection(model, left, right, connectors, const_ties)

    all_signals = []
    for model in all_models:
        all_signals.extend(_model_signals(model))

    # Collapse union-find chains: each signal points directly at its root
    # net so simulation-time reads skip the find().
    nets = {}
    for sig in all_signals:
        root = sig._net.find()
        sig._net = root
        nets[id(root)] = root
    all_nets = list(nets.values())

    for model in all_models:
        for blk in model._comb_blocks:
            if not blk.signals:
                _analyze_block(blk)
        for blk in model._tick_blocks:
            _analyze_tick(blk)

    # Hierarchical telemetry registries: counters/histograms declared
    # via Model.counter()/Model.histogram(), keyed by full dotted name.
    all_counters = {}
    all_histograms = {}
    for model in all_models:
        prefix = model.full_name()
        for cname, ctr in model._telemetry_counters.items():
            all_counters[f"{prefix}.{cname}"] = ctr
        for hname, hist in model._telemetry_histograms.items():
            all_histograms[f"{prefix}.{hname}"] = hist

    top._all_models = all_models
    top._all_signals = all_signals
    top._all_nets = all_nets
    top._connectors = connectors
    top._const_ties = const_ties
    top._all_counters = all_counters
    top._all_histograms = all_histograms
    for model in all_models:
        model._elaborated = True
    return top


# -- naming -------------------------------------------------------------------


def _name_model(model):
    """Assign names/parents to this model's signals, bundles, and
    submodels, recursing into children."""
    for attr_name, attr in list(model.__dict__.items()):
        if attr_name.startswith("_") or attr_name in ("name", "parent"):
            continue
        _name_attr(model, attr_name, attr)
    for child in model._submodels:
        _name_model(child)


def _name_attr(model, name, attr, depth=0):
    if isinstance(attr, Signal):
        attr.name = name
        attr.parent = model
    elif isinstance(attr, PortBundle):
        attr.name = name
        attr.parent = model
        for sig_name, sig in attr.get_named_signals():
            sig.name = f"{name}.{sig_name}"
            sig.parent = model
    elif isinstance(attr, Model):
        if attr.parent is None:
            attr.name = name
            attr.parent = model
            model._submodels.append(attr)
    elif isinstance(attr, list) and depth < 4:
        for i, item in enumerate(attr):
            _name_attr(model, f"{name}[{i}]", item, depth + 1)


def _collect_models(model, out):
    out.append(model)
    for child in model._submodels:
        _collect_models(child, out)


def _model_signals(model):
    signals = []
    for attr in model.__dict__.values():
        signals.extend(_attr_signals(attr))
    return signals


def _attr_signals(attr, depth=0):
    if isinstance(attr, Signal):
        return [attr]
    if isinstance(attr, PortBundle):
        return attr.get_signals()
    if isinstance(attr, list) and depth < 4:
        found = []
        for item in attr:
            found.extend(_attr_signals(item, depth + 1))
        return found
    return []


# -- connections ---------------------------------------------------------------


def _process_connection(model, left, right, connectors, const_ties):
    # Constant tie: applied once at simulator init.
    if isinstance(left, int) or isinstance(right, int):
        sig, const = (right, left) if isinstance(left, int) else (left, right)
        target = sig.signal if isinstance(sig, _SignalSlice) else sig
        if const >> _width_of(sig):
            raise ElaborationError(
                f"constant {const} too wide for {_describe(sig)}"
            )
        const_ties.append((sig, const))
        return

    if _width_of(left) != _width_of(right):
        raise ElaborationError(
            f"connected widths differ: {_describe(left)} is "
            f"{_width_of(left)}b but {_describe(right)} is {_width_of(right)}b"
        )

    if isinstance(left, Signal) and isinstance(right, Signal):
        # Full connection: merge nets (bidirectional, shared storage).
        root_l = left._net.find()
        root_r = right._net.find()
        if root_l is not root_r:
            root_r.parent = root_l
        return

    # Slice connection: directional connector, driver inferred.
    src, dst = _infer_driver(model, left, right)
    connectors.append((src, dst))


def _width_of(end):
    return end.nbits


def _describe(end):
    if isinstance(end, _SignalSlice):
        return f"{_describe(end.signal)}[{end.lo}:{end.hi}]"
    return f"{type(end).__name__} {end.name or '?'}"


def _drives(model, end):
    """Does this endpoint act as a driver from ``model``'s perspective?

    Standard structural semantics: a child's OutPort and the enclosing
    model's own InPort drive; a child's InPort and the model's own
    OutPort are driven.  Wires are bidirectional (None = unknown).
    """
    sig = end.signal if isinstance(end, _SignalSlice) else end
    inside = sig.parent is model
    if isinstance(sig, Wire):
        return None
    if isinstance(sig, OutPort):
        return not inside
    if isinstance(sig, InPort):
        return inside
    return None


def _infer_driver(model, left, right):
    l_drives = _drives(model, left)
    r_drives = _drives(model, right)
    if l_drives and r_drives:
        raise ElaborationError(
            f"both ends drive: {_describe(left)} <-> {_describe(right)}"
        )
    if l_drives or (r_drives is False):
        return left, right
    if r_drives or (l_drives is False):
        return right, left
    # Two wires sliced together: pick left as driver (documented choice).
    return left, right


# -- sensitivity + read/write inference ---------------------------------------


def _analyze_block(blk):
    """Infer sensitivity (``blk.signals``) and the precise read/write
    sets (``blk.reads``/``blk.writes``/``blk.writes_known``) of a
    combinational block.

    Parses the block's source and collects every attribute/subscript
    chain rooted at the model reference.  Dynamic indices widen to
    every element of the indexed list (a sound superset for both reads
    and writes).  Falls back to all input ports and wires — with the
    read/write sets marked unknown — when source is not available.
    """
    model = blk.model
    blk.reads = []
    blk.writes = []
    blk.writes_known = False
    try:
        func_def = parse_func(blk.func)
    except (OSError, TypeError, SyntaxError):
        blk.signals = _fallback_sensitivity(model)
        return

    if not isinstance(func_def, (ast.FunctionDef, ast.AsyncFunctionDef)):
        blk.signals = _fallback_sensitivity(model)
        return

    root_names = _model_ref_names(blk.func, model)
    if not root_names:
        blk.signals = _fallback_sensitivity(model)
        return

    # -- assignment targets: write paths + target spines ------------------
    #
    # The "spine" of a target like ``s.enq.rdy.value`` is the chain of
    # attribute/subscript nodes down to the root name.  Its inner nodes
    # carry Load context, so the plain read walk would count ``s.enq``
    # as a read of the whole bundle — a phantom read that must not
    # reach the precise read set.  Subscript *index* expressions are
    # not part of the spine; they are genuine reads.
    tainted = _tainted_locals(func_def, root_names)
    write_paths = set()
    writes_known = True
    spine_ids = set()
    for node in ast.walk(func_def):
        if isinstance(node, ast.Assign):
            targets, plain = node.targets, True
        elif isinstance(node, ast.AnnAssign):
            targets, plain = [node.target], True
        elif isinstance(node, ast.AugAssign):
            # Augmented assignment reads its target: keep the spine
            # visible to the read walk.
            targets, plain = [node.target], False
        else:
            continue
        for target in _flatten_targets(targets):
            if isinstance(target, ast.Name):
                continue            # local variable: no signal write
            path = _extract_path(target, root_names, any_ctx=True)
            if path is None:
                root = _root_name(target)
                if root is not None and root not in tainted:
                    # Subscript/attribute write into a pure local
                    # container (``routes[i] = ...``): no signal write.
                    continue
                # Write through a possible alias of a model object; the
                # written signal (if any) is not statically visible.
                writes_known = False
                continue
            write_paths.add(path)
            if plain:
                _mark_spine(target, spine_ids)

    # -- calls: method calls on non-signal model attributes may write -----
    #
    # Calls through bare names (``int``, ``len``, ``concat``, module
    # helpers) are assumed pure, as are value-accessor calls that
    # resolve to a signal (``s.count.uint()``).  A call on a
    # model-rooted path that does *not* resolve to signals (``s.helper()``,
    # ``s.buf.popleft()``) may write anything — as may a non-accessor
    # method call on a local that aliases a model object: writes
    # become unknown.
    for node in ast.walk(func_def):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)):
            continue
        path = _extract_path(node.func, root_names, any_ctx=True)
        if path is None:
            root = _root_name(node.func)
            if (root is not None and root in tainted
                    and node.func.attr not in _VALUE_ATTRS):
                writes_known = False
            continue
        resolved = _resolve_path(model, path)
        if not resolved:
            writes_known = False

    written = set()
    writes = []
    for path in write_paths:
        for sig in _resolve_path(model, path):
            if id(sig) not in written:
                written.add(id(sig))
                writes.append(sig)

    # -- read walk ---------------------------------------------------------
    paths = set()           # every load path (legacy sensitivity)
    precise_paths = set()   # loads that are not assignment-target spines
    for node in ast.walk(func_def):
        path = _extract_path(node, root_names)
        if path is not None:
            paths.add(path)
            if id(node) not in spine_ids:
                precise_paths.add(path)

    signals = []
    seen = set()
    for path in paths:
        for sig in _resolve_path(model, path):
            if id(sig) not in seen and id(sig) not in written:
                seen.add(id(sig))
                signals.append(sig)

    # Reads exclude self-written signals, mirroring the event
    # simulator's semantics: a block that writes a signal and reads it
    # back sees its own just-written value (write-before-read), which
    # is sequential Python, not combinational feedback.
    reads = []
    seen_reads = set()
    for path in precise_paths:
        for sig in _resolve_path(model, path):
            if id(sig) not in seen_reads and id(sig) not in written:
                seen_reads.add(id(sig))
                reads.append(sig)

    if not signals:
        # Nothing statically readable: mirror the event simulator's
        # conservative fallback and keep the block out of the static
        # schedule.
        blk.signals = _fallback_sensitivity(model)
        return
    blk.signals = signals
    blk.reads = reads
    blk.writes = writes
    blk.writes_known = writes_known


def _infer_sensitivity(blk):
    """Legacy entry point: return the sensitivity list only."""
    _analyze_block(blk)
    return blk.signals


_CONST_TYPES = (int, float, bool, str, bytes, type(None), type)


def _analyze_tick(blk):
    """Decide whether a tick block is *gateable*: a pure function of a
    statically-known signal read set, writing only signals.

    A gateable tick whose reads are unchanged since its last execution
    would recompute exactly the same writes, so the simulator's static
    mode may skip it — the bulk of per-cycle time in large designs is
    idle registers re-evaluating to themselves.  The analysis is
    deliberately conservative: any construct that could smuggle state
    across invocations (reads of non-signal model attributes, writes
    through aliases, generator/coroutine bodies, bare references to the
    model object) leaves ``gateable`` False and the block runs every
    cycle, exactly as in event mode.
    """
    blk.reads = []
    blk.writes = []
    blk.gateable = False
    model = blk.model
    try:
        func_def = parse_func(blk.func)
    except (OSError, TypeError, SyntaxError):
        return
    if not isinstance(func_def, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return
    # The ``@s.tick_*`` decorator would read as a bound-method access
    # on the model: not part of the block's body.  Walk a shallow copy
    # without it; the parsed tree is shared and must stay intact.
    func_def = copy.copy(func_def)
    func_def.decorator_list = []
    root_names = _model_ref_names(blk.func, model)
    if not root_names:
        return

    # Chain-base nodes: the ``.value`` child of every attribute /
    # subscript node.  A path is classified only at its maximal node;
    # inner prefixes (bundles, submodels) are covered by the outer
    # chain.  A root name used *outside* any chain passes the whole
    # model somewhere we cannot see: reject.
    chain_bases = set()
    for node in ast.walk(func_def):
        if isinstance(node, (ast.Attribute, ast.Subscript)):
            chain_bases.add(id(node.value))
    for node in ast.walk(func_def):
        if isinstance(node, (ast.Yield, ast.YieldFrom, ast.Await,
                             ast.Global, ast.Nonlocal, ast.Lambda,
                             ast.FunctionDef, ast.AsyncFunctionDef)):
            if node is not func_def:
                return
        if (isinstance(node, ast.Name) and node.id in root_names
                and id(node) not in chain_bases):
            return

    tainted = _tainted_locals(func_def, root_names)

    # Any dereference of a local that may alias a model object makes
    # the read set unreliable: reject outright.
    for node in ast.walk(func_def):
        if isinstance(node, (ast.Attribute, ast.Subscript)):
            root = _root_name(node)
            if root is not None and root in tainted:
                return

    # -- writes ------------------------------------------------------------
    write_paths = set()
    spine_ids = set()
    for node in ast.walk(func_def):
        if isinstance(node, ast.Assign):
            targets, plain = node.targets, True
        elif isinstance(node, ast.AnnAssign):
            targets, plain = [node.target], True
        elif isinstance(node, ast.AugAssign):
            targets, plain = [node.target], False
        else:
            continue
        for target in _flatten_targets(targets):
            if isinstance(target, ast.Name):
                continue
            path = _extract_path(target, root_names, any_ctx=True)
            if path is None:
                root = _root_name(target)
                if root is not None and root not in tainted:
                    continue        # pure local container write
                return              # write through a possible alias
            # Only registered updates are gateable: a ``.value`` write
            # (or a rebind of a model container slot) takes effect
            # immediately and may interleave with other writers.
            if not (isinstance(target, ast.Attribute)
                    and target.attr == "next"):
                return
            write_paths.add(path)
            if plain:
                _mark_spine(target, spine_ids)

    # -- calls must be pure ------------------------------------------------
    for node in ast.walk(func_def):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            continue                # bare-name call: assumed pure
        if not isinstance(func, ast.Attribute):
            return
        path = _extract_path(func, root_names, any_ctx=True)
        if path is not None:
            if not _resolve_path(model, path):
                return              # method on non-signal model state
            continue
        root = _root_name(func)
        if (root is not None and root in tainted
                and func.attr not in _VALUE_ATTRS):
            return

    writes = []
    written = set()
    for path in write_paths:
        sigs = _resolve_path(model, path)
        if not sigs:
            return                  # writes plain model state
        for sig in sigs:
            if id(sig) not in written:
                written.add(id(sig))
                writes.append(sig)

    # -- reads: every maximal model-rooted path must resolve to signals
    #    or immutable constants -------------------------------------------
    reads = []
    seen = set()
    for node in ast.walk(func_def):
        if id(node) in chain_bases or id(node) in spine_ids:
            continue
        path = _extract_path(node, root_names)
        if path is None:
            continue
        objs = _walk_path(model, path)
        if not objs:
            return                  # unresolvable (dynamic attribute)
        sigs = []
        for obj in objs:
            if isinstance(obj, _SignalSlice):
                sigs.append(obj.signal)
            elif isinstance(obj, Signal):
                sigs.append(obj)
            elif isinstance(obj, PortBundle):
                sigs.extend(obj.get_signals())
            elif isinstance(obj, list):
                if not all(isinstance(s, Signal) for s in obj):
                    return
                sigs.extend(obj)
            elif not isinstance(obj, _CONST_TYPES):
                return              # mutable non-signal state
        for sig in sigs:
            if id(sig) not in seen:
                seen.add(id(sig))
                reads.append(sig)

    blk.reads = reads
    blk.writes = writes
    blk.gateable = True


def _flatten_targets(targets):
    """Expand tuple/list/starred assignment targets into leaves."""
    leaves = []
    stack = list(targets)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Tuple, ast.List)):
            stack.extend(node.elts)
        elif isinstance(node, ast.Starred):
            stack.append(node.value)
        else:
            leaves.append(node)
    return leaves


def _mark_spine(target, spine_ids):
    """Record the attribute/subscript chain of an assignment target so
    the read walk can skip it (indices stay readable)."""
    cur = target
    while isinstance(cur, (ast.Attribute, ast.Subscript)):
        spine_ids.add(id(cur))
        cur = cur.value


def _root_name(node):
    """The root ``Name`` id of an attribute/subscript chain, or None
    when the chain is rooted in something else (a call result, etc.)."""
    cur = node
    while isinstance(cur, (ast.Attribute, ast.Subscript)):
        cur = cur.value
    return cur.id if isinstance(cur, ast.Name) else None


def _tainted_locals(func_def, root_names):
    """Local names that may alias model-owned objects (signals,
    bundles, submodels).

    A write through an untainted local (``routes[i] = ...``) is a pure
    Python container update; a write through a tainted one may reach a
    signal, so the caller must treat the block's write set as unknown.
    Taint flows from model-rooted paths, call results (conservative),
    other tainted names, and ``for`` targets whose iterable is not a
    plain ``range``/``enumerate``/``zip`` over untainted values.
    """
    def expr_taints(node, tainted):
        if isinstance(node, (ast.Attribute, ast.Subscript)):
            root = _root_name(node)
            return root is None or root in root_names or root in tainted
        if isinstance(node, ast.Name):
            return node.id in root_names or node.id in tainted
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in (
                    "range", "enumerate", "zip", "len", "min", "max",
                    "int", "bool", "abs"):
                return any(expr_taints(a, tainted) for a in node.args)
            return True
        if isinstance(node, ast.IfExp):
            return (expr_taints(node.body, tainted)
                    or expr_taints(node.orelse, tainted))
        if isinstance(node, (ast.Tuple, ast.List)):
            return any(expr_taints(e, tainted) for e in node.elts)
        if isinstance(node, ast.Starred):
            return expr_taints(node.value, tainted)
        return False

    tainted = set()
    # Flow-insensitive fixpoint: taint propagates through chained
    # local assignments regardless of statement order.
    while True:
        before = len(tainted)
        for node in ast.walk(func_def):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                value = node.value
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
            elif isinstance(node, ast.NamedExpr):
                value, targets = node.value, [node.target]
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                value, targets = node.iter, [node.target]
            elif isinstance(node, ast.comprehension):
                value, targets = node.iter, [node.target]
            elif isinstance(node, (ast.withitem,)):
                if node.optional_vars is None:
                    continue
                value, targets = node.context_expr, [node.optional_vars]
            else:
                continue
            if value is None or not expr_taints(value, tainted):
                continue
            for target in _flatten_targets(targets):
                if isinstance(target, ast.Name):
                    tainted.add(target.id)
        if len(tainted) == before:
            return tainted


def _model_ref_names(func, model):
    """Names in the function's closure/globals bound to the model."""
    names = set()
    code = func.__code__
    if func.__closure__:
        for var, cell in zip(code.co_freevars, func.__closure__):
            try:
                if cell.cell_contents is model:
                    names.add(var)
            except ValueError:
                pass
    for var, val in func.__globals__.items():
        if val is model:
            names.add(var)
    return names


_VALUE_ATTRS = {"value", "next", "uint", "int"}
_WILDCARD = "*"


def _extract_path(node, root_names, any_ctx=False):
    """If ``node`` is a read of ``<root>.a[i].b...``, return the access
    path as a tuple; otherwise None.  Only Load contexts count unless
    ``any_ctx`` is set (used for assignment targets)."""
    if not isinstance(node, (ast.Attribute, ast.Subscript)):
        return None
    if not any_ctx and not isinstance(getattr(node, "ctx", None), ast.Load):
        return None
    parts = []
    cur = node
    while True:
        if isinstance(cur, ast.Attribute):
            parts.append(("attr", cur.attr))
            cur = cur.value
        elif isinstance(cur, ast.Subscript):
            idx = cur.slice
            if isinstance(idx, ast.Constant) and isinstance(idx.value, int):
                parts.append(("index", idx.value))
            else:
                parts.append(("index", _WILDCARD))
            cur = cur.value
        elif isinstance(cur, ast.Name):
            if cur.id in root_names:
                parts.reverse()
                # Strip trailing .value/.next/.uint accessor.
                while parts and parts[-1][0] == "attr" \
                        and parts[-1][1] in _VALUE_ATTRS:
                    parts.pop()
                return tuple(parts) if parts else None
            return None
        else:
            return None


def _walk_path(model, path):
    """Resolve an access path against the live model, returning the
    raw objects it reaches."""
    objs = [model]
    for kind, key in path:
        next_objs = []
        for obj in objs:
            if isinstance(obj, (Signal, _SignalSlice)):
                # Deeper access on a signal (slices, struct fields) still
                # reads the same underlying signal.
                next_objs.append(obj)
                continue
            if kind == "attr":
                try:
                    got = getattr(obj, key)
                except AttributeError:
                    continue
                next_objs.append(got)
            else:
                if isinstance(obj, list):
                    if key == _WILDCARD:
                        next_objs.extend(obj)
                    elif isinstance(key, int) and key < len(obj):
                        next_objs.append(obj[key])
        objs = next_objs
    return objs


def _resolve_path(model, path):
    """Resolve an access path against the live model, returning the
    signals it touches."""
    signals = []
    for obj in _walk_path(model, path):
        if isinstance(obj, _SignalSlice):
            signals.append(obj.signal)
        elif isinstance(obj, Signal):
            signals.append(obj)
        elif isinstance(obj, PortBundle):
            signals.extend(obj.get_signals())
        elif isinstance(obj, list):
            signals.extend(s for s in obj if isinstance(s, Signal))
    return signals


def _fallback_sensitivity(model):
    return model.get_inports() + model.get_wires()
