"""C code generation from behavioral-block IR.

SimJIT's backend (paper Section IV-A): lowers :class:`BlockIR`
statements and expressions into C.  The generated translation unit
models every signal net as an ``unsigned __int128`` slot (wide enough
for the 65-bit memory messages) in a ``cur``/``nxt`` double-buffered
state array:

- combinational blocks read and write ``cur`` with change detection
  (the ``comb_changed`` flag drives the fixpoint loop);
- tick blocks read ``cur`` and write ``nxt``; the clock edge copies
  ``nxt`` into ``cur``;
- local variables are ``int64_t`` (signed, so idioms like
  ``sa = a - 0x100000000`` compare correctly);
- plain CL state becomes static ``int64_t`` variables/arrays.

Blocks are emitted as *canonical bodies*: a body reaches nets only
through a per-instance slot table ``N`` (``I->cur[N[k]]``), and a
dynamically indexed signal list (``s.rf[rd]``) is a contiguous segment
of that table (``I->cur[N[b + (int)(rd)]]``).  The text of a body then
no longer depends on which instance it came from, so every instance of
a model type shares one C function and adds only its slot table.
"""

from __future__ import annotations

from ..ast_ir import (
    AssignLocal,
    AssignSig,
    AssignState,
    BinOp,
    BoolOp,
    Break,
    Cmp,
    Concat,
    Const,
    Continue,
    DeclLocalArray,
    For,
    If,
    IfExp,
    LocalRead,
    SigRead,
    SigRef,
    StateRead,
    StateRef,
    TranslationError,
    UnOp,
)

C_PRELUDE = r"""
#include <stdint.h>
#include <string.h>
#include <stdlib.h>

typedef unsigned __int128 u128;

#define NNETS @NNETS@

static inline u128 mask_of(int width) {
    if (width >= 128) return (u128)-1;
    return (((u128)1) << width) - 1;
}

/* Python floor-division semantics for signed operands (C truncates
   toward zero; Python floors).  Subset values passed through these are
   bounded well below 2^63. */
static inline int64_t py_mod(int64_t a, int64_t b) {
    int64_t r = a % b;
    if (r != 0 && ((r < 0) != (b < 0))) r += b;
    return r;
}

static inline int64_t py_floordiv(int64_t a, int64_t b) {
    int64_t q = a / b;
    if ((a % b != 0) && ((a < 0) != (b < 0))) q -= 1;
    return q;
}
"""

# The instance struct is emitted by the specializer (it knows the CL
# state variables); every generated function takes an `inst_t *I`, so
# multiple instances of the same compiled model never share state.
C_API = r"""
/* ---- external API (cffi) ---- */

void *new_instance(void) {
    inst_t *I = (inst_t *)calloc(1, sizeof(inst_t));
    init_instance(I);
    return I;
}

void free_instance(void *p) {
    free(p);
}

void set_net(void *p, int idx, uint64_t lo, uint64_t hi) {
    inst_t *I = (inst_t *)p;
    I->cur[idx] = (((u128)hi << 64) | lo) & mask_of(net_width[idx]);
}

void get_net(void *p, int idx, uint64_t *out) {
    inst_t *I = (inst_t *)p;
    out[0] = (uint64_t)I->cur[idx];
    out[1] = (uint64_t)(I->cur[idx] >> 64);
}

int eval_comb(void *p) {
    /* Fixpoint over whole-state snapshots: a block may legitimately
       write a net twice per pass (clear-then-set), so per-write change
       flags would never settle.  Blocks are statically scheduled in
       dependency order, so this usually converges in two passes. */
    inst_t *I = (inst_t *)p;
    int iters = 0;
    do {
        memcpy(I->prev, I->cur, sizeof(I->cur));
        run_comb_blocks(I);
        iters++;
        if (iters > 64) return -1;   /* combinational loop */
    } while (memcmp(I->prev, I->cur, sizeof(I->cur)) != 0);
    return iters;
}

int cycle(void *p, int n) {
    inst_t *I = (inst_t *)p;
    for (int i = 0; i < n; i++) {
        if (eval_comb(p) < 0) return -1;
        memcpy(I->nxt, I->cur, sizeof(I->cur));
        run_tick_blocks(I);
        memcpy(I->cur, I->nxt, sizeof(I->cur));
        if (eval_comb(p) < 0) return -1;
    }
    return 0;
}

int64_t get_state(void *p, int idx) {
    return state_probe_at((inst_t *)p, idx, 0);
}

int64_t get_state_at(void *p, int idx, int elem) {
    return state_probe_at((inst_t *)p, idx, elem);
}

void get_nets(void *p, const int *idxs, int n, uint64_t *out) {
    inst_t *I = (inst_t *)p;
    for (int i = 0; i < n; i++) {
        u128 v = I->cur[idxs[i]];
        out[2 * i] = (uint64_t)v;
        out[2 * i + 1] = (uint64_t)(v >> 64);
    }
}

void set_state_at(void *p, int idx, int elem, int64_t value) {
    state_poke_at((inst_t *)p, idx, elem, value);
}

/* Checkpoint/restore: inst_t is a flat POD struct (net arrays + plain
   int64 state), so one memcpy captures and restores the entire
   simulation state of an instance. */
size_t inst_size(void) {
    return sizeof(inst_t);
}

void save_inst(void *p, char *buf) {
    memcpy(buf, p, sizeof(inst_t));
}

void load_inst(void *p, const char *buf) {
    memcpy(p, buf, sizeof(inst_t));
}
"""

# Compiled-instrumentation runtime, appended to every translation unit.
#
# All observability state lives in a heap side-struct (``obs_t``)
# separate from ``inst_t``, so the checkpoint blob (``save_inst``/
# ``load_inst``) is unaffected by armed instrumentation.  The runtime
# is *data-driven*: recorder taps, val/rdy taps, histogram probes, and
# watchpoint node trees are registered at run time through the API
# below, so one compiled ``.so`` serves any set of attachments and the
# content-addressed artifact cache stays effective.
#
# ``obs_run`` replicates the per-cycle sampling contract of the
# interpreted simulator exactly:
#
# - val/rdy taps sample after the *pre-edge* settle with the
#   pre-increment cycle stamp (the cycle-hook sampling point);
# - recorder taps, histogram probes, and watchpoint nodes sample after
#   the *post-edge* settle with the post-increment stamp (the observer
#   sampling point);
# - watchpoint ``&`` evaluates both operands unconditionally (edge
#   trackers must see every cycle), and a hit stops the batch so
#   Python-side actions fire at the exact cycle.
#
# Taps emit change-compressed events into preallocated buffers; a
# batch ends early (return < n) when a buffer could overflow on the
# next cycle, letting Python drain and resume losslessly.
C_OBS = r"""
/* ---- compiled instrumentation runtime ---- */

#define OBS_MAX_REC 128
#define OBS_MAX_TX 256
#define OBS_MAX_NODES 512
#define OBS_MAX_WP 64
#define OBS_MAX_HIST 64
#define OBS_HIST_CAP 1024

typedef struct {
    int kind;           /* 0 rose 1 fell 2 changed 3 value_is
                           4 and 5 or 6 not */
    int slot;           /* net slot (kinds 0-3) */
    int a, b;           /* operand node indices (kinds 4-6) */
    u128 aux;           /* comparison value (kind 3) */
    u128 prev;          /* previous value (kinds 0-2) */
} obs_node_t;

typedef struct {
    inst_t *I;
    long long cycle;    /* mirrors sim.ncycles */
    /* flight-recorder taps: change events (cycle, tap, lo, hi) */
    int nrec;
    int rec_slot[OBS_MAX_REC];
    u128 rec_last[OBS_MAX_REC];
    long long rec_cap, rec_len;
    uint64_t *rec_buf;
    /* val/rdy taps: run-boundary events (cycle, tap, vr, lo, hi) */
    int ntx;
    int tx_val[OBS_MAX_TX], tx_rdy[OBS_MAX_TX], tx_msg[OBS_MAX_TX];
    u128 tx_lmsg[OBS_MAX_TX];
    unsigned char tx_lvr[OBS_MAX_TX], tx_seen[OBS_MAX_TX];
    long long tx_cap, tx_len;
    uint64_t *tx_buf;
    /* signal-backed histograms: open-addressed value->count tables */
    int nhist;
    int hist_slot[OBS_MAX_HIST], hist_when[OBS_MAX_HIST];
    int hist_used[OBS_MAX_HIST];
    int64_t *hist_vals;
    long long *hist_cnts;
    /* watchpoints: flat postorder node forest, one root per wp */
    int nnodes, nwp;
    obs_node_t nodes[OBS_MAX_NODES];
    unsigned char nval[OBS_MAX_NODES];
    int wp_root[OBS_MAX_WP];
    long long hit_cycle;
    uint64_t hit_mask;
} obs_t;

void *obs_new(void *inst, long long rec_cap, long long tx_cap) {
    obs_t *O = (obs_t *)calloc(1, sizeof(obs_t));
    if (!O) return 0;
    O->I = (inst_t *)inst;
    O->rec_cap = rec_cap;
    O->tx_cap = tx_cap;
    O->rec_buf = (uint64_t *)malloc((size_t)rec_cap * 4 * 8);
    O->tx_buf = (uint64_t *)malloc((size_t)tx_cap * 5 * 8);
    O->hit_cycle = -1;
    return O;
}

void obs_free(void *op) {
    obs_t *O = (obs_t *)op;
    if (!O) return;
    free(O->rec_buf);
    free(O->tx_buf);
    free(O->hist_vals);
    free(O->hist_cnts);
    free(O);
}

void obs_set_cycle(void *op, long long cycle) {
    ((obs_t *)op)->cycle = cycle;
}

int obs_add_rec_tap(void *op, int slot) {
    obs_t *O = (obs_t *)op;
    if (O->nrec >= OBS_MAX_REC) return -1;
    O->rec_slot[O->nrec] = slot;
    O->rec_last[O->nrec] = O->I->cur[slot];
    return O->nrec++;
}

void obs_del_rec_tap(void *op, int idx) {
    ((obs_t *)op)->rec_slot[idx] = -1;
}

int obs_add_tx_tap(void *op, int val, int rdy, int msg) {
    obs_t *O = (obs_t *)op;
    if (O->ntx >= OBS_MAX_TX) return -1;
    O->tx_val[O->ntx] = val;
    O->tx_rdy[O->ntx] = rdy;
    O->tx_msg[O->ntx] = msg;
    O->tx_seen[O->ntx] = 0;
    return O->ntx++;
}

void obs_del_tx_tap(void *op, int idx) {
    ((obs_t *)op)->tx_val[idx] = -1;
}

void obs_tx_rearm(void *op, int idx) {
    /* Force a boundary event at the next sampled cycle (used after
       monitor resets so the replay re-observes the live values). */
    ((obs_t *)op)->tx_seen[idx] = 0;
}

int obs_add_hist(void *op, int slot, int when_slot) {
    obs_t *O = (obs_t *)op;
    if (O->nhist >= OBS_MAX_HIST) return -1;
    if (!O->hist_vals) {
        O->hist_vals = (int64_t *)calloc(
            (size_t)OBS_MAX_HIST * OBS_HIST_CAP, 8);
        O->hist_cnts = (long long *)calloc(
            (size_t)OBS_MAX_HIST * OBS_HIST_CAP, 8);
        if (!O->hist_vals || !O->hist_cnts) return -1;
    }
    O->hist_slot[O->nhist] = slot;
    O->hist_when[O->nhist] = when_slot;
    return O->nhist++;
}

void obs_del_hist(void *op, int idx) {
    ((obs_t *)op)->hist_slot[idx] = -1;
}

long long obs_hist_drain(void *op, int idx, int64_t *vals,
                         long long *cnts) {
    obs_t *O = (obs_t *)op;
    int64_t *tv = O->hist_vals + (long long)idx * OBS_HIST_CAP;
    long long *tc = O->hist_cnts + (long long)idx * OBS_HIST_CAP;
    long long n = 0;
    if (!O->hist_vals) return 0;
    for (int i = 0; i < OBS_HIST_CAP; i++) {
        if (tc[i] != 0) {
            vals[n] = tv[i];
            cnts[n] = tc[i];
            tc[i] = 0;
            n++;
        }
    }
    O->hist_used[idx] = 0;
    return n;
}

int obs_add_watch(void *op, int nnodes, const int64_t *packed) {
    /* ``packed`` holds 6 words per node: kind, slot, a, b, aux_lo,
       aux_hi; a/b are indices relative to the first added node. */
    obs_t *O = (obs_t *)op;
    int base = O->nnodes;
    if (O->nwp >= OBS_MAX_WP || base + nnodes > OBS_MAX_NODES)
        return -1;
    for (int i = 0; i < nnodes; i++) {
        obs_node_t *nd = &O->nodes[base + i];
        const int64_t *w = packed + 6 * i;
        nd->kind = (int)w[0];
        nd->slot = (int)w[1];
        nd->a = w[2] < 0 ? -1 : base + (int)w[2];
        nd->b = w[3] < 0 ? -1 : base + (int)w[3];
        nd->aux = ((u128)(uint64_t)w[5] << 64) | (uint64_t)w[4];
        nd->prev = (nd->kind <= 2) ? O->I->cur[nd->slot] : 0;
    }
    O->nnodes = base + nnodes;
    O->wp_root[O->nwp] = base + nnodes - 1;
    return O->nwp++;
}

void obs_del_watch(void *op, int idx) {
    ((obs_t *)op)->wp_root[idx] = -1;
}

long long obs_hit_cycle(void *op) { return ((obs_t *)op)->hit_cycle; }
uint64_t obs_hit_mask(void *op) { return ((obs_t *)op)->hit_mask; }

long long obs_rec_drain(void *op, uint64_t *out) {
    obs_t *O = (obs_t *)op;
    long long n = O->rec_len;
    if (n) memcpy(out, O->rec_buf, (size_t)n * 4 * 8);
    O->rec_len = 0;
    return n;
}

long long obs_tx_drain(void *op, uint64_t *out) {
    obs_t *O = (obs_t *)op;
    long long n = O->tx_len;
    if (n) memcpy(out, O->tx_buf, (size_t)n * 5 * 8);
    O->tx_len = 0;
    return n;
}

long long obs_run(void *op, long long n) {
    obs_t *O = (obs_t *)op;
    inst_t *I = O->I;
    O->hit_cycle = -1;
    O->hit_mask = 0;
    for (long long k = 0; k < n; k++) {
        /* Stop before a cycle whose worst case could overflow a
           buffer; the caller drains and resumes. */
        if (O->nrec && O->rec_len + O->nrec > O->rec_cap) return k;
        if (O->ntx && O->tx_len + O->ntx > O->tx_cap) return k;
        for (int h = 0; h < O->nhist; h++)
            if (O->hist_slot[h] >= 0
                    && O->hist_used[h] > OBS_HIST_CAP - 64)
                return k;
        if (eval_comb(I) < 0) return -1;
        /* pre-edge sampling point (cycle-hook semantics) */
        for (int t = 0; t < O->ntx; t++) {
            unsigned char vr;
            u128 msg;
            if (O->tx_val[t] < 0) continue;
            vr = (unsigned char)(
                ((I->cur[O->tx_val[t]] != 0) ? 1 : 0)
                | ((I->cur[O->tx_rdy[t]] != 0) ? 2 : 0));
            msg = I->cur[O->tx_msg[t]];
            if (!O->tx_seen[t] || vr != O->tx_lvr[t]
                    || msg != O->tx_lmsg[t]) {
                uint64_t *e = O->tx_buf + 5 * O->tx_len++;
                e[0] = (uint64_t)O->cycle;
                e[1] = (uint64_t)t;
                e[2] = vr;
                e[3] = (uint64_t)msg;
                e[4] = (uint64_t)(msg >> 64);
                O->tx_seen[t] = 1;
                O->tx_lvr[t] = vr;
                O->tx_lmsg[t] = msg;
            }
        }
        memcpy(I->nxt, I->cur, sizeof(I->cur));
        run_tick_blocks(I);
        memcpy(I->cur, I->nxt, sizeof(I->cur));
        if (eval_comb(I) < 0) return -1;
        O->cycle++;
        /* post-edge sampling point (observer semantics) */
        for (int t = 0; t < O->nrec; t++) {
            u128 v;
            if (O->rec_slot[t] < 0) continue;
            v = I->cur[O->rec_slot[t]];
            if (v != O->rec_last[t]) {
                uint64_t *e = O->rec_buf + 4 * O->rec_len++;
                O->rec_last[t] = v;
                e[0] = (uint64_t)O->cycle;
                e[1] = (uint64_t)t;
                e[2] = (uint64_t)v;
                e[3] = (uint64_t)(v >> 64);
            }
        }
        for (int h = 0; h < O->nhist; h++) {
            int64_t v;
            int64_t *vals;
            long long *cnts;
            uint64_t idx;
            if (O->hist_slot[h] < 0) continue;
            if (O->hist_when[h] >= 0
                    && I->cur[O->hist_when[h]] == 0) continue;
            v = (int64_t)I->cur[O->hist_slot[h]];
            vals = O->hist_vals + (long long)h * OBS_HIST_CAP;
            cnts = O->hist_cnts + (long long)h * OBS_HIST_CAP;
            idx = ((uint64_t)v * 0x9E3779B97F4A7C15ULL) >> 54;
            for (;;) {
                idx &= (OBS_HIST_CAP - 1);
                if (cnts[idx] == 0) {
                    vals[idx] = v;
                    cnts[idx] = 1;
                    O->hist_used[h]++;
                    break;
                }
                if (vals[idx] == v) { cnts[idx]++; break; }
                idx++;
            }
        }
        if (O->nnodes) {
            uint64_t mask = 0;
            for (int i = 0; i < O->nnodes; i++) {
                obs_node_t *nd = &O->nodes[i];
                unsigned char r = 0;
                u128 v;
                switch (nd->kind) {
                    case 0:
                        v = I->cur[nd->slot];
                        r = (nd->prev == 0) && (v != 0);
                        nd->prev = v;
                        break;
                    case 1:
                        v = I->cur[nd->slot];
                        r = (nd->prev != 0) && (v == 0);
                        nd->prev = v;
                        break;
                    case 2:
                        v = I->cur[nd->slot];
                        r = (v != nd->prev);
                        nd->prev = v;
                        break;
                    case 3:
                        r = (I->cur[nd->slot] == nd->aux);
                        break;
                    case 4:
                        r = O->nval[nd->a] & O->nval[nd->b];
                        break;
                    case 5:
                        r = O->nval[nd->a] | O->nval[nd->b];
                        break;
                    default:
                        r = !O->nval[nd->a];
                        break;
                }
                O->nval[i] = r;
            }
            for (int w = 0; w < O->nwp; w++)
                if (O->wp_root[w] >= 0 && O->nval[O->wp_root[w]])
                    mask |= ((uint64_t)1) << w;
            if (mask) {
                O->hit_cycle = O->cycle;
                O->hit_mask = mask;
                return k + 1;
            }
        }
    }
    return n;
}

/* Bulk counter readback: one call reads any mix of net slots and CL
   state probes (req holds (kind, idx, elem) triples; kind 0 = net,
   kind 1 = state).  Each answer is two uint64 words (lo, hi). */
void read_probes(void *p, const int64_t *req, int n, uint64_t *out) {
    inst_t *I = (inst_t *)p;
    for (int i = 0; i < n; i++) {
        const int64_t *r = req + 3 * i;
        if (r[0] == 0) {
            u128 v = I->cur[(int)r[1]];
            out[2 * i] = (uint64_t)v;
            out[2 * i + 1] = (uint64_t)(v >> 64);
        } else {
            out[2 * i] = (uint64_t)state_probe_at(
                I, (int)r[1], (int)r[2]);
            out[2 * i + 1] = 0;
        }
    }
}
"""

C_OBS_DECLS = """
void *obs_new(void *inst, long long rec_cap, long long tx_cap);
void obs_free(void *op);
void obs_set_cycle(void *op, long long cycle);
int obs_add_rec_tap(void *op, int slot);
void obs_del_rec_tap(void *op, int idx);
int obs_add_tx_tap(void *op, int val, int rdy, int msg);
void obs_del_tx_tap(void *op, int idx);
void obs_tx_rearm(void *op, int idx);
int obs_add_hist(void *op, int slot, int when_slot);
void obs_del_hist(void *op, int idx);
long long obs_hist_drain(void *op, int idx, int64_t *vals,
                         long long *cnts);
int obs_add_watch(void *op, int nnodes, const int64_t *packed);
void obs_del_watch(void *op, int idx);
long long obs_hit_cycle(void *op);
uint64_t obs_hit_mask(void *op);
long long obs_rec_drain(void *op, uint64_t *out);
long long obs_tx_drain(void *op, uint64_t *out);
long long obs_run(void *op, long long n);
void read_probes(void *p, const int64_t *req, int n, uint64_t *out);
"""

# Python-side mirrors of the C capacity limits (arming code checks
# these before registering so a full runtime degrades to hooks).
OBS_MAX_REC = 128
OBS_MAX_TX = 256
OBS_MAX_NODES = 512
OBS_MAX_WP = 64
OBS_MAX_HIST = 64

C_HEADER_DECLS = """
void *new_instance(void);
void free_instance(void *p);
void set_net(void *p, int idx, uint64_t lo, uint64_t hi);
void get_net(void *p, int idx, uint64_t *out);
int eval_comb(void *p);
int cycle(void *p, int n);
int64_t get_state(void *p, int idx);
int64_t get_state_at(void *p, int idx, int elem);
void get_nets(void *p, const int *idxs, int n, uint64_t *out);
void set_state_at(void *p, int idx, int elem, int64_t value);
size_t inst_size(void);
void save_inst(void *p, char *buf);
void load_inst(void *p, const char *buf);
"""


class CBackend:
    """Emits behavioral blocks as shared canonical C bodies.

    :meth:`block_call` lowers one block to a body whose net accesses
    all go through the slot table ``N``: ``N[k]`` is the block's k-th
    distinct slot in order of first use, and each dynamically indexed
    signal list takes a contiguous segment of ``N``.  The body text is
    the dedupe key: the first block with a given text defines
    ``static void blk_<j>(inst_t *I, const int *N)`` (collected in
    :attr:`functions`), and every block only adds a slot table
    (:meth:`emit_tables`) and a call.  Blocks whose text names
    per-instance CL state (``st_m<i>_<attr>``) or folds per-instance
    constants simply get bodies of their own.
    """

    def __init__(self, slot_of, state_cname=None):
        """``slot_of(signal) -> int`` maps a signal to its net slot;
        ``state_cname(ref) -> str`` names a CL state variable in C
        (must be unique per (model, attribute))."""
        self.slot_of = slot_of
        self.state_cname = state_cname or (lambda ref: _sname(ref.name))
        self.functions = []        # one C definition per distinct body
        self._bodies = {}          # body text -> function name
        self._tables = {}          # slot tuple -> table name
        self._offsets = {}         # current block: slot(s) -> offset in N
        self._slots = []           # current block: contents of N

    def block_call(self, ir):
        """Lower one block; return the C statement that runs it."""
        self._offsets = {}
        self._slots = []
        body = self._block_body(ir)
        name = self._bodies.get(body)
        if name is None:
            name = self._bodies[body] = f"blk_{len(self._bodies)}"
            self.functions.append(
                f"/* {type(ir.model).__name__}.{ir.name} */\n"
                f"static void {name}{body}")
        if not self._slots:
            return f"{name}(I, 0);"
        slots = tuple(self._slots)
        table = self._tables.setdefault(slots, f"slots{len(self._tables)}")
        return f"{name}(I, {table});"

    def emit_tables(self):
        lines = []
        for slots, name in self._tables.items():
            body = ", ".join(str(s) for s in slots)
            lines.append(
                f"static const int {name}[{len(slots)}] = {{{body}}};"
            )
        return "\n".join(lines)

    # -- references ---------------------------------------------------------------

    def _offset(self, slots):
        """Offset in ``N`` of a slot tuple, appended on first use."""
        offset = self._offsets.get(slots)
        if offset is None:
            offset = self._offsets[slots] = len(self._slots)
            self._slots.extend(slots)
        return offset

    def slot_expr(self, ref):
        if ref.is_dynamic():
            base = self._offset(
                tuple(self.slot_of(sig) for sig in ref.signals))
            return f"N[{base} + (int)({self.expr(ref.index)})]"
        return f"N[{self._offset((self.slot_of(ref.signal),))}]"

    def sig_read(self, ref, array="cur"):
        slot = self.slot_expr(ref)
        base = f"I->{array}[{slot}]"
        width = ref.width
        if ref.lo == 0 and ref.hi is None:
            # Full-width read; nets are stored masked already.
            return f"({base})"
        return (f"(({base} >> {ref.lo}) & mask_of({width}))")

    def sig_write(self, ref, value_c, is_next, indent):
        array = "nxt" if is_next else "cur"
        slot = self.slot_expr(ref)
        width = ref.width
        full = ref.lo == 0 and ref.hi is None
        pad = " " * indent
        lines = [f"{pad}{{"]
        lines.append(f"{pad}  u128 _v = ((u128)({value_c})) & "
                     f"mask_of({width});")
        if full:
            lines.append(f"{pad}  u128 _nv = _v;")
        else:
            lines.append(
                f"{pad}  u128 _nv = (I->{array}[{slot}] & "
                f"~(mask_of({width}) << {ref.lo})) | (_v << {ref.lo});"
            )
        lines.append(f"{pad}  I->{array}[{slot}] = _nv;")
        lines.append(f"{pad}}}")
        return "\n".join(lines)

    # -- expressions ------------------------------------------------------------------

    def expr(self, node):
        if isinstance(node, Const):
            value = node.value
            if value < 0:
                return f"((int64_t)({value}LL))"
            if value > 0x7FFFFFFFFFFFFFFF:
                hi, lo = value >> 64, value & ((1 << 64) - 1)
                return f"((((u128){hi}ULL) << 64) | {lo}ULL)"
            return f"({value}LL)"
        if isinstance(node, SigRead):
            return self.sig_read(node.ref)
        if isinstance(node, StateRead):
            return self.state_read(node.ref)
        if isinstance(node, LocalRead):
            if node.index is not None:
                return f"{_lname(node.name)}[(int)({self.expr(node.index)})]"
            return _lname(node.name)
        if isinstance(node, BinOp):
            left, right = self.expr(node.left), self.expr(node.right)
            if node.op == "//":
                return (f"py_floordiv((int64_t)({left}), "
                        f"(int64_t)({right}))")
            if node.op == "%":
                return f"py_mod((int64_t)({left}), (int64_t)({right}))"
            return f"({left} {node.op} {right})"
        if isinstance(node, UnOp):
            return f"({node.op}({self.expr(node.operand)}))"
        if isinstance(node, Cmp):
            return (f"(({self.expr(node.left)}) {node.op} "
                    f"({self.expr(node.right)}))")
        if isinstance(node, BoolOp):
            joined = f" {node.op} ".join(
                f"(({self.expr(v)}) != 0)" for v in node.values
            )
            return f"({joined})"
        if isinstance(node, IfExp):
            return (f"((({self.expr(node.cond)}) != 0) ? "
                    f"({self.expr(node.then)}) : ({self.expr(node.orelse)}))")
        if isinstance(node, Concat):
            parts = []
            shift = sum(w for _, w in node.parts)
            for expr, width in node.parts:
                shift -= width
                parts.append(f"((((u128)({self.expr(expr)})) & "
                             f"mask_of({width})) << {shift})")
            return "(" + " | ".join(parts) + ")"
        raise TranslationError(f"cgen: unknown expr {type(node).__name__}")

    # -- CL plain state ---------------------------------------------------------------

    def state_read(self, ref):
        name = f"I->{self.state_cname(ref)}"
        if ref.index is not None:
            return f"{name}[(int)({self.expr(ref.index)})]"
        return name

    def state_write(self, ref, value_c, indent):
        pad = " " * indent
        name = f"I->{self.state_cname(ref)}"
        if ref.index is not None:
            return (f"{pad}{name}[(int)({self.expr(ref.index)})] = "
                    f"(int64_t)({value_c});")
        return f"{pad}{name} = (int64_t)({value_c});"

    # -- statements --------------------------------------------------------------------

    def stmt(self, node, indent=2):
        pad = " " * indent
        if isinstance(node, AssignSig):
            return self.sig_write(node.ref, self.expr(node.expr),
                                  node.is_next, indent)
        if isinstance(node, AssignState):
            return self.state_write(node.ref, self.expr(node.expr), indent)
        if isinstance(node, AssignLocal):
            name = _lname(node.name)
            if node.index is not None:
                return (f"{pad}{name}[(int)({self.expr(node.index)})] = "
                        f"(int64_t)({self.expr(node.expr)});")
            return f"{pad}{name} = (int64_t)({self.expr(node.expr)});"
        if isinstance(node, DeclLocalArray):
            name = _lname(node.name)
            fill = self.expr(node.init)
            return (f"{pad}for (int _i = 0; _i < {node.size}; _i++) "
                    f"{name}[_i] = {fill};")
        if isinstance(node, If):
            lines = [f"{pad}if (({self.expr(node.cond)}) != 0) {{"]
            lines.extend(self.stmt(s, indent + 2) for s in node.body)
            if node.orelse:
                lines.append(f"{pad}}} else {{")
                lines.extend(self.stmt(s, indent + 2) for s in node.orelse)
            lines.append(f"{pad}}}")
            return "\n".join(lines)
        if isinstance(node, For):
            var = _lname(node.var)
            lines = [
                f"{pad}for ({var} = {node.start}; {var} < {node.stop}; "
                f"{var} += {node.step}) {{"
            ]
            lines.extend(self.stmt(s, indent + 2) for s in node.body)
            lines.append(f"{pad}}}")
            return "\n".join(lines)
        if isinstance(node, Break):
            return f"{pad}break;"
        if isinstance(node, Continue):
            return f"{pad}continue;"
        raise TranslationError(f"cgen: unknown stmt {type(node).__name__}")

    def _block_body(self, ir):
        """The C parameter list and body of a lowered block."""
        lines = ["(inst_t *I, const int *N) {", "  (void)I; (void)N;"]
        for name, ltype in ir.locals.items():
            if ltype == "int":
                lines.append(f"  int64_t {_lname(name)} = 0;")
            else:
                lines.append(f"  int64_t {_lname(name)}[{ltype[1]}];")
        for stmt in ir.body:
            lines.append(self.stmt(stmt, 2))
        lines.append("}")
        return "\n".join(lines)


def _lname(name):
    return f"l_{name}"


def _sname(name):
    return f"st_{name}"
