"""Threshold logic gates and networks: evaluation, margins, integer weight
solving, and the lowered network evaluator that the crossbar model shares.

A gate fires (outputs 1) iff the weighted input sum plus bias is >= 0.
Synthesized gates additionally keep the sum at least 1 away from zero on
every input row, because the hardware comparator is metastable at zero net
current.  Weight magnitudes are capped at W_MAX, matching the number of
distinct conductance levels the memristors are programmed to.
"""

from __future__ import annotations

import functools
from collections import ChainMap
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from . import graph
from .bench import (MUX_WORDS, TABLE_FAN_IN_LIMIT, evaluate_packed, gate_value,
                    mux, pack, unpack)
from .devices import W_MAX

FANIN_LIMIT = 4


@dataclass(frozen=True, slots=True)
class ThresholdGate:
    """Integer-weight threshold gate.

    `inputs` are node ids referencing the surrounding network; `weights`
    aligns with them positionally.
    """

    inputs: tuple[str, ...]
    weights: tuple[int, ...]
    bias: int

    def __post_init__(self):
        if len(self.inputs) != len(self.weights):
            raise ValueError("inputs/weights length mismatch")
        if not self.inputs:
            raise ValueError("gate needs at least one input")

    @property
    def fan_in(self):
        return len(self.inputs)


def buffer_gate(src):
    """Single-input repeater: passes `src` through with margin 1."""
    return ThresholdGate((src,), (2,), -1)


def eval_tlg(gate, x):
    """Output bit for one input vector (1 iff weighted sum + bias >= 0)."""
    x = tuple(x)
    if len(x) != gate.fan_in:
        raise ValueError(f"expected {gate.fan_in} inputs, got {len(x)}")
    s = sum(w * int(bool(v)) for w, v in zip(gate.weights, x)) + gate.bias
    return 1 if s >= 0 else 0


def threshold_step(const, weights, cols):
    """A threshold gate over a batch of rows: the net input
    const + sum_j weights[j] * cols[j], summed in input order, and whether
    it is >= 0 (the gate fires).

    Ideal evaluation, margins and merge tables pass integer weights; the
    crossbar model passes conductance differences.
    """
    s = const
    for w, col in zip(weights, cols):
        s = s + w * col
    return s, s >= 0


# generator words `input_words` reads at a time (256 KB)
RAW_WORDS = 1 << 15


def input_rows(n, count=None, seed=0):
    """Boolean input rows for n inputs, `input_words` unpacked: all 2^n
    (row r sets input i to bit i of r) when `count` is None or at least
    2^n, else `count` rows drawn by `default_rng(seed).integers(0, 2)`."""
    rows = 2 ** n if count is None or 2 ** n <= count else count
    return unpack(input_words(n, count, seed), rows).T


def input_words(n, count=None, seed=0):
    """The packed input rows of `input_rows`, (n, ceil(rows / 64)) words,
    built without the (rows, n) bool matrix.

    Exhaustively, input i < 6 repeats one 64-bit pattern, its truth-table
    column `_var` (cut to 2^n rows below 6 inputs), and input i >= 6
    alternates zero and all-ones words in runs of 2^(i - 6). Drawn rows
    are read from the generator's raw 64-bit words, without the int64
    matrix `integers` builds: for a range of 2, numpy draws each value by
    Lemire's method from the next 32-bit half of a word (low half first),
    which never rejects and returns the half's top bit. The stream is
    row-major, so a block of 64 m vectors is the next 32 m n raw words
    (only the last block may end on a low half), packed into its m words.
    """
    if count is None or 2 ** n <= count:
        out = np.empty((n, -(-2 ** n // 64)), dtype=np.uint64)
        low = [_var(i, min(n, 6)) for i in range(min(n, 6))]
        out[:6] = np.array(low, dtype=np.uint64)[:, None]
        at = np.arange(out.shape[1], dtype=np.uint64)
        for i in range(6, n):
            out[i] = -(at >> np.uint64(i - 6) & np.uint64(1))
        return out
    out = np.zeros((n, -(-count // 64) * 8), dtype=np.uint8)
    gen = np.random.default_rng(seed).bit_generator
    step = 64 * max(1, RAW_WORDS // max(1, 32 * n))  # vectors per block
    for lo in range(0, count, step):
        m = min(step, count - lo)
        raw = gen.random_raw(-(-m * n // 2))
        halves = raw.astype("<u8", copy=False).view("<u4")[:m * n]
        bits = (halves >= 1 << 31).reshape(m, n)
        out[:, lo // 8:-(-(lo + m) // 8)] = np.packbits(
            np.ascontiguousarray(bits.T), axis=1, bitorder="little")
    return out.view("<u8")


def row_sums(bias, weights):
    """Weighted sum + bias of N gates of one fan-in k, with biases `bias`
    (N,) and weights `weights` (N, k), on each of their 2^k input rows,
    (N, 2^k), from one `threshold_step`."""
    return threshold_step(bias[:, None], weights.T[:, :, None],
                          input_rows(weights.shape[1]).T)[0]


def bias_bound(n, w_max=W_MAX):
    return n * w_max + 1


# Weight lattice per (n, w_max): all weight vectors W sorted by (sum|w|,
# vector) and, for the solver, their sums on every input row, (2^n,
# vectors), both in the narrowest signed type holding +-bias_bound: int8
# up to n * w_max = 126, so at fan-in 4 and W_MAX, where |s| <= 24.
# Cached because the greedy collapse in synthesis calls solve_weights many
# times.
_lattice_cache = {}


def _lattice_entry(n, w_max):
    key = (n, w_max)
    if key not in _lattice_cache:
        narrow = np.min_scalar_type(-bias_bound(n, w_max) - 1)
        vals = np.arange(-w_max, w_max + 1, dtype=narrow)
        W = np.zeros((1, 0), dtype=narrow)
        for _ in range(n):
            W = np.column_stack((np.repeat(W, len(vals), axis=0),
                                 np.tile(vals, len(W))))
        W = W[np.lexsort(tuple(W[:, i] for i in reversed(range(n)))
                         + (np.abs(W).sum(axis=1),))]
        rows = np.zeros((2 ** n, len(W)), dtype=narrow)
        for i, w in enumerate(W.T):  # rows with bit i set add weight i
            np.add(rows[:2 ** i], w, out=rows[2 ** i:2 ** (i + 1)])
        _lattice_cache[key] = W, rows
    return _lattice_cache[key]


def solve_weights(table, w_max=W_MAX, fanin_limit=FANIN_LIMIT):
    """Find integer weights/bias realizing `table`, or None when `table` is
    not a threshold function.

    Exhaustive search over the bounded integer lattice with the margin >= 1
    requirement on every row. Deterministic tie-break: smallest sum of
    |weights|, then lexicographically smallest weight vector, then the bias
    closest to zero (negative side first on ties).
    """
    table = tuple(int(b) for b in table)
    n = _table_arity(table)
    if n > fanin_limit:
        raise ValueError(f"arity {n} exceeds fan-in limit {fanin_limit}")
    W, rows = _lattice_entry(n, w_max)
    t = np.array(table, dtype=bool)
    b_max = bias_bound(n, w_max)

    # For true rows need s + b >= 1, for false rows s + b <= -1. Every
    # bound lies within +-b_max, held by int16 (or the wider lattice type).
    wide = np.promote_types(rows.dtype, np.int16)
    lo = np.full(len(W), -b_max, dtype=wide)
    hi = np.full(len(W), b_max, dtype=wide)
    if t.any():
        lo = np.maximum(lo, 1 - rows[t].min(axis=0).astype(wide))
    if (~t).any():
        hi = np.minimum(hi, -1 - rows[~t].max(axis=0).astype(wide))
    feasible = lo <= hi
    if not feasible.any():
        return None
    idx = int(np.argmax(feasible))
    b = _pick_bias(int(lo[idx]), int(hi[idx]))
    return ThresholdGate(
        tuple(f"x{i}" for i in range(n)), tuple(int(w) for w in W[idx]), b
    )


def _pick_bias(lo, hi):
    # Bias closest to zero; exact zero allowed, negative preferred on |b| ties.
    if lo <= 0 <= hi:
        return 0
    return lo if lo > 0 else hi


def _table_arity(table):
    n = len(table).bit_length() - 1
    if 2 ** n != len(table):
        raise ValueError(f"table length {len(table)} is not a power of two")
    return n


def _ints(values):
    """int64, or objects where an int is beyond it (`validate` names it)."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _sorted(tln):
    """The network's `view` and its order."""
    v = tln.view()
    try:
        return v, graph.topological_order(v)
    except graph.CycleError:
        raise ValueError("cycle in threshold network") from None


def _levels(v, order):
    """ASAP level of every id of `v`, sources at 0, set along `order`."""
    n, ptr, ind = v.n_sources, v.indptr.tolist(), v.indices.tolist()
    level = [0] * len(v.names)
    for j in order.tolist():
        top = 0
        for i in ind[ptr[j - n]:ptr[j - n + 1]]:  # cheaper than max(map())
            if level[i] > top:
                top = level[i]
        level[j] = top + 1
    return level


@dataclass(frozen=True)
class Lowered:
    """A network lowered once for `evaluate_lowered`.

    Signals are the inputs, then the nodes in topological order. Each node
    owns consecutive crossbar rows, in the same order: one per weight, then
    one per `bias_chunks` level of its bias. Row r has signed level
    `levels[r]` and its node's first row is `first[r]`.

    The kernel holds a signal's row-0 words in a word slot, `slot[i]`,
    from the group that makes it (an input: from the start) through the
    last group that reads it (an output: to the end). Slots are assigned
    by linear scan: a group's nodes take their slots before the slots of
    the signals that die in that group are freed, so `n_slots` is the
    most signals alive at once. The kernel's word pool starts at these
    slots; overlay words of further rows are added as they are taken.
    """

    n_inputs: int
    n_signals: int
    levels: np.ndarray
    first: np.ndarray
    # per fan-in k: (k, node signals (N,), weight rows (N, k)), the nodes
    # in (ASAP level, topological) order
    fan_ins: tuple
    # per (ASAP level, fan-in k), in level order: (k, lo, hi, node slots,
    # input slots (hi - lo, k), slots freed after it); the nodes are
    # fan-in k's nodes lo .. hi - 1
    groups: tuple
    # (node signals (B,), bias rows (B, b)), one entry per bias-row count b
    bias: tuple
    outputs: np.ndarray
    slot: np.ndarray
    n_slots: int


@dataclass(frozen=True)
class RowWords:
    """The output words of every row of a kernel call: under row r,
    output j holds `words[index[r, j]]`."""

    words: np.ndarray
    index: np.ndarray

    def __len__(self):
        return len(self.index)

    def row(self, r):
        """Row r's output words, (n_outputs, W)."""
        return self.words[self.index[r]]


class _WordPool:
    """Row 0's word slots, then overlay words for the further rows. Overlay
    words go back to a free list when their signal dies and are handed
    out again, last freed first, before the pool takes a new one; the
    pool grows geometrically when it runs out, so its size follows the
    most overlay words alive at once."""

    def __init__(self, n_slots, n_words):
        self.buf = np.empty((n_slots, n_words), dtype=np.uint64)
        self.n_slots = self.used = n_slots
        self.free = []

    def take(self, m):
        """Indices of m overlay words, freed ones first."""
        reuse = min(m, len(self.free))
        ids = np.array(self.free[len(self.free) - reuse:], dtype=np.intp)
        del self.free[len(self.free) - reuse:]
        fresh = np.arange(self.used, self.used + m - reuse)
        self.used += m - reuse
        if self.used > len(self.buf):
            grown = np.empty((max(self.used, 2 * len(self.buf)),
                              self.buf.shape[1]), dtype=np.uint64)
            grown[:len(self.buf)] = self.buf
            self.buf = grown
        return np.concatenate((ids, fresh))

    def give(self, ids):
        """Return the overlay words among `ids` to the free list; row 0's
        slots (ids < n_slots) are skipped."""
        self.free += ids[ids >= self.n_slots].tolist()


def _truth_tables(const, net, rows, k):
    """The truth tables (S, N, 2^k) of N nodes of fan-in k under every row
    of `net`, from their constants `const` (S, N) and weight rows `rows`
    (N, k), and where each differs from row 0's, (S, N). Chunked so that
    a chunk's net input sums stay within MUX_WORDS elements."""
    n_rows, n = const.shape
    fires = np.empty((n_rows, n, 2 ** k), dtype=bool)
    differs = np.empty((n_rows, n), dtype=bool)
    table = input_rows(k).T
    step = max(1, MUX_WORDS // (n_rows * 2 ** k))
    for at in range(0, n, step):
        part = slice(at, at + step)
        _, fires[:, part] = threshold_step(
            const[:, part, None],
            np.moveaxis(net[:, rows[part]], -1, 0)[..., None], table)
        np.any(fires[:, part] != fires[0, part], axis=-1,
               out=differs[:, part])
    return fires, differs


def _node_tables(low, net):
    """Per fan-in k, `_truth_tables` of fan-in k's nodes of `low` under
    every row of `net`, their constants summed from their bias rows."""
    const = np.zeros((len(net), low.n_signals), dtype=net.dtype)
    for nodes, rows in low.bias:
        # numpy adds fewer than 8 terms in order along any axis, as a
        # scalar 1-D sum does; longer 1-D sums are pairwise
        terms = net[:, rows]
        const[:, nodes] = (terms.sum(axis=-1) if rows.shape[1] < 8 else
                           [[t.sum() for t in seed] for seed in terms])
    return {k: _truth_tables(const[:, nodes], net, rows, k)
            for k, nodes, rows in low.fan_ins}


def ideal_tables(low, net):
    """Whether row 0 of `net` gives every node of `low` the truth table
    its integer levels give it, both built as the kernel builds them: the
    kernel then computes the integer network's function under that row."""
    got, want = _node_tables(low, net[:1]), _node_tables(low, low.levels[None])
    return all(np.array_equal(got[k][0], want[k][0]) for k in want)


def evaluate_lowered(low, words, net):
    """Evaluate packed input words (`bench.pack`, one row per input) with
    the row levels of each row of `net` (S, len(low.levels)): integer
    levels for ideal evaluation, net conductances for the crossbar.

    A node fires iff its bias rows plus its weight rows on, summed by
    `threshold_step` in that order, are >= 0. Every node's 2^k-row truth
    table is built for every row of `net`, per fan-in k, and per (level,
    fan-in) group a mux tree applies the tables to the words, chunked to
    MUX_WORDS words. Returns the output words of every row (`RowWords`).

    Row 0 is evaluated in full, in the word slots of `low`'s plan. Every
    further row is an overlay on it: a node is evaluated under that row
    only where its truth table or one of its inputs differs from row 0's;
    words equal to row 0's are not kept, a signal's overlay words go back
    to a free list when the signal dies, and the word pool grows only
    when that list is empty (`_WordPool`). Memory thus follows the live
    signals and the (row, node) pairs that differ among them, which are
    few when the rows are perturbed copies of one crossbar, except for
    the truth tables and their "differs" masks: (S, N, 2^k) and (S, N)
    bools for every node, held for the whole call.
    """
    n_rows, n_words = len(net), words.shape[1]
    tables = _node_tables(low, net)
    pool = _WordPool(low.n_slots, n_words)
    pool.buf[low.slot[:low.n_inputs]] = words
    n_slots = low.n_slots
    # under row r slot s holds the word buf[where[r, s]], an overlay iff
    # that is >= n_slots
    where = np.tile(np.arange(n_slots), (n_rows, 1))
    for k, lo, hi, nodes, inputs, freed in low.groups:
        fires, differs = tables[k]
        step = max(1, MUX_WORDS // (2 ** (k - 1) * n_words or 1))
        for at in range(0, hi - lo, step):
            part = slice(at, at + step)
            pool.buf[nodes[part]] = mux(fires[0, lo:hi][part],
                                        pool.buf[inputs[part]])
        if n_rows == 1:
            continue
        src = where[:, inputs]
        # false on row 0, whose tables and words are the reference
        live = differs[:, lo:hi] | (src >= n_slots).any(-1)
        r, g = np.nonzero(live)
        for at in range(0, len(r), step):
            pr, pg = r[at:at + step], g[at:at + step]
            out = mux(fires[pr, lo + pg], pool.buf[src[pr, pg]])
            sig = nodes[pg]
            hit = np.flatnonzero((out != pool.buf[sig]).any(-1))
            ids = pool.take(len(hit))
            pool.buf[ids] = out[hit]
            where[pr[hit], sig[hit]] = ids
        pool.give(where[:, freed])
        where[:, freed] = freed
    return RowWords(pool.buf, where[:, low.slot[low.outputs]])


def check_interface(tln, source):
    """ValueError unless `tln` and its Boolean oracle `source` have the
    same inputs, in order, and as many outputs."""
    if list(tln.inputs) != list(source.inputs):
        raise ValueError("primary input mismatch with the source netlist")
    if len(tln.outputs) != len(source.outputs):
        raise ValueError(f"primary output arity mismatch: {len(tln.outputs)} "
                         f"against the source netlist's {len(source.outputs)}")


def lowered(tln, source):
    """`tln` lowered (`ThresholdLogicNetwork.lower`) for `check` against its
    Boolean oracle `source`, after `check_interface`."""
    check_interface(tln, source)
    return tln.lower()


def check(low, source, words, count, net, want=None):
    """Compare the lowered network `low` (see `lowered`) with its Boolean
    oracle `source` on `count` packed input vectors `words`, under each
    row of levels of `net` (see `evaluate_lowered`), or with `want`, the
    oracle's words if a caller has them. Returns the output words of
    every row (`RowWords`) and per row the number of vectors an output
    differs on."""
    want = evaluate_packed(source, words) if want is None else want
    out = evaluate_lowered(low, words, net)
    bad = (np.bitwise_or.reduce(out.row(r) ^ want, axis=0)
           for r in range(len(out)))  # one row at a time
    return out, np.array([np.count_nonzero(unpack(b, count)) for b in bad])


# the most leaves a window may have, and the rounds in which `prove` grows
# the network side of a mismatched window before it gives up
WINDOW_LEAVES = 16
WINDOW_ROUNDS = 3


@functools.lru_cache(maxsize=1 << 12)
def _gate_table(weights, bias):
    """A threshold gate's truth table as an int: bit r is its output on
    row r, which sets input j to bit j of r; None above
    TABLE_FAN_IN_LIMIT inputs."""
    if len(weights) > TABLE_FAN_IN_LIMIT:
        return None
    return sum(1 << r for r in range(1 << len(weights))
               if bias + sum(w for j, w in enumerate(weights) if r >> j & 1)
               >= 0)


@functools.cache
def _var(i, m):
    """The column of input i in a truth table over m inputs, as an int."""
    half = 1 << i
    return ((1 << half) - 1 << half) * (
        ((1 << (1 << m)) - 1) // ((1 << 2 * half) - 1))


def _apply(table, xs, full):
    """The function of truth table `table` at the columns `xs` (ints,
    `full` all ones), by Shannon expansion on the last input."""
    if not table or table == (1 << (1 << len(xs))) - 1:
        return table and full
    half = 1 << (len(xs) - 1)
    lo = _apply(table & (1 << half) - 1, xs[:-1], full)
    hi = _apply(table >> half, xs[:-1], full)
    return lo ^ (lo ^ hi) & xs[-1]


@functools.cache
def _kind_table(kind, k):
    """The truth table of the Boolean gate `kind` of k inputs."""
    return gate_value(kind, [_var(j, k) for j in range(k)],
                      (1 << (1 << k)) - 1)


def _walk(roots, reads):
    """The signals `roots` reach through `reads` (signal -> the signals it
    reads): those `reads` holds, each after the ones it reads, and the
    leaves, the others. An explicit stack, so a walk of any depth."""
    order, leaves, seen, stack = [], [], set(), [(x, None) for x in roots]
    while stack:
        x, ins = stack.pop()
        if ins is not None:  # x again, after the signals it reads
            order.append(x)
        elif x not in seen:
            seen.add(x)
            ins = reads.get(x)
            if ins is None:
                leaves.append(x)
            else:
                stack += [(x, ins)] + [(i, None) for i in ins]
    return order, leaves


def prove(tln, source):
    """Whether `tln` provably computes its Boolean oracle `source`'s
    function on every input vector. False when it does not, and when the
    proof does not reach; a caller then samples vectors.

    **Classes.** Signals are taken in `tln`'s topological order
    (`graph.topological_order`, which also rejects a cycle). An input has
    a class of its own; a one-input node whose truth table is the
    identity has its input's class; any other node has the class first
    given to its (truth table, input classes) pair, or a new one. By
    induction in that order, the signals of one class compute one
    function, T(c); names play no part. The anchors are the inputs and
    the nodes named after a source gate.

    **Windows.** Each anchor a is compared with source gate a when the
    order reaches it, over variables that are classes. One walk per side
    (`_walk`) finds its window. The network side is a's gate, expanded
    through the classes that no earlier anchor has (by the gate that made
    the class). The source side is gate a, expanded through the gates that
    are not earlier anchors; an input or an earlier anchor s is the
    variable of its class. If the two sides' leaves hold more than
    WINDOW_LEAVES classes, the window is not proved. Otherwise both sides
    become Python-int truth tables over exactly those variables, and must
    be equal. On a mismatch the network side alone grows, for at most
    WINDOW_ROUNDS rounds, through its anchored leaf classes that the
    source side does not read: a node, such as an XOR's OR fragment or a
    fan-in-2 AND, can share an earlier anchor's class. An anchor whose
    gate reads the classes its source gate's inputs have, in order, is
    compared by its 2^k table alone. Last, output j must share the class
    of the source's output j, an anchor. However deep, a window is walked
    and evaluated without recursion.

    **Soundness,** by induction in the same order: when a is compared,
    every earlier anchor s computes source gate s's function S(s). Set
    each variable c to T(c). The network side then computes a's value,
    T(a), by construction, however far it grows; the source side
    computes S(a), since each of its leaves s gives S(s) = T(s) = T(class
    of s). Equal tables give T(a) = S(a). Output j computes T of its
    class, which is T(s) = S(s) for the source's output s. The growth
    rule decides only how far the proof reaches.
    """
    gates = [n.gate for n in tln.nodes.values()]
    v = graph.view(tln.inputs, tln.nodes, [g.inputs for g in gates])
    try:
        check_interface(tln, source)
        order = graph.topological_order(v)
    except ValueError:  # graph.CycleError is one
        return False
    n, names = v.n_sources, v.names
    sgate = {g.name: g for g in source.gates}
    pending = {g.name: g.inputs for g in source.gates}  # not anchors yet
    cls = dict(zip(names[:n], range(n)))  # signal -> class, so far
    made = [None] * n  # class -> (table, input classes) that made it
    inner = {}  # class -> its input classes, if no anchor so far has it
    keys = {}

    def window(sg, t, ins):
        """Whether gate (t, ins) and source gate `sg` agree (see `prove`)."""
        post_s, leaf_s = _walk([sg.name], pending)  # gate a, not yet anchored
        read_s = {cls[x] for x in leaf_s}
        grown = {}
        for _ in range(WINDOW_ROUNDS + 1):
            post_t, leaf_t = _walk(
                ins, ChainMap(grown, inner) if grown else inner)
            leaves = read_s.union(leaf_t)
            m = len(leaves)
            if m > WINDOW_LEAVES:
                return False
            full = (1 << (1 << m)) - 1
            val = {c: _var(j, m) for j, c in enumerate(leaves)}
            val.update((x, val[cls[x]]) for x in leaf_s)
            for c in post_t:
                table, reads = made[c]
                val[c] = _apply(table, [val[i] for i in reads], full)
            for x in post_s:
                g = sgate[x]
                val[x] = gate_value(g.kind, [val[i] for i in g.inputs], full)
            if _apply(t, [val[c] for c in ins], full) == val[sg.name]:
                return True
            more = {c: made[c][1] for c in leaf_t
                    if made[c] and c not in read_s}
            if not more:
                return False
            grown.update(more)
        return False

    for j in order.tolist():
        g, name = gates[j - n], names[j]
        t = _gate_table(g.weights, g.bias)
        if t is None:
            return False
        ins = tuple(map(cls.__getitem__, g.inputs))
        sg = sgate.get(name)
        if sg and not (ins == tuple(map(cls.get, sg.inputs))
                       and t == _kind_table(sg.kind, len(ins))
                       or window(sg, t, ins)):
            return False
        if t == 2 and len(ins) == 1:  # the identity
            c = ins[0]
        else:
            c = keys.setdefault((t, ins), len(made))
            if c == len(made):
                made.append((t, ins))
                inner[c] = ins
        cls[name] = c
        if sg:
            inner.pop(c, None)
            del pending[name]
    return all(cls.get(o, -1) == cls.get(s, -2)
               for o, s in zip(tln.outputs, source.outputs))


def _slot_plan(n_inputs, n_signals, fan_ins, spans, outputs):
    """Row-0 word slot of every signal, per group the slots freed after
    it, and the slot count, by linear scan over the groups (see
    `Lowered`).

    A signal dies in the last group that reads it, or in the group that
    makes it if none does (an input: the first group); outputs never die.
    """
    n_groups = len(spans)
    made = np.zeros(n_signals, dtype=np.intp)
    dies = np.full(n_signals, -1, dtype=np.intp)
    for g, (k, lo, hi) in enumerate(spans):
        nodes, inputs, _ = fan_ins[k]
        made[nodes[lo:hi]] = g
        dies[inputs[lo:hi].ravel()] = g  # groups run in order: last wins
    dies = np.maximum(dies, made)
    dies[outputs] = n_groups
    by_death = np.argsort(dies, kind="stable")
    bounds = np.searchsorted(dies[by_death], np.arange(n_groups + 1))
    slot = np.empty(n_signals, dtype=np.intp)
    slot[:n_inputs] = np.arange(n_inputs)
    n_slots, free, freed = n_inputs, [], []
    for g, (k, lo, hi) in enumerate(spans):
        reuse = min(hi - lo, len(free))
        fresh = hi - lo - reuse
        slot[fan_ins[k][0][lo:hi]] = free[len(free) - reuse:] + list(
            range(n_slots, n_slots + fresh))
        del free[len(free) - reuse:]
        n_slots += fresh
        freed.append(slot[by_death[bounds[g]:bounds[g + 1]]])
        free += freed[-1].tolist()
    return slot, freed, n_slots


@dataclass(slots=True)
class TLGNode:
    """A threshold gate instantiated in a network, with mapping metadata."""

    id: str
    gate: ThresholdGate
    # logic level, inputs at 0: the ASAP level after synthesis, the
    # `mapping.assign_stages` schedule's level after mapping
    level: int = 0
    stage: int = 0      # pipeline stage, filled by the mapper
    is_buffer: bool = False


@dataclass
class ThresholdLogicNetwork:
    """DAG of threshold gates equivalent to a Boolean netlist. `inputs` is
    replaced, never edited in place, so that its set `_input_names`, which
    `add_node` checks ids against, follows it."""

    inputs: list[str] = field(default_factory=list)
    nodes: dict[str, TLGNode] = field(default_factory=dict)
    outputs: list[str] = field(default_factory=list)

    def __setattr__(self, name, value):
        super().__setattr__(name, value)
        if name == "inputs":
            super().__setattr__("_input_names", set(value))

    def add_node(self, node_id, gate, is_buffer=False):
        known = self._input_names
        if node_id in self.nodes or node_id in known:
            raise ValueError(f"duplicate node id {node_id!r}")
        for i in gate.inputs:
            if i not in self.nodes and i not in known:
                raise ValueError(f"node {node_id!r} references unknown {i!r}")
        node = TLGNode(node_id, gate, is_buffer=is_buffer)
        self.nodes[node_id] = node
        return node

    def copy(self):
        """A copy whose node list and nodes can change without touching this
        network; the frozen gates are shared."""
        return ThresholdLogicNetwork(
            inputs=list(self.inputs),
            nodes={nid: TLGNode(n.id, n.gate, n.level, n.stage, n.is_buffer)
                   for nid, n in self.nodes.items()},
            outputs=list(self.outputs))

    def consumers(self):
        """Map node/input id -> list of node ids consuming it (with multiplicity)."""
        out = {name: [] for name in list(self.inputs) + list(self.nodes)}
        for node in self.nodes.values():
            for i in node.gate.inputs:
                out[i].append(node.id)
        return out

    def view(self):
        """The network's `graph.View`, weights and biases included: what
        every pass that reads it by ids takes its edges from."""
        gates = [n.gate for n in self.nodes.values()]
        weights = list(chain.from_iterable([g.weights for g in gates]))
        return graph.view(self.inputs, self.nodes, [g.inputs for g in gates],
                          _ints(weights), _ints([g.bias for g in gates]))

    def topological_order(self):
        """Node ids in dependency order; see `graph.topological_order`."""
        v, order = _sorted(self)
        return [v.names[i] for i in order.tolist()]

    def assign_levels(self):
        """Set each node's ASAP level; returns name -> level, inputs too."""
        v, order = _sorted(self)
        level = _levels(v, order)
        for node, lvl in zip(self.nodes.values(), level[v.n_sources:]):
            node.level = lvl
        return dict(zip(v.names, level))

    def max_fan_in(self):
        return max((n.gate.fan_in for n in self.nodes.values()), default=0)

    def lower(self):
        """Lower the network once for `evaluate_lowered`: signals, crossbar
        rows (weights, then the `bias_chunks` of the bias), the (ASAP
        level, fan-in) groups and the word slot plan. Raises ValueError for
        a gate above TABLE_FAN_IN_LIMIT inputs or an unresolved output."""
        v, order = _sorted(self)
        for o in self.outputs:
            if o not in v.index:
                raise ValueError(f"output {o!r} unresolved")
        n, node = v.n_sources, order - v.n_sources  # node at each position
        k = np.diff(v.indptr)[node]
        if (k > TABLE_FAN_IN_LIMIT).any():
            at = int(np.argmax(k > TABLE_FAN_IN_LIMIT))
            raise ValueError(f"node {v.names[order[at]]}: fan-in {k[at]} above"
                             f" {TABLE_FAN_IN_LIMIT} cannot be tabulated")
        sig = np.arange(len(v.names))  # the inputs, then `order`
        sig[order] = sig[n:].copy()
        # a node's rows: its weights, then its `bias_chunks`
        n_bias = -(-np.abs(v.bias[node]) // W_MAX)
        first = np.cumsum(k + n_bias) - k - n_bias
        owner = np.repeat(np.arange(len(k)), k + n_bias)
        at = np.arange(len(owner)) - first[owner] - k[owner]  # < 0: weight
        b = v.bias[node[owner]]
        levels = np.clip(b - np.sign(b) * W_MAX * at, -W_MAX, W_MAX)
        levels[at < 0] = v.weights[(v.indptr[node[owner]] + k[owner]
                                    + at)[at < 0]]
        # fan-in k's nodes in (level, position) order; each (level, fan-in)
        # group, in that order, is a range of them
        level = np.array(_levels(v, order), dtype=np.intp)[order]
        group = level * 16 + k  # fan-in <= TABLE_FAN_IN_LIMIT < 16
        by_group = np.argsort(group, kind="stable")
        fan_ins = {kk: (n + at, sig[v.indices[v.indptr[node[at], None]
                                             + np.arange(kk)]],
                        first[at, None] + np.arange(kk))
                   for kk in np.flatnonzero(np.bincount(k)).tolist()
                   for at in [by_group[k[by_group] == kk]]}
        # not np.unique, which imports numpy.ma: 1.6 MB of resident memory
        count = np.bincount(group, minlength=16 * level.max(initial=0) + 16)
        count = count.reshape(-1, 16)
        lv, kk = np.nonzero(count)
        hi = count.cumsum(axis=0)[lv, kk]
        spans = list(zip(kk.tolist(), (hi - count[lv, kk]).tolist(),
                         hi.tolist()))
        outputs = sig[[v.index[o] for o in self.outputs]]
        slot, freed, n_slots = _slot_plan(n, len(sig), fan_ins, spans,
                                          outputs)
        return Lowered(
            n_inputs=n, n_signals=len(sig), levels=levels.astype(np.int64),
            first=first[owner],
            fan_ins=tuple((kk, nodes, rows) for kk, (nodes, _, rows)
                          in fan_ins.items()),
            groups=tuple((kk, lo, hi, slot[fan_ins[kk][0][lo:hi]],
                          slot[fan_ins[kk][1][lo:hi]], dead)
                         for (kk, lo, hi), dead in zip(spans, freed)),
            bias=tuple((n + at, first[at, None] + k[at, None] + np.arange(m))
                       for m in sorted(set(n_bias[n_bias > 0].tolist()))
                       for at in [np.flatnonzero(n_bias == m)]),
            outputs=outputs, slot=slot, n_slots=n_slots)

    def evaluate_many(self, vectors):
        """Ideal (infinite precision) evaluation over a vector matrix."""
        vectors = np.asarray(vectors, dtype=bool)
        low = self.lower()
        out = evaluate_lowered(low, pack(vectors), low.levels[None])
        return unpack(out.row(0), vectors.shape[0]).T

    def validate(self, fanin_limit=FANIN_LIMIT, w_max=W_MAX):
        """Raise ValueError naming the first node, in insertion order, that
        breaks a gate check (fan-in, zero weight, weight magnitude, margin),
        or the first unresolved output; return the network's `view`."""
        v, _ = _sorted(self)
        k, w, ptr = np.diff(v.indptr), v.weights, v.indptr[:-1]
        # every node has an input, so no `reduceat` range is empty
        checks = {f"fan-in {{}} > {fanin_limit}": k > fanin_limit,
                  "zero weight stored": np.logical_or.reduceat(w == 0, ptr),
                  f"weight magnitude > {w_max}":
                      np.logical_or.reduceat(np.abs(w) > w_max, ptr)}
        broken = np.logical_or.reduce(list(checks.values()))
        at = int(np.argmax(broken)) if broken.any() else len(k)
        for kk in np.flatnonzero(np.bincount(k[:at])).tolist():
            sel = np.flatnonzero(k[:at] == kk)  # an earlier node fails first
            s = row_sums(v.bias[sel], w[v.indptr[sel, None] + np.arange(kk)])
            at = min([at] + sel[np.abs(s).min(axis=1) < 1][:1].tolist())
        if at < len(k):
            what = next((what for what, bad in checks.items() if bad[at]),
                        "margin < 1")
            raise ValueError(f"{v.names[v.n_sources + at]}: "
                             + what.format(k[at]))
        for o in self.outputs:
            if o not in v.index:
                raise ValueError(f"output {o!r} unresolved")
        return v

    def to_json(self):
        """The JSON document; a gate's tuples are shared, not copied."""
        return {"inputs": list(self.inputs), "outputs": list(self.outputs),
                "nodes": [{"id": n.id, "inputs": n.gate.inputs,
                           "weights": n.gate.weights, "bias": n.gate.bias,
                           "level": n.level, "stage": n.stage,
                           "is_buffer": n.is_buffer}
                          for n in self.nodes.values()]}

    @classmethod
    def from_json(cls, obj):
        """The network of the document `obj`; each entry of its node list
        is dropped (set to None) once its node is built."""
        tln = cls(inputs=list(obj["inputs"]), outputs=list(obj["outputs"]))
        known = set(tln.inputs)
        # Nodes are stored in insertion order, which after mapping passes is
        # not necessarily topological; resolve references after loading all.
        entries = obj["nodes"]
        for at, n in enumerate(entries):
            if n["id"] in known:
                raise ValueError(f"duplicate node id {n['id']!r}")
            known.add(n["id"])
            gate = ThresholdGate(tuple(n["inputs"]), tuple(n["weights"]), n["bias"])
            if not all(type(w) is int for w in gate.weights + (gate.bias,)):
                raise ValueError(f"node {n['id']!r}: weights and bias must "
                                 f"be integers")
            is_buffer = n.get("is_buffer", False)
            if type(is_buffer) is not bool or (
                    is_buffer and gate != buffer_gate(gate.inputs[0])):
                raise ValueError(f"node {n['id']!r}: is_buffer must be a "
                                 f"bool, true only on a buffer gate")
            level, stage = n.get("level", 0), n.get("stage", 0)
            if type(level) is not int or type(stage) is not int:
                raise ValueError(f"node {n['id']!r}: level and stage must "
                                 f"be integers")
            tln.nodes[n["id"]] = TLGNode(n["id"], gate, level, stage, is_buffer)
            entries[at] = None
        for node in tln.nodes.values():
            for i in node.gate.inputs:
                if i not in known:
                    raise ValueError(f"node {node.id!r} references unknown {i!r}")
        return tln
