"""Threshold logic gates: evaluation, margins and integer weight solving.

A gate fires (outputs 1) iff the weighted input sum plus bias is >= 0.
Synthesized gates additionally keep the sum at least 1 away from zero on
every input row, because the hardware comparator is metastable at zero net
current.  Weight magnitudes are capped at W_MAX, matching the number of
distinct conductance levels the memristors are programmed to.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import graph
from .bench import MUX_WORDS, TABLE_FAN_IN_LIMIT, mux, pack, unpack

FANIN_LIMIT = 4
W_MAX = 6
# Largest w_max the CLI accepts: the solver lattice holds (2*w_max+1)^n
# weight vectors with 2^n row sums each, 83,521 x 16 at 8 and fan-in 4.
W_MAX_LIMIT = 8


class NotThreshold:
    """Sentinel: the requested truth table is not a threshold function."""

    def __repr__(self):
        return "NotThreshold"


NOT_THRESHOLD = NotThreshold()


@dataclass(frozen=True)
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

    Ideal evaluation, merge tables and the weight lattice pass integer
    weights; the crossbar model passes conductance differences.
    """
    s = const
    for w, col in zip(weights, cols):
        s = s + w * col
    return s, s >= 0


def input_rows(n, count=None, seed=0):
    """Boolean input rows for n inputs.

    All 2^n rows (row r sets input i to bit i of r) when `count` is None or
    at least 2^n; otherwise `count` rows drawn by
    `default_rng(seed).integers(0, 2)`.
    """
    if count is None or 2 ** n <= count:
        return ((np.arange(2 ** n)[:, None] >> np.arange(n)) & 1).astype(bool)
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, size=(count, n)).astype(bool)


def row_sums(gates):
    """Weighted sum + bias of gates of one fan-in k on each of their 2^k
    input rows, (len(gates), 2^k), from one `threshold_step`."""
    return threshold_step(
        np.array([g.bias for g in gates])[:, None],
        np.array([g.weights for g in gates]).T[:, :, None],
        input_rows(gates[0].fan_in).T)[0]


def gate_margin(gate):
    """Min over all input rows of |weighted sum + bias|."""
    return gate_margins([gate])[0]


def gate_margins(gates):
    """`gate_margin` of each gate, with one `row_sums` per fan-in."""
    by_fan_in = {}
    for i, gate in enumerate(gates):
        by_fan_in.setdefault(gate.fan_in, []).append(i)
    margins = [0] * len(gates)
    for idx in by_fan_in.values():
        s = row_sums([gates[i] for i in idx])
        for i, m in zip(idx, np.abs(s).min(axis=1)):
            margins[i] = int(m)
    return margins


def truth_table(gate):
    """Truth table as a tuple of 2^fan_in bits; input i is bit i (LSB first)."""
    return tuple(int(v) for v in row_sums([gate])[0] >= 0)


def bias_bound(n, w_max=W_MAX):
    return n * w_max + 1


# Weight lattice per (n, w_max): all weight vectors sorted by (sum|w|, vector),
# their row-sum matrix, and for the solver that matrix transposed to
# (2^n, vectors) in the narrowest signed type holding +-bias_bound: int8 up
# to n * w_max = 126, so at fan-in 4 and W_MAX_LIMIT, where |s| <= 32.
# Cached because the greedy collapse in synthesis calls solve_weights many
# times.
_lattice_cache = {}


def _lattice_entry(n, w_max):
    key = (n, w_max)
    if key not in _lattice_cache:
        vals = np.arange(-w_max, w_max + 1)
        W = np.array(list(itertools.product(vals, repeat=n)), dtype=np.int64)
        order = np.lexsort(tuple(W[:, i] for i in reversed(range(n)))
                           + (np.abs(W).sum(axis=1),))
        W = W[order]
        S, _ = threshold_step(  # (num_vectors, 2^n) row sums
            np.zeros((len(W), 2 ** n), dtype=np.int64), W.T[:, :, None],
            input_rows(n).T)
        narrow = np.min_scalar_type(-bias_bound(n, w_max) - 1)
        _lattice_cache[key] = (W, S, np.ascontiguousarray(S.T, dtype=narrow))
    return _lattice_cache[key]


def _lattice(n, w_max):
    """The weight vectors W and their int64 row sums S = W @ rows.T."""
    return _lattice_entry(n, w_max)[:2]


def solve_weights(table, w_max=W_MAX, fanin_limit=FANIN_LIMIT):
    """Find integer weights/bias realizing `table`, or NOT_THRESHOLD.

    Exhaustive search over the bounded integer lattice with the margin >= 1
    requirement on every row. Deterministic tie-break: smallest sum of
    |weights|, then lexicographically smallest weight vector, then the bias
    closest to zero (negative side first on ties).
    """
    table = tuple(int(b) for b in table)
    n = _table_arity(table)
    if n > fanin_limit:
        raise ValueError(f"arity {n} exceeds fan-in limit {fanin_limit}")
    W, _, rows = _lattice_entry(n, w_max)
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
        return NOT_THRESHOLD
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


def complement_gate(gate):
    """Gate computing the complement under the same >= 0 convention.

    Only exact for gates with margin >= 1 (negating flips every strict sum).
    """
    return ThresholdGate(
        gate.inputs,
        tuple(-w for w in gate.weights),
        -gate.bias,
    )


def _gate_error(node, fanin_limit, w_max):
    """What `validate` reports for the node's gate short of its margin."""
    g = node.gate
    if g.fan_in > fanin_limit:
        return f"{node.id}: fan-in {g.fan_in} > {fanin_limit}"
    if any(w == 0 for w in g.weights):
        return f"{node.id}: zero weight stored"
    if any(abs(w) > w_max for w in g.weights):
        return f"{node.id}: weight magnitude > {w_max}"
    return None


def _check_margins(nodes):
    for node, margin in zip(nodes, gate_margins([n.gate for n in nodes])):
        if margin < 1:
            raise ValueError(f"{node.id}: margin < 1")


@dataclass
class TLGNode:
    """A threshold gate instantiated in a network, with mapping metadata."""

    id: str
    gate: ThresholdGate
    level: int = 0      # ASAP logic level, inputs at 0
    stage: int = 0      # pipeline stage, filled by the mapper
    is_buffer: bool = False


@dataclass
class ThresholdLogicNetwork:
    """DAG of threshold gates equivalent to a Boolean netlist."""

    inputs: list[str] = field(default_factory=list)
    nodes: dict[str, TLGNode] = field(default_factory=dict)
    outputs: list[str] = field(default_factory=list)

    def add_node(self, node_id, gate, is_buffer=False):
        if node_id in self.nodes or node_id in self.inputs:
            raise ValueError(f"duplicate node id {node_id!r}")
        for i in gate.inputs:
            if i not in self.nodes and i not in self.inputs:
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

    def topological_order(self):
        """Node ids in dependency order; see `graph.topological_order`."""
        try:
            return graph.topological_order(
                ((nid, n.gate.inputs) for nid, n in self.nodes.items()),
                set(self.inputs),
            )
        except graph.CycleError:
            raise ValueError("cycle in threshold network") from None

    def assign_levels(self):
        levels = {name: 0 for name in self.inputs}
        for nid in self.topological_order():
            node = self.nodes[nid]
            node.level = 1 + max(levels[i] for i in node.gate.inputs)
            levels[nid] = node.level
        return levels

    def max_fan_in(self):
        return max((n.gate.fan_in for n in self.nodes.values()), default=0)

    def depth(self):
        self.assign_levels()
        return max((n.level for n in self.nodes.values()), default=0)

    def levelized(self):
        """The topological order, and the nodes grouped by (ASAP level,
        fan-in) in level order, each group in topological order."""
        order = self.topological_order()
        level = dict.fromkeys(self.inputs, 0)
        groups = {}
        for nid in order:
            gate = self.nodes[nid].gate
            level[nid] = 1 + max(level[i] for i in gate.inputs)
            groups.setdefault((level[nid], gate.fan_in), []).append(nid)
        return order, [groups[key] for key in sorted(groups)]

    def evaluate_packed(self, words):
        """Ideal evaluation of packed input words (`bench.pack`), one row
        per input; returns one row of words per output.

        Per (level, fan-in) group, `row_sums` builds every gate's 2^k-row
        truth table at once and a mux tree applies it to the words.
        Raises ValueError for a gate above TABLE_FAN_IN_LIMIT inputs.
        """
        order, groups = self.levelized()
        index = {name: i for i, name in enumerate(list(self.inputs) + order)}
        vals = np.empty((len(index), words.shape[1]), dtype=np.uint64)
        vals[:len(self.inputs)] = words
        for group in groups:
            gates = [self.nodes[nid].gate for nid in group]
            k = gates[0].fan_in
            if k > TABLE_FAN_IN_LIMIT:
                raise ValueError(f"node {group[0]}: fan-in {k} above "
                                 f"{TABLE_FAN_IN_LIMIT} cannot be tabulated")
            tables = row_sums(gates) >= 0
            nodes = np.array([index[nid] for nid in group])
            inputs = np.array([[index[i] for i in g.inputs] for g in gates])
            step = max(1, MUX_WORDS // (2 ** (k - 1) * words.shape[1] or 1))
            for at in range(0, len(group), step):
                part = slice(at, at + step)
                vals[nodes[part]] = mux(tables[part], vals[inputs[part]])
        return vals[[index[o] for o in self.outputs]]

    def evaluate_many(self, vectors):
        """Ideal (infinite precision) evaluation over a vector matrix."""
        vectors = np.asarray(vectors, dtype=bool)
        words = self.evaluate_packed(pack(vectors))
        return unpack(words, vectors.shape[0]).T

    def validate(self, fanin_limit=FANIN_LIMIT, w_max=W_MAX):
        """Raise ValueError naming the first node, in insertion order, that
        breaks a gate check (fan-in, zero weight, weight magnitude, margin),
        or the first unresolved output."""
        self.topological_order()
        nodes = list(self.nodes.values())
        for at, node in enumerate(nodes):
            error = _gate_error(node, fanin_limit, w_max)
            if error:
                _check_margins(nodes[:at])  # an earlier node fails first
                raise ValueError(error)
        _check_margins(nodes)
        for o in self.outputs:
            if o not in self.nodes and o not in self.inputs:
                raise ValueError(f"output {o!r} unresolved")

    def to_json(self):
        return {
            "inputs": list(self.inputs),
            "outputs": list(self.outputs),
            "nodes": [
                {
                    "id": n.id,
                    "inputs": list(n.gate.inputs),
                    "weights": list(n.gate.weights),
                    "bias": n.gate.bias,
                    "level": n.level,
                    "stage": n.stage,
                    "is_buffer": n.is_buffer,
                }
                for n in self.nodes.values()
            ],
        }

    @classmethod
    def from_json(cls, obj):
        tln = cls(inputs=list(obj["inputs"]), outputs=list(obj["outputs"]))
        # Nodes are stored in insertion order, which after mapping passes is
        # not necessarily topological; resolve references after loading all.
        for n in obj["nodes"]:
            gate = ThresholdGate(tuple(n["inputs"]), tuple(n["weights"]), n["bias"])
            node = TLGNode(n["id"], gate, is_buffer=n.get("is_buffer", False))
            node.level = n.get("level", 0)
            node.stage = n.get("stage", 0)
            tln.nodes[n["id"]] = node
        known = set(tln.inputs) | set(tln.nodes)
        for node in tln.nodes.values():
            for i in node.gate.inputs:
                if i not in known:
                    raise ValueError(f"node {node.id!r} references unknown {i!r}")
        return tln
