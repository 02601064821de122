"""ISCAS85 `.bench` netlist parsing and exact Boolean evaluation.

The BooleanNetwork built here is the golden functional reference that every
downstream transformation (threshold synthesis, hardware mapping, crossbar
simulation) is checked against.
"""

from __future__ import annotations

import functools
import operator
import re
from dataclasses import dataclass, field

import numpy as np

from . import graph

GATE_KINDS = ("AND", "OR", "NAND", "NOR", "NOT", "BUFF", "XOR")

# Sequential primitives are out of scope; reject them loudly instead of
# silently treating them as combinational.
_SEQUENTIAL = ("DFF", "DFFSR", "LATCH", "FF")


class BenchError(ValueError):
    """Raised for malformed or semantically invalid `.bench` input."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True, slots=True)
class Gate:
    name: str
    kind: str
    inputs: tuple[str, ...]


@dataclass(frozen=True)
class BooleanNetwork:
    """Immutable DAG of primitive gates.

    Gates are stored in file order, which is not necessarily topological;
    use `topological_order` for evaluation order.
    """

    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    gates: tuple[Gate, ...]
    _gate_map: dict = field(repr=False, compare=False, default=None)
    _order: list = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "_gate_map", {g.name: g for g in self.gates})

    def gate(self, name):
        return self._gate_map[name]

    def topological_order(self):
        """Gate names in dependency order (inputs excluded), as a new list.

        See `graph.topological_order` for the exact order. The network is
        frozen, so the order is computed once.
        """
        if self._order is None:
            v = graph.view(self.inputs, [g.name for g in self.gates],
                           [g.inputs for g in self.gates])
            try:
                order = graph.topological_order(v)
            except graph.CycleError as e:
                raise BenchError("cycle detected among gates: " +
                                 ", ".join(e.leftover[:5])) from None
            object.__setattr__(self, "_order",
                               [v.names[i] for i in order.tolist()])
        return list(self._order)

    def to_json(self):
        """The JSON document; a gate's inputs are shared, not copied."""
        return {"inputs": list(self.inputs), "outputs": list(self.outputs),
                "gates": [{"name": g.name, "kind": g.kind, "inputs": g.inputs}
                          for g in self.gates]}

    @classmethod
    def from_json(cls, obj):
        """The netlist of the document `obj`; each entry of its gate list
        is dropped (set to None) once its gate is built."""
        defined = set()
        for name in obj["inputs"]:
            _define(name, defined)
        entries, gates = obj["gates"], []
        for at, g in enumerate(entries):
            gates.append(_gate(g["name"], g["kind"], tuple(g["inputs"]),
                               defined))
            entries[at] = None
        net = cls(tuple(obj["inputs"]), tuple(obj["outputs"]), tuple(gates))
        _validate(net)
        return net


_LINE_RE = re.compile(
    r"^\s*(?:"
    r"(?P<io>INPUT|OUTPUT)\s*\(\s*(?P<io_name>\S+?)\s*\)"
    r"|(?P<lhs>\S+)\s*=\s*(?P<kind>\w+)\s*\(\s*(?P<args>[^)]*)\)"
    r")\s*$"
)


def _define(name, defined, line=None):
    """Add `name` to the `defined` names; BenchError if it is there."""
    if name in defined:
        raise BenchError(f"duplicate definition of {name!r}", line)
    defined.add(name)


def _gate(name, kind, args, defined, line=None):
    """The Gate `name = kind(args)`, defining `name`; BenchError for a
    sequential or unknown kind, a NOT or BUFF without exactly one input,
    a gate without inputs or a name defined before."""
    if kind in _SEQUENTIAL:
        raise BenchError(f"sequential element {kind} not supported "
                         f"(combinational only)", line)
    if kind not in GATE_KINDS:
        raise BenchError(f"unknown gate kind {kind!r}", line)
    if kind in ("NOT", "BUFF") and len(args) != 1:
        raise BenchError(f"{kind} takes exactly 1 input", line)
    if not args:
        raise BenchError(f"gate {name!r} has no inputs", line)
    _define(name, defined, line)
    return Gate(name, kind, args)


def parse_bench(text):
    """Parse `.bench` text into a validated BooleanNetwork."""
    inputs, outputs, gates = [], [], []
    defined = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _LINE_RE.match(line)
        if m is None:
            raise BenchError(f"syntax error near {line!r}", lineno)
        if m.group("io"):
            name = m.group("io_name")
            if m.group("io") == "INPUT":
                _define(name, defined, lineno)
                inputs.append(name)
            else:
                outputs.append(name)
            continue
        args = tuple(a.strip() for a in m.group("args").split(",") if a.strip())
        gates.append(_gate(m.group("lhs"), m.group("kind").upper(), args,
                           defined, lineno))

    net = BooleanNetwork(tuple(inputs), tuple(outputs), tuple(gates))
    _validate(net)
    return net


def _validate(net):
    defined = set(net.inputs) | {g.name for g in net.gates}
    for g in net.gates:
        for i in g.inputs:
            if i not in defined:
                raise BenchError(f"gate {g.name!r} references undefined net {i!r}")
    for o in net.outputs:
        if o not in defined:
            raise BenchError(f"output {o!r} does not resolve to a defined net")
    net.topological_order()  # raises on cycles


# the operator each gate kind reduces its inputs with (NOT and BUFF: none)
_REDUCE = {"AND": operator.and_, "NAND": operator.and_, "OR": operator.or_,
           "NOR": operator.or_, "XOR": operator.xor}


def gate_value(kind, vals, ones):
    """The Boolean gate `kind` (one of GATE_KINDS) on bit-parallel values
    `vals`, one per input: Python-int truth tables or rows of packed words
    (see `pack`). `ones` is their all-ones value, which an inverting gate's
    result is XORed with."""
    v = functools.reduce(_REDUCE[kind], vals) if kind in _REDUCE else vals[0]
    return v ^ ones if kind in ("NAND", "NOR", "NOT") else v


def pack(rows):
    """Bit-pack a (count, n) bool matrix column by column.

    Returns (n, ceil(count / 64)) uint64 words: vector v is bit v % 64 of
    word v // 64. Bits past `count` in the last word are zero here, but
    any word computed from them may set them; `unpack` drops them.
    """
    rows = np.asarray(rows, dtype=bool)
    count, n = rows.shape
    nbytes = -(-count // 64) * 8
    out = np.zeros((n, nbytes), dtype=np.uint8)
    # packbits reads a contiguous copy of the columns several times faster
    # than the strided view
    out[:, :-(-count // 8)] = np.packbits(np.ascontiguousarray(rows.T),
                                          axis=1, bitorder="little")
    return out.view("<u8")


def unpack(words, count):
    """The first `count` bits of each row of packed words: (..., W) uint64
    -> (..., count) bool."""
    octets = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    return np.unpackbits(octets, axis=-1, count=count,
                         bitorder="little").astype(bool)


# A gate's truth table has 2^fan-in rows and its mux tree holds
# 2^(fan-in-1) words per vector word, so tabulated evaluation bounds the
# fan-in; synthesis emits at most 4.
TABLE_FAN_IN_LIMIT = 10
# Bound on the elements of one chunk's largest temporary, 512 KB of
# 64-bit words: a mux tree's first level (gates, 2^(k-1), W), and in the
# kernel a chunk of (row, node, table row) net input sums. Callers chunk
# their gates by it; a single gate above it is one chunk.
MUX_WORDS = 1 << 16


def mux(tables, x):
    """Shannon mux tree: the functions with truth tables `tables`
    (..., 2^k) bool, row r setting input j to bit j of r, at packed input
    words x (..., k, W); returns (..., W) words.

    The first level is built from the table bits as all-ones or zero
    masks, (..., 2^(k-1), W); the later levels update it in place.
    """
    lo = -tables[..., 0::2, None].astype(np.uint64)
    hi = -tables[..., 1::2, None].astype(np.uint64)
    f = (lo ^ hi) & x[..., 0, None, :]
    f ^= lo
    for j in range(1, x.shape[-2]):
        lo, hi = f[..., 0::2, :], f[..., 1::2, :]
        hi ^= lo
        hi &= x[..., j, None, :]
        lo ^= hi
        f = lo
    return f[..., 0, :]


def evaluate_packed(net, words):
    """Evaluate packed input words, one row per input; returns one row of
    words per output. A gate's words are dropped after its last reader;
    outputs are kept to the end."""
    if len(words) != len(net.inputs):
        raise ValueError(f"expected {len(net.inputs)} rows of input words, "
                         f"one per input, got {len(words)}")
    order = net.topological_order()
    # the position of each gate's last reader (its own if none reads it)
    last = dict(zip(order, range(len(order))))
    last.update((i, at) for at, name in enumerate(order)
                for i in net.gate(name).inputs)
    last.update(dict.fromkeys(net.outputs, len(order)))
    dies = [[] for _ in order]
    for name, at in last.items():
        if at < len(order):
            dies[at].append(name)
    vals, ones = dict(zip(net.inputs, words)), ~np.uint64(0)
    for name, dead in zip(order, dies):
        g = net.gate(name)
        vals[name] = gate_value(g.kind, [vals[i] for i in g.inputs], ones)
        for i in dead:
            del vals[i]
    out = np.empty((len(net.outputs), words.shape[1]), dtype=np.uint64)
    for row, name in zip(out, net.outputs):
        row[:] = vals[name]
    return out


def evaluate_many(net, vectors):
    """Evaluate a (num_vectors, num_inputs) bool matrix; returns outputs matrix."""
    vectors = np.asarray(vectors, dtype=bool)
    if vectors.ndim != 2 or vectors.shape[1] != len(net.inputs):
        raise ValueError(
            f"expected {len(net.inputs)} input columns, got shape {vectors.shape}"
        )
    words = evaluate_packed(net, pack(vectors))
    return unpack(words, vectors.shape[0]).T


def load_bench(path):
    with open(path) as f:
        return parse_bench(f.read())

