"""Compile Boolean gate networks into fan-in-restricted threshold networks.

Strategy: each primitive gate becomes one threshold gate (wide gates are
split into balanced trees, XOR is expanded since it is not linearly
separable), followed by a greedy collapse phase that merges single-fan-out
nodes into their consumer whenever the merged function is still a threshold
function within the weight and fan-in budget.
"""

from __future__ import annotations

import heapq
import itertools

import numpy as np

# evaluate_many is not called here, but perfbench's tracer test patches it
# on every smtl module that imports it, this one included
from .bench import evaluate_many, evaluate_packed, unpack  # noqa: F401
from .tlg import (FANIN_LIMIT, W_MAX, ThresholdGate, ThresholdLogicNetwork,
                  _apply, _gate_table, _var, buffer_gate, check, input_rows,
                  input_words, lowered, prove, solve_weights)


def gate_to_tlg(kind, sources):
    """Single threshold gate for a primitive Boolean gate.

    Weights are doubled relative to the textbook unit-weight encodings so
    that every input row clears the comparator by at least 1.
    """
    n = len(sources)
    sources = tuple(sources)
    if kind == "AND":
        return ThresholdGate(sources, (2,) * n, -(2 * n - 1))
    if kind == "OR":
        return ThresholdGate(sources, (2,) * n, -1)
    if kind == "NAND":
        return ThresholdGate(sources, (-2,) * n, 2 * n - 1)
    if kind == "NOR":
        return ThresholdGate(sources, (-2,) * n, 1)
    if kind == "NOT":
        if n != 1:
            raise ValueError("NOT takes one input")
        return ThresholdGate(sources, (-2,), 1)
    if kind == "BUFF":
        if n != 1:
            raise ValueError("BUFF takes one input")
        return buffer_gate(sources[0])
    if kind == "XOR":
        raise ValueError("XOR is not a threshold function; decompose first")
    raise ValueError(f"unknown gate kind {kind!r}")


class _Builder:
    def __init__(self, tln):
        self.tln = tln
        self.counter = itertools.count()

    def fresh(self, hint):
        return f"{hint}${next(self.counter)}"

    def emit(self, node_id, gate):
        return self.tln.add_node(node_id, gate).id


def _tree_reduce(b, sources, kind, limit, hint):
    """Reduce wide associative gates to a list of at most `limit` sources."""
    sources = list(sources)
    while len(sources) > limit:
        grouped = []
        for i in range(0, len(sources), limit):
            chunk = sources[i:i + limit]
            if len(chunk) == 1:
                grouped.append(chunk[0])
            else:
                grouped.append(b.emit(b.fresh(hint), gate_to_tlg(kind, chunk)))
        sources = grouped
    return sources


def _emit_xor2(b, a, c, node_id):
    """XOR2 as (a OR c) AND NOT(a AND c), three threshold gates."""
    u = b.emit(b.fresh(node_id), gate_to_tlg("OR", [a, c]))
    v = b.emit(b.fresh(node_id), gate_to_tlg("NAND", [a, c]))
    return b.emit(node_id, gate_to_tlg("AND", [u, v]))


def _emit_gate(b, gate, fanin_limit):
    kind, srcs = gate.kind, list(gate.inputs)
    if kind == "XOR":
        if len(srcs) == 1:
            return b.emit(gate.name, gate_to_tlg("BUFF", srcs))
        # balanced pairing tree of 2-input XOR fragments
        while len(srcs) > 2:
            nxt = []
            for i in range(0, len(srcs) - 1, 2):
                nxt.append(_emit_xor2(b, srcs[i], srcs[i + 1], b.fresh(gate.name)))
            if len(srcs) % 2:
                nxt.append(srcs[-1])
            srcs = nxt
        return _emit_xor2(b, srcs[0], srcs[1], gate.name)
    if kind in ("NOT", "BUFF"):
        return b.emit(gate.name, gate_to_tlg(kind, srcs))
    core = {"NAND": "AND", "NOR": "OR"}.get(kind, kind)
    srcs = _tree_reduce(b, srcs, core, fanin_limit, gate.name)
    return b.emit(gate.name, gate_to_tlg(kind, srcs))


def synthesize_tln(net, fanin_limit=FANIN_LIMIT, w_max=W_MAX, collapse=True):
    """Build a functionally equivalent ThresholdLogicNetwork."""
    if not 2 <= fanin_limit:
        raise ValueError("fan-in limit must be at least 2")
    tln = ThresholdLogicNetwork(inputs=list(net.inputs))
    b = _Builder(tln)
    for name in net.topological_order():
        _emit_gate(b, net.gate(name), fanin_limit)
    for out in net.outputs:
        if out in tln.nodes:
            tln.outputs.append(out)
        else:  # primary output aliased straight to a primary input
            nid = out + "$buf"
            if nid not in tln.nodes:  # one buffer serves every repeat
                tln.add_node(nid, buffer_gate(out), is_buffer=True)
            tln.outputs.append(nid)
    if collapse:
        collapse_tln(tln, fanin_limit, w_max)
    _prune_dead(tln)
    tln.assign_levels()
    tln.validate(fanin_limit, w_max)
    return tln


def _merged_table(producer, consumer, support):
    """The truth table of `consumer` with `producer` folded in, as bits
    on the rows of `input_rows(len(support))`, from `tlg.prove`'s ints."""
    m = len(support)
    full = (1 << (1 << m)) - 1
    env = {s: _var(j, m) for j, s in enumerate(support)}
    for node in (producer, consumer):
        g = node.gate
        env[node.id] = _apply(_gate_table(g.weights, g.bias),
                              [env[i] for i in g.inputs], full)
    return tuple(env[consumer.id] >> r & 1 for r in range(1 << m))


def collapse_tln(tln, fanin_limit=FANIN_LIMIT, w_max=W_MAX):
    """Greedy single-fan-out collapse; returns the number of merges.

    Repeatedly merges the last node, in insertion order, whose only
    consumer can absorb it into one threshold gate within the fan-in and
    weight budget, until no node can be merged. Synthesis adds every node
    after its inputs and a merge hands the consumer only earlier inputs,
    so this reverse insertion order is reverse topological; a merge keeps
    the network's function in any order.

    A max-heap on insertion position holds the nodes whose outcome may
    have changed. A failed node stays failed until its gate, its consumer
    set or its consumer's gate changes; merging producer p into consumer c
    changes those only for c, c's old inputs and p's inputs, so only they
    are queued again. The consumer map is updated per merge and
    `solve_weights` is memoised by truth table. Each merge is thus the one
    a full rescan from the end would pick. Cost: O((N + E) log N).
    """
    outputs = set(tln.outputs)
    pos = {nid: i for i, nid in enumerate(tln.nodes)}
    # node or primary input -> the nodes consuming it
    users = {name: set() for name in list(tln.inputs) + list(tln.nodes)}
    for node in tln.nodes.values():
        for i in node.gate.inputs:
            users[i].add(node.id)
    heap, queued = [], set()

    def enqueue(nid):
        if nid in tln.nodes and nid not in outputs and nid not in queued:
            queued.add(nid)
            heapq.heappush(heap, (-pos[nid], nid))

    for nid in tln.nodes:
        enqueue(nid)
    solved = {}
    merged = 0
    while heap:
        _, nid = heapq.heappop(heap)
        queued.discard(nid)
        if len(users[nid]) != 1:
            continue
        (cid,) = users[nid]
        consumer = tln.nodes[cid]
        producer = tln.nodes[nid]
        support = [i for i in consumer.gate.inputs if i != nid]
        support += [i for i in producer.gate.inputs if i not in support]
        if len(support) > fanin_limit:
            continue
        table = _merged_table(producer, consumer, support)
        if table not in solved:
            solved[table] = solve_weights(table, w_max, fanin_limit)
        gate = solved[table]
        if gate is None:
            continue
        keep = [(s, w) for s, w in zip(support, gate.weights) if w != 0]
        if not keep:
            continue  # constant function; cannot be stored as a gate
        old_inputs = consumer.gate.inputs
        consumer.gate = ThresholdGate(
            tuple(s for s, _ in keep), tuple(w for _, w in keep), gate.bias
        )
        del tln.nodes[nid]
        merged += 1
        for i in old_inputs:
            users[i].discard(cid)
        for i in producer.gate.inputs:
            users[i].discard(nid)
        for i in consumer.gate.inputs:
            users[i].add(cid)
        del users[nid]
        for i in (cid,) + old_inputs + producer.gate.inputs:
            enqueue(i)
    return merged


def _prune_dead(tln):
    live = set(tln.outputs)
    stack = [o for o in tln.outputs if o in tln.nodes]
    while stack:
        node = tln.nodes[stack.pop()]
        for i in node.gate.inputs:
            if i in tln.nodes and i not in live:
                live.add(i)
                stack.append(i)
    for nid in [n for n in tln.nodes if n not in live]:
        del tln.nodes[nid]


# exhaustive_vectors(n) and sampled_vectors(n, count, seed)
exhaustive_vectors = sampled_vectors = input_rows


def verify_equivalence(net, tln, count=None, seed=0):
    """Compare a Boolean network against a threshold network: (True, None)
    when `tlg.prove` proves them equivalent, and otherwise with
    `tlg.check` at the integer levels, on the packed words
    `input_words(n, count, seed)`: every row when `count` is None or at
    least 2^n.

    Returns (ok, counterexample) where the counterexample holds the
    lowest-index failing input vector and both output vectors.
    """
    if prove(tln, net):
        return True, None
    n = len(net.inputs)
    words = input_words(n, count, seed)
    rows = 2 ** n if count is None else min(count, 2 ** n)
    low = lowered(tln, net)
    want = evaluate_packed(net, words)  # the oracle's words, run once
    out, errors = check(low, net, words, rows, low.levels[None], want)
    if not errors[0]:
        return True, None
    got = out.row(0)
    i = int(np.argmax(unpack(np.bitwise_or.reduce(got ^ want, 0), rows)))

    def bits(w):  # vector i of each row of words
        return [int(b) for b in w[:, i // 64] >> np.uint64(i % 64) & 1]

    return False, {"vector": bits(words), "expected": bits(want),
                   "got": bits(got)}
