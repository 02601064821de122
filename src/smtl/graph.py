"""Order-preserving topological sort for Boolean and threshold networks.

Every pass that walks a network in dependency order (Boolean evaluation,
synthesis emit order, fan-out splitting, per-node RNG draws in the crossbar
simulation) uses this one order, so artifacts depend on it byte for byte.
Synthesis adds each node after its inputs, so its networks sort to their
insertion order, and collapse merges in reverse insertion order alone.
"""

from __future__ import annotations

from collections import deque


class CycleError(ValueError):
    """The network has a cycle; `leftover` lists the unordered nodes."""

    def __init__(self, leftover):
        self.leftover = leftover
        super().__init__(f"cycle among {len(leftover)} nodes")


def topological_order(nodes, sources):
    """Node names in the order of repeated insertion-order sweeps over the
    pending nodes, each emitting every node whose inputs are emitted (in
    the same sweep too); artifacts depend on this order byte for byte.

    `nodes` holds (name, inputs) in insertion order; `sources` count as
    emitted. The first sweep runs as defined, and is the whole order when
    it leaves no node. A left node's pass (its sweep), max(1, max over
    inputs i of pass(i) + [pos(i) > pos(node)]), is computed along a Kahn
    order, and the left nodes follow sorted stably by pass; O(E + N log N).
    Raises CycleError, leftover in insertion order, on a cycle or an
    unknown input.
    """
    nodes = list(nodes)
    done = set(sources)
    first, rest = [], []
    for name, inputs in nodes:
        if done.issuperset(inputs):
            first.append(name)
            done.add(name)
        else:
            rest.append((name, inputs))
    if not rest:
        return first
    pos = {name: i for i, (name, _) in enumerate(nodes)}
    passes = dict.fromkeys(first, 1)
    missing = {}
    users = {name: [] for name, _ in rest}
    for name, inputs in rest:
        waits = [i for i in inputs if i not in done]
        missing[name] = len(waits)
        for i in waits:
            if i in users:  # else an unknown input: never ready
                users[i].append(name)
    inputs_of = dict(rest)
    ready = deque(name for name, n in missing.items() if n == 0)
    while ready:
        name = ready.popleft()
        passes[name] = max([passes[i] + (pos[i] > pos[name])
                            for i in inputs_of[name] if i in passes] + [1])
        for u in users[name]:
            missing[u] -= 1
            if missing[u] == 0:
                ready.append(u)
    if len(passes) < len(nodes):
        raise CycleError([name for name, _ in nodes if name not in passes])
    # left nodes are at pass 2 or later, each pass in insertion order
    return first + sorted((name for name, _ in rest), key=passes.__getitem__)
