"""Order-preserving topological sort for Boolean and threshold networks.

Every pass that walks a network in dependency order (Boolean evaluation,
synthesis emit order, fan-out splitting, per-node RNG draws in the crossbar
simulation) uses this one order, so artifacts depend on it byte for byte.
"""

from __future__ import annotations

from collections import deque


class CycleError(ValueError):
    """The network has a cycle; `leftover` lists the unordered nodes."""

    def __init__(self, leftover):
        self.leftover = leftover
        super().__init__(f"cycle among {len(leftover)} nodes")


def pass_numbers(nodes, sources):
    """Map each node name to its pass number.

    `nodes` is an iterable of (name, inputs) in insertion order; names in
    `sources` (primary inputs) have pass 0. A node's pass is
    max(1, max over inputs i of pass(i) + [pos(i) > pos(node)]): the sweep,
    among repeated insertion-order sweeps that each emit every node whose
    inputs are already emitted, in which the node is emitted. The first
    sweep is run as it is defined; the nodes it leaves are computed along a
    Kahn order, O(N + E) in all. Raises CycleError, leftover in insertion
    order, if some node can never be ordered (a cycle or an unknown input).
    """
    nodes = list(nodes)
    done = set(sources)
    passes, rest = {}, []
    for name, inputs in nodes:
        if done.issuperset(inputs):
            passes[name] = 1
            done.add(name)
        else:
            rest.append((name, inputs))
    if not rest:
        return passes
    pos = {name: i for i, (name, _) in enumerate(nodes)}
    missing = {}
    users = {name: [] for name, _ in rest}
    for name, inputs in rest:
        n = 0
        for i in inputs:
            if i not in done:
                n += 1
                if i in users:
                    users[i].append(name)
        missing[name] = n
    inputs_of = dict(rest)
    ready = deque(name for name, n in missing.items() if n == 0)
    while ready:
        name = ready.popleft()
        passes[name] = pass_of(inputs_of[name], pos[name], passes, pos)
        for u in users[name]:
            missing[u] -= 1
            if missing[u] == 0:
                ready.append(u)
    if len(passes) < len(nodes):
        raise CycleError([name for name, _ in nodes if name not in passes])
    return passes


def pass_of(inputs, here, passes, pos):
    """Pass of a node at position `here` from its inputs' passes.

    Inputs missing from `passes` are sources, at pass 0.
    """
    return max([passes[i] + (pos[i] > here) for i in inputs if i in passes]
               + [1])


def topological_order(nodes, sources):
    """Node names sorted by (pass, insertion position); O(E + N log N).

    Exactly the order of repeatedly sweeping the pending nodes in insertion
    order and emitting each node whose inputs are already emitted (inputs
    emitted earlier in the same sweep count), which is what keeps every
    artifact that depends on the order unchanged.
    """
    nodes = list(nodes)
    passes = pass_numbers(nodes, sources)
    # a stable sort keeps insertion order within a pass
    return sorted((name for name, _ in nodes), key=passes.__getitem__)
