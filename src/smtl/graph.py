"""An integer view of a network and its order-preserving topological sort.

Every pass that walks a network in dependency order (Boolean evaluation,
synthesis emit order, ASAP levels, lowering, fan-out splitting, per-node
RNG draws in the crossbar simulation) uses the one order
`topological_order` takes from a network's `View`, so artifacts depend on
it byte for byte. Passes edit networks, so a view is built per call.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import chain, repeat

import numpy as np


class CycleError(ValueError):
    """The network has a cycle; `leftover` lists the unordered nodes."""

    def __init__(self, leftover):
        self.leftover = leftover
        super().__init__(f"cycle among {len(leftover)} nodes")


# A network as ids: `names` are the n_sources sources, then the nodes in
# insertion order; node j (id n_sources + j) reads `indices[indptr[j]:
# indptr[j + 1]]` (an unknown name: len(names)), with flat `weights`.
View = namedtuple("View", "names index n_sources indptr indices weights bias")


def view(sources, nodes, fan_ins, weights=None, bias=None):
    """The `View` of `sources`, then the node names `nodes`, node j reading
    the names `fan_ins[j]`."""
    n_sources, names = len(sources), list(sources) + list(nodes)
    index = dict(zip(names, range(len(names))))
    indptr = np.zeros(len(fan_ins) + 1, dtype=np.intp)
    np.cumsum(list(map(len, fan_ins)), out=indptr[1:])
    indices = np.fromiter(map(index.get, chain.from_iterable(fan_ins),
                              repeat(len(names))), np.intp, indptr[-1])
    return View(names, index, n_sources, indptr, indices, weights, bias)


def readers(v):
    """The id of the node reading each edge e of `v`, `v.indices[e]`."""
    return np.repeat(np.arange(v.n_sources, len(v.names)), np.diff(v.indptr))


def topological_order(v):
    """Node ids of `v` in the order of repeated insertion-order sweeps
    over the pending nodes, each emitting every node whose inputs are
    emitted (in the same sweep too), sources first.

    When every node reads only smaller ids (a synthesized network), that
    is insertion order. Otherwise a node's pass (its sweep), max(1, max
    over inputs i of pass(i) + [i > node]), sources at 0, is set along a
    Kahn order and the nodes are stably sorted by pass; O(E + N log N).
    Raises CycleError, leftover in insertion order, on a cycle or an
    unknown input."""
    n, ind = v.n_sources, v.indices
    ids, reader = np.arange(n, len(v.names)), readers(v)
    if (ind < reader).all():
        return ids
    waits = ind >= n  # a node or an unknown name: never ready
    missing = np.bincount(reader[waits] - n, minlength=len(ids)).tolist()
    known = waits & (ind < len(v.names))
    by_src = np.argsort(ind[known])  # node j's readers: users[uptr[j]:..]
    users = (reader[known][by_src] - n).tolist()
    uptr = np.searchsorted(ind[known][by_src], ids.tolist() + [len(v.names)])
    ptr, ind, uptr = v.indptr.tolist(), ind.tolist(), uptr.tolist()
    passes = [0] * (len(v.names) + 1)
    ready = [j for j, m in enumerate(missing) if not m]
    for j in ready:  # grows as it goes; any Kahn order gives the same passes
        p, nj = 1, n + j
        for i in ind[ptr[j]:ptr[j + 1]]:  # plain loops: the cheapest here
            q = passes[i] + (i > nj)
            if q > p:
                p = q
        passes[nj] = p
        for u in users[uptr[j]:uptr[j + 1]]:
            missing[u] -= 1
            if not missing[u]:
                ready.append(u)
    passes = np.array(passes[n:-1])
    if not passes.all():
        raise CycleError([v.names[i] for i in ids[passes == 0].tolist()])
    return ids[np.argsort(passes, kind="stable")]
