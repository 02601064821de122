"""Map a threshold logic network onto pipelined crossbar-array hardware.

Passes, in pipeline order, each run once: removal of the path buffers an
earlier map left, stage assignment (a schedule of levels within the ASAP
depth that needs the fewest shared path-balancing buffer chains; ASAP
levels where it saves none), per-stage capacity enforcement (on the
columns the next two passes build), path-equalizing buffer insertion,
heavy fan-out splitting, binning into fixed-size crossbar blocks,
absorption of underfilled stages via backward connections, and a
barycenter column reorder that maximizes direct (face-to-face) links.
The blocks are a design's placement; each pass and check after binning
reads them as per-id stage and block arrays (`partition.place`) on the
network's view, and `partition.repartition` re-bins a design through the
same binning and absorption. Every public entry point ends with `validate`.
"""

from __future__ import annotations

import itertools
import math
import numbers
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import graph, partition
from .partition import MappingInfeasible
from .tlg import (
    FANIN_LIMIT,
    W_MAX,
    ThresholdGate,
    ThresholdLogicNetwork,
    _levels,
    _sorted,
    buffer_gate,
    check_interface,
)

SCHEDULE_SWEEPS = 3  # descent sweeps of `assign_stages`, at most


def _real(x):
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


@dataclass
class MappingConfig:
    k: int = 2                 # MCA logic levels per pipeline stage
    rows: int = 64             # input rows per block
    cols: int = 32             # TLG columns per block
    blocks_per_stage: int | None = None  # None: as many as needed
    f_max: int = 8             # fan-out bound before node splitting
    min_fill: float = 0.10     # stages below this fill get absorbed
    b_max: int = 4             # backward connections per block
    reorder_sweeps: int = 10

    def __post_init__(self):
        # a loaded artifact's config comes through here too
        for name, low in (("k", 1), ("rows", 1), ("cols", 1), ("f_max", 2),
                          ("blocks_per_stage", 1), ("b_max", 0),
                          ("reorder_sweeps", 0)):
            value = getattr(self, name)
            if value is None and name == "blocks_per_stage":
                continue
            if not (_real(value) and float(value).is_integer()
                    and value >= low):
                raise ValueError(f"{name} must be a whole number >= {low}, "
                                 f"got {value!r}")
            setattr(self, name, int(value))
        if not (_real(self.min_fill) and 0 <= self.min_fill <= 1):
            raise ValueError(f"min_fill must be a number in [0, 1], got "
                             f"{self.min_fill!r}")

    def to_json(self):
        return dict(self.__dict__)

    @classmethod
    def from_json(cls, obj):
        return cls(**obj)


@dataclass
class MappedDesign:
    config: MappingConfig
    tln: ThresholdLogicNetwork
    source: "BooleanNetwork"            # noqa: F821  (oracle netlist)
    blocks: dict = field(default_factory=dict)   # stage -> [[node ids]]
    backward_edges: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

    @property
    def input_blocks(self):
        """[[input names]]: the primary inputs in runs of `config.cols`."""
        inputs, cols = self.tln.inputs, self.config.cols
        return [list(inputs[i:i + cols]) for i in range(0, len(inputs), cols)]

    @property
    def absorbed(self):
        """The nodes moved into an earlier stage: the heads of the backward
        edges, which absorption adds for every input of a node it moves."""
        return {v for _, v in self.backward_edges}

    @property
    def n_stages(self):
        return max(self.blocks, default=0)

    @property
    def buffer_count(self):
        return sum(1 for n in self.tln.nodes.values() if n.is_buffer)

    def stage_nodes(self, s):
        return [nid for blk in self.blocks[s] for nid in blk]

    def sections(self):
        """The artifact's layout: top-level key -> a zero-argument callable
        building its value, so that a writer can build and drop one
        section at a time (`cli._dump`)."""
        return {"config": self.config.to_json, "tln": self.tln.to_json,
                "source": self.source.to_json,
                "blocks": lambda: {str(s): b for s, b in self.blocks.items()},
                "input_blocks": lambda: self.input_blocks,
                "absorbed": lambda: sorted(self.absorbed),
                "backward_edges": lambda: self.backward_edges,
                "warnings": lambda: self.warnings}

    def to_json(self):
        return {key: build() for key, build in self.sections().items()}

    @classmethod
    def from_json(cls, obj):
        """The design of the document `obj`, which it consumes: the `tln`
        and `source` sections are taken off it and emptied as they are
        built, and `validate` checks the design."""
        from .bench import BooleanNetwork

        if not isinstance(obj["blocks"], dict):
            raise ValueError("blocks must be an object")
        design = cls(
            config=MappingConfig.from_json(obj["config"]),
            tln=ThresholdLogicNetwork.from_json(obj.pop("tln")),
            source=BooleanNetwork.from_json(obj.pop("source")),
            blocks={int(s): b for s, b in obj["blocks"].items()},
            backward_edges=[tuple(e) for e in obj["backward_edges"]],
            warnings=list(obj["warnings"]),
        )
        if (obj["input_blocks"] != design.input_blocks
                or obj["absorbed"] != sorted(design.absorbed)):
            raise ValueError("blocks must place every node and input once, "
                             "and absorb only nodes")
        validate(design)
        return design


def _stage_of(tln, name):
    if name in tln.nodes:
        return tln.nodes[name].stage
    return 0  # primary input


def assign_stages(tln, k):
    """Levels that `insert_buffers` needs the fewest chain buffers for at
    the ASAP depth, then pipeline stage S = ceil(level / k).

    The objective is the chain count: the sum over signals u (inputs and
    nodes) of max(0, S(latest consumer of u) - S(u) - 1). Inputs stay at
    level 0, every edge keeps level(v) >= level(u) + 1, no level passes the
    ASAP depth (so the stage count is ASAP's) and a node without consumers
    keeps its ASAP level. This is min-area retiming with fan-out sharing
    (Leiserson & Saxe, Algorithmica 1991), solved by descent:

    - Start, in reverse topological order: each non-output node with
      consumers goes to its earliest consumer's level - 1.
    - At most `SCHEDULE_SWEEPS` sweeps in topological order, stopping after
      one that changes no level. A node's window runs from its latest
      input's level + 1 to its earliest consumer's level - 1. It takes the
      stage in the window that minimizes its own chain plus those of its
      distinct inputs, the lowest on a tie, and the lowest level of that
      stage the window allows. That cost is convex and piecewise linear in
      the stage: it falls by 1 a stage up to the node's latest consumer
      stage - 1 and rises by 1 a stage per input u from max(S(u) + 1, the
      latest stage among u's other consumers) on. So its lowest minimum
      is the least of these breakpoints, clamped into the window.
    - Guard: the ASAP levels stay unless the result has strictly fewer
      chain buffers.

    Runs on the integer view of `tlg._sorted`, with each signal's consumers
    from one stable argsort. A sweep tries every node with slack (latest
    level above ASAP) and reads what it needs from the current levels and
    stages: it costs O(sum over edges u -> j of u's fan-out).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    v, order = _sorted(tln)
    asap, order = _levels(v, order), order.tolist()
    n, size = v.n_sources, len(v.names)
    ptr, ind = [0] * n + v.indptr.tolist(), v.indices.tolist()
    reader = graph.readers(v)
    by_src = np.argsort(v.indices, kind="stable")  # edges by source
    uptr = np.searchsorted(v.indices[by_src], np.arange(size + 1)).tolist()
    flat = reader[by_src].tolist()  # i's consumers: flat[uptr[i]:uptr[i + 1]]

    # the start, and `late`: as late as consumers allow, outputs too
    level, late = list(asap), list(asap)
    pinned = {v.index[name] for name in tln.outputs if name in v.index}
    for j in reversed(order):
        cons = flat[uptr[j]:uptr[j + 1]]
        if cons:
            a, b = late[cons[0]], level[cons[0]]
            for c in cons:
                if late[c] < a:
                    a = late[c]
                if level[c] < b:
                    b = level[c]
            late[j] = a - 1
            if j not in pinned:
                level[j] = b - 1
    stage = [-(-lvl // k) for lvl in level]

    # a node's levels lie in [ASAP, late]: one with no slack never moves,
    # and one whose stage is fixed (not `free`) takes its window's low end
    movable = [(j, -(-asap[j] // k) < -(-late[j] // k)) for j in order
               if late[j] > asap[j]]
    for _ in range(SCHEDULE_SWEEPS):
        changed = False
        for j, free in movable:  # plain loops: fan-ins and fan-outs are short
            srcs, lo = ind[ptr[j]:ptr[j + 1]], 0
            for u in srcs:
                if level[u] > lo:
                    lo = level[u]
            new = lo = lo + 1
            if free:
                # the docstring's least breakpoint, clamped into the window,
                # which ends at the earliest consumer's level - 1 <= late
                hi, bp = late[j], 0
                for c in flat[uptr[j]:uptr[j + 1]]:
                    if level[c] <= hi:
                        hi = level[c] - 1
                    if stage[c] > bp:
                        bp = stage[c]
                bp -= 1
                for u in srcs:
                    t = stage[u] + 1
                    for c in flat[uptr[u]:uptr[u + 1]]:
                        if stage[c] > t and c != j:
                            t = stage[c]
                    if t < bp:
                        bp = t
                s_lo = -(-lo // k)
                best = min(-(-hi // k), max(s_lo, bp))
                if best > s_lo:
                    new = (best - 1) * k + 1
            if new != level[j]:
                level[j], stage[j] = new, -(-new // k)
                changed = True
        if not changed:
            break

    if (_chain_buffers(level, k, v.indices, reader)
            >= _chain_buffers(asap, k, v.indices, reader)):
        level = asap  # the guard
    for node, lvl in zip(tln.nodes.values(), level[n:]):
        node.level, node.stage = lvl, -(-lvl // k)
    return tln


def _chain_buffers(level, k, src, dst):
    """The chain count of `assign_stages` for ids at `level`, edges
    src -> dst (int arrays)."""
    stage = -(-np.asarray(level) // k)
    last = np.zeros_like(stage)
    np.maximum.at(last, src, stage[dst])
    return int(np.maximum(last - stage - 1, 0).sum())


def strip_buffers(tln):
    """Remove path-equalization buffers, rewiring consumers to the source.

    Buffers that realize a primary output alias are kept.
    """
    removable = {
        nid for nid, n in tln.nodes.items()
        if n.is_buffer and nid not in tln.outputs
    }

    def resolve(src):
        while src in removable:
            src = tln.nodes[src].gate.inputs[0]
        return src

    for node in tln.nodes.values():
        g = node.gate
        if node.id in removable or removable.isdisjoint(g.inputs):
            continue
        node.gate = ThresholdGate(
            tuple(resolve(i) for i in g.inputs), g.weights, g.bias
        )
    for nid in removable:
        del tln.nodes[nid]


def insert_buffers(tln, k):
    """Break every edge spanning >= 2 stage boundaries with buffer chains.

    Chains are shared: one buffer per (source, stage) pair.
    """
    chains = {}

    def carried(src, stage):
        # id holding the value of `src`, placed in `stage`: the chain is
        # extended from its last buffer (or `src`) below `stage` upwards
        low, top = _stage_of(tln, src), stage
        while top > low and (src, top) not in chains:
            top -= 1
        prev = chains.get((src, top), src)
        for s in range(top + 1, stage + 1):
            nid = f"{src}$s{s}"
            node = tln.add_node(nid, buffer_gate(prev), is_buffer=True)
            node.stage, node.level = s, (s - 1) * k + 1
            chains[src, s] = prev = nid
        return prev

    for nid in list(tln.nodes):  # the buffers made here are not rewired
        node = tln.nodes[nid]
        g = node.gate
        srcs = tuple(carried(src, node.stage - 1)
                     if node.stage - _stage_of(tln, src) >= 2 else src
                     for src in g.inputs)
        if srcs != g.inputs:  # only the gates it rewires are rebuilt
            node.gate = ThresholdGate(srcs, g.weights, g.bias)
    return len(chains)


def _bump_level(tln, nid, new_level, k, cons):
    """Raise a node's level and stage, cascading through the consumer map
    `cons` to same/lower consumers; returns the ids of the moved nodes."""
    moved = []
    work = [(nid, new_level)]
    while work:
        name, lvl = work.pop()
        node = tln.nodes[name]
        if node.level >= lvl:
            continue
        node.level = lvl
        node.stage = math.ceil(lvl / k)
        moved.append(name)
        for c in cons[name]:
            if tln.nodes[c].level <= lvl:
                work.append((c, lvl + 1))
    return moved


def _stage_columns(tln, cfg):
    """Columns per stage once buffered and split: `insert_buffers` and
    `split_fanout` themselves, run on a copy."""
    out = tln.copy()
    insert_buffers(out, cfg.k)
    split_fanout(out, cfg.f_max)
    return Counter(n.stage for n in out.nodes.values())


def enforce_capacity(tln, cfg):
    """Defer overflowing nodes to later stages in one forward sweep.

    Runs on the unbuffered network, before `insert_buffers` and
    `split_fanout`. Stage s's load is the columns it takes after those
    passes: its nodes, one buffer per value made before s and read after
    s, and the fan-out copies.
    Nodes plus pass-through values never exceed that count and decide most
    deferrals; only a stage they fit is checked against the real count,
    taken by `_stage_columns` and retaken after each deferral. Deferring a
    node moves only it and its descendants, adding load to s and later
    stages, never to an earlier one, so each stage is settled once. Victims:
    nodes whose consumers all skip the next stage first, then lowest
    fan-in, then insertion order. A stage left with no node is infeasible:
    at most one stage per node. Its message gives the columns that stage's
    pass-through values and their fan-out copies take.
    """
    if cfg.blocks_per_stage is None:
        return
    cap = cfg.blocks_per_stage * cfg.cols
    nodes = tln.nodes
    order = {nid: i for i, nid in enumerate(nodes)}
    cons = tln.consumers()
    last = max((n.stage for n in nodes.values()), default=0)
    columns = None  # real columns per stage, None once a deferral stales it
    s = 1
    while s <= last:
        load = {nid for nid, n in nodes.items() if n.stage == s}
        through = {src for n in nodes.values() if n.stage > s
                   for src in n.gate.inputs if _stage_of(tln, src) < s}

        def key(nid):
            skips_next = bool(cons[nid]) and all(
                nodes[c].stage >= s + 2 for c in cons[nid])
            return (not skips_next, nodes[nid].gate.fan_in, order[nid])

        while load:
            if len(load) + len(through) <= cap:
                if columns is None:
                    columns = _stage_columns(tln, cfg)
                if columns[s] <= cap:
                    break
            victim = min(load, key=key)
            for nid in _bump_level(tln, victim, s * cfg.k + 1, cfg.k, cons):
                load.discard(nid)
                last = max(last, nodes[nid].stage)
                through.update(src for src in nodes[nid].gate.inputs
                               if _stage_of(tln, src) < s)
            columns = None
        if not load:
            raise MappingInfeasible(
                f"stage {s} left with no node: {len(through)} pass-through "
                f"values and their fan-out copies take "
                f"{_stage_columns(tln, cfg)[s]} columns, budget {cap} "
                f"columns")
        s += 1


def split_fanout(tln, f_max):
    """Duplicate nodes whose fan-out exceeds f_max; equivalence preserved.

    Processes consumers before producers so one reverse-topological pass
    suffices. Primary inputs are left as-is (they have no gate to copy).
    A node's consumer slots are (owner, input position) in owner insertion
    order, then (None, output position); slot i moves to copy
    i // f_max. A copy of n takes the first unused id `n$c1`, `n$c2`, ...,
    so a second call leaves the first call's copies be. The slot index is
    built once and each copy's slots are appended as the copy is created
    (copies go last in insertion order, and a node's own slots are never
    rewritten before it is processed), so the index always equals a full
    rescan: O(N + E) plus the sort.
    """
    if f_max < 2:
        raise ValueError("f_max must be >= 2")
    slots = {name: [] for name in list(tln.inputs) + list(tln.nodes)}
    for node in tln.nodes.values():
        for pos, src in enumerate(node.gate.inputs):
            slots[src].append((node.id, pos))
    out_slots = {}
    for pos, out in enumerate(tln.outputs):
        out_slots.setdefault(out, []).append((None, pos))
    n_split = 0
    for nid in reversed(tln.topological_order()):
        node = tln.nodes[nid]
        mine = slots[nid] + out_slots.get(nid, [])
        if len(mine) <= f_max:
            continue
        n_copies = math.ceil(len(mine) / f_max)
        targets = [nid]
        fresh = (cid for cid in (f"{nid}$c{j}" for j in itertools.count(1))
                 if cid not in tln.nodes and cid not in slots)
        for _ in range(1, n_copies):
            cid = next(fresh)
            cnode = tln.add_node(cid, node.gate, is_buffer=node.is_buffer)
            cnode.level, cnode.stage = node.level, node.stage
            for pos, src in enumerate(node.gate.inputs):
                slots[src].append((cid, pos))
            targets.append(cid)
        for i, (owner, pos) in enumerate(mine):
            tgt = targets[i // f_max]
            if tgt == nid:
                continue
            if owner is None:
                tln.outputs[pos] = tgt
            else:
                g = tln.nodes[owner].gate
                srcs = list(g.inputs)
                srcs[pos] = tgt
                tln.nodes[owner].gate = ThresholdGate(
                    tuple(srcs), g.weights, g.bias
                )
        n_split += 1
    return n_split


def absorb_small_layers(design, v=None):
    """Fold underfilled stages into their predecessor via backward links,
    then set every node's stored stage from its block.

    A stage is absorbed only when each of its nodes can sit in the block
    already holding all of its sources, with at most b_max backward
    connections per block and the block still within its columns and
    `block_rows`; otherwise it is skipped with a warning naming the first
    of these limits that stopped it. `v` is the view of the design's
    network (`ThresholdLogicNetwork.view`), built when omitted.
    """
    cfg, tln = design.config, design.tln
    v = tln.view() if v is None else v
    stage, block = partition.place(design, v)
    s = design.n_stages
    while s >= 2:
        nodes = design.stage_nodes(s)
        fill = len(nodes) / (max(len(design.blocks[s]), 1) * cfg.cols)
        if not nodes or fill >= cfg.min_fill:
            s -= 1
            continue
        plan, back_count, limit = {}, {}, None
        for nid in nodes:
            j = v.index[nid] - v.n_sources
            srcs = v.indices[v.indptr[j]:v.indptr[j + 1]]
            src_blocks = set(block[srcs].tolist())
            if len(src_blocks) != 1 or (stage[srcs] != s - 1).any():
                limit = ": sources in several blocks or stages"
                break
            b = src_blocks.pop()
            plan[nid] = b
            back_count[b] = back_count.get(b, 0) + len(srcs)
        for b, cnt in back_count.items():
            if limit:
                break
            block_nodes = design.blocks[s - 1][b] + [
                nid for nid, x in plan.items() if x == b]
            if cnt > cfg.b_max:
                limit = f" within b_max={cfg.b_max}"
            elif len(block_nodes) > cfg.cols:
                limit = f" within cols={cfg.cols}"
            elif partition.block_rows(
                    [tln.nodes[nid].gate for nid in block_nodes]) > cfg.rows:
                limit = f" within rows={cfg.rows}"
        if limit:
            design.warnings.append(
                f"stage {s} underfilled ({fill:.0%}) but not absorbable"
                f"{limit}")
            s -= 1
            continue
        for nid, b in sorted(plan.items()):
            design.blocks[s - 1][b].append(nid)
            for src in tln.nodes[nid].gate.inputs:
                design.backward_edges.append((src, nid))
        ids = [v.index[nid] for nid in plan]
        stage[ids], block[ids] = s - 1, list(plan.values())
        # close the gap: the stages above s move down one
        stage[stage > s] -= 1
        design.blocks = {t - (t > s): blks
                         for t, blks in design.blocks.items() if t != s}
        s = min(s, design.n_stages)
    for node, st in zip(tln.nodes.values(), stage[v.n_sources:].tolist()):
        node.stage = st
    return design


def reorder_stages(design, v=None):
    """Barycenter sweeps (at most `config.reorder_sweeps`) reassigning
    columns to maximize direct links (Sugiyama, Tagawa & Toda, IEEE SMC
    1981).

    Each unpinned stage in turn is sorted by (barycentre, current position),
    where a node's barycentre is the mean block index of its inputs and
    consumers (with multiplicity, 0.0 for none), and re-binned. The new
    order is kept only if the stage's direct links do not decrease; only
    edges touching the stage can change, so the pass is monotone in the
    design-wide count. Stages holding absorbed (backward-connected) nodes
    are pinned.

    Runs on `v`, the view of the design's network (built when omitted):
    block indices live in the int array `partition.place` gives, and each
    stage's neighbour and non-backward edge index arrays are built once.
    The barycentre sums are of small integers, so exact, and the division
    is correctly rounded: the values, and so every decision, equal those of
    `sum(neighbours) / len(neighbours)`. A stage whose whole source union
    and largest `bias_rows` fit `rows` bins into `cols`-wide chunks in any
    order; only the others are binned by `partition.block_index`, on row
    needs taken once per stage, and a trial in the order the stage last
    tried reuses that binning. Direct links depend only on block indices,
    so a trial that keeps every node's block is accepted without a
    recount. A stage's blocks are built from its last accepted order once
    the sweeps end.
    """
    cfg, tln = design.config, design.tln
    v = tln.view() if v is None else v
    stage, block = partition.place(design, v)
    u, w = v.indices, graph.readers(v)
    forward = ~partition.backward(design, v)
    heads = stage[w[~forward]]
    pinned = {0, *heads.tolist(), *(heads - 1).tolist()}
    local = np.zeros_like(stage)  # position in its stage

    # the edge ids into, and out of, stage s: slices s of the edge ids
    # sorted once by the stage of their consumer, and of their source
    bounds = np.arange(max(design.blocks, default=0) + 2)
    by_w, by_u = (np.argsort(stage[e], kind="stable") for e in (w, u))
    at_w, at_u = (np.searchsorted(stage[e][by], bounds)
                  for e, by in ((w, by_w), (u, by_u)))
    # per unpinned stage: its nodes, their ids, each neighbour (owner's
    # position, neighbour id), the neighbour counts, the non-backward edges
    # touching it, and, unless any order fits the rows, its row needs
    arrays, order, accepted, tried = {}, {}, set(), {}
    for s in sorted(design.blocks):
        if s in pinned:
            continue
        nodes = design.stage_nodes(s)
        ids = np.array([v.index[n] for n in nodes], dtype=np.intp)
        local[ids] = np.arange(len(ids))
        into, out_of = by_w[at_w[s]:at_w[s + 1]], by_u[at_u[s]:at_u[s + 1]]
        owner = np.concatenate([local[w[into]], local[u[out_of]]])
        touch = np.concatenate([into, out_of[stage[w[out_of]] != s]])
        touch = touch[forward[touch]]
        gates = [tln.nodes[n].gate for n in nodes]
        fits = partition.block_rows(gates) <= cfg.rows
        arrays[s] = (nodes, ids, owner,
                     np.concatenate([u[into], w[out_of]]),
                     np.bincount(owner, minlength=len(nodes)),
                     u[touch], w[touch],
                     None if fits else tuple(
                         np.array(x) for x in partition.row_needs(gates)))
        order[s] = np.arange(len(nodes))

    for _ in range(cfg.reorder_sweeps):
        improved = False
        for s, (nodes, ids, owner, nbr, count, eu, ev, needs) in \
                arrays.items():
            sums = np.bincount(owner, weights=block[nbr],
                               minlength=len(nodes))
            bary = np.divide(sums, count, out=np.zeros(len(nodes)),
                             where=count > 0)
            trial = order[s][np.argsort(bary[order[s]], kind="stable")]
            if needs is None:
                at = np.arange(len(nodes)) // cfg.cols
            elif s in tried and np.array_equal(tried[s][0], trial):
                at = tried[s][1]  # stages often repeat a refused trial
            else:
                at = partition.block_index(*(x[trial].tolist() for x in needs),
                                           cfg.rows, cfg.cols)
                tried[s] = trial, at
            new = np.empty_like(trial)
            new[trial] = at
            old = block[ids]
            if not np.array_equal(new, old):
                before = np.count_nonzero(block[eu] == block[ev])
                block[ids] = new
                after = np.count_nonzero(block[eu] == block[ev])
                if after < before:
                    block[ids] = old
                    continue
                improved |= after > before
            order[s] = trial
            accepted.add(s)
        if not improved:
            break

    for s in accepted:  # each block holds a run of `order[s]`
        nodes, ids = arrays[s][:2]
        at = zip(order[s].tolist(), block[ids[order[s]]].tolist())
        design.blocks[s] = [[nodes[j] for j, _ in run]
                            for _, run in itertools.groupby(
                                at, key=lambda x: x[1])]
    return design


def validate(design, fanin_limit=FANIN_LIMIT, w_max=W_MAX, v=None):
    """Check every structural invariant of a mapped design: its gates
    (`ThresholdLogicNetwork.validate`, which gives the view `v`; a caller
    that has run it passes `v`), then its placement on `v`. A failure
    names the first offender in stored order, whatever the hash seed."""
    cfg, tln = design.config, design.tln
    if v is None:
        v = tln.validate(fanin_limit, w_max)
    seen = set()
    for s, blks in design.blocks.items():
        for b, colnodes in enumerate(blks):
            if len(colnodes) > cfg.cols:
                raise MappingInfeasible(f"stage {s} block {b}: {len(colnodes)} "
                                        f"nodes > {cfg.cols} columns")
            for nid in colnodes:
                if nid in seen or nid not in tln.nodes:
                    what = "placed twice" if nid in seen else "is not a node"
                    raise MappingInfeasible(
                        f"blocks must place every node once: {nid} {what}")
                if tln.nodes[nid].stage != s:
                    raise MappingInfeasible(f"{nid}: stored stage "
                                            f"{tln.nodes[nid].stage}, not {s}")
                seen.add(nid)
            need = partition.block_rows(
                [tln.nodes[nid].gate for nid in colnodes])
            if need > cfg.rows:
                raise MappingInfeasible(
                    f"stage {s} block {b}: needs {need} rows > {cfg.rows}")
        limit = cfg.blocks_per_stage
        if limit is not None and len(blks) > limit:
            raise MappingInfeasible(
                f"stage {s}: {len(blks)} blocks > {limit} blocks per stage")
    if len(seen) != len(tln.nodes):
        missing = set(tln.nodes) - seen
        raise MappingInfeasible(f"blocks must place every node once: "
                                f"unplaced nodes {sorted(missing)[:5]}")
    names, (stage, block) = v.names, partition.place(design, v)
    back, u, w = partition.backward(design, v), v.indices, graph.readers(v)
    level = np.array([0] * v.n_sources + [x.level for x in tln.nodes.values()])
    absorbed = np.bincount(w[back], minlength=len(names)) > 0
    span = stage[w] - stage[u]
    ok = np.where(back, (span == 0) & (block[u] == block[w]),
                  (span == 1) | ((span == 0) & (cfg.k > 1) & ~absorbed[w]
                                 & (level[w] > level[u])))
    if not ok.all():
        e = int(np.argmin(ok))
        a, b = names[u[e]], names[w[e]]
        if back[e]:
            raise MappingInfeasible(f"backward connection {a}->{b} crosses blocks")
        raise MappingInfeasible(
            f"edge {a}(stage {stage[u[e]]}) -> {b}(stage {stage[w[e]]}) "
            f"spans {span[e]} boundaries")
    # backward connections per block within bound, each counted once
    heads = [v.index[b] for _, b in dict.fromkeys(map(tuple,
                                                      design.backward_edges))]
    for key, cnt in Counter(zip(stage[heads].tolist(),
                                block[heads].tolist())).items():
        if cnt > cfg.b_max:
            raise MappingInfeasible(f"stage/block {key}: {cnt} backward "
                                    f"connections > {cfg.b_max}")
    return True


def map_design(tln, source, config=None, fanin_limit=FANIN_LIMIT,
               w_max=W_MAX):
    """Run the full mapping pipeline on a synthesized network; ValueError
    if it does not line up with its `source` (see `check_interface`)."""
    cfg = config or MappingConfig()
    tln = tln.copy()
    strip_buffers(tln)  # a mapped design's TLN carries its path buffers
    assign_stages(tln, cfg.k)
    enforce_capacity(tln, cfg)
    insert_buffers(tln, cfg.k)
    split_fanout(tln, cfg.f_max)

    design = MappedDesign(config=cfg, tln=tln, source=source,
                          blocks=partition.bin_stages(tln, tln.nodes, cfg.k,
                                                      cfg.rows, cfg.cols))
    v = tln.validate(fanin_limit, w_max)  # a malformed network fails first
    absorb_small_layers(design, v)
    reorder_stages(design, v)
    validate(design, v=v)
    check_interface(tln, source)
    return design


def summary(design):
    stats = partition.interconnect_stats(design)
    return {
        "stages": design.n_stages,
        "nodes": len(design.tln.nodes),
        "buffers": design.buffer_count,
        "blocks": sum(len(b) for b in design.blocks.values()),
        "direct_links": stats["direct"],
        "routed_links": stats["routed"],
        "backward_links": len(design.backward_edges),
        "route_length": stats["route_length"],
        "warnings": design.warnings,
    }
