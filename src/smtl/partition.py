"""Sub-array partitioning, interconnect accounting and area estimation.

Blocks are laid out on a (stage, block-index) grid. An edge between nodes
holding the same block index in consecutive stages is a direct link
(face-to-face arrays); everything else goes through the routing network and
is charged Manhattan distance in block-pitch units.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import groupby
from operator import itemgetter

import numpy as np

from . import graph
from .devices import bias_rows

# geometry: 4F^2 per 1T1M cell at F = 45 nm, 20% periphery per
# block, one cell-row of interconnect per unit route length
F_NM = 45.0
CELL_AREA_UM2 = 4 * (F_NM / 1000.0) ** 2
PERIPHERY_OVERHEAD = 0.20


class MappingInfeasible(Exception):
    """The design does not fit the given hardware (rows, blocks, budgets)."""


def block_rows(gates):
    """Input rows of a block holding `gates`: one per distinct source, plus
    the always-on bias rows, which the gates share, so as many as the
    largest `bias_rows` among them."""
    return (len({src for gate in gates for src in gate.inputs})
            + bias_rows(max((abs(gate.bias) for gate in gates), default=0)))


def row_needs(gates):
    """Per gate, the set of its sources and its `bias_rows`."""
    return ([frozenset(g.inputs) for g in gates],
            [bias_rows(g.bias) for g in gates])


def block_index(sources, bias, rows, cols):
    """The block of each item, binned greedily in order into blocks of
    rows x cols: item i reads the set `sources[i]` and needs `bias[i]` bias
    rows. A block closes when its columns fill up or its rows
    (`block_rows`) would exceed the row budget."""
    at, b, n, used, top = [], 0, 0, set(), 0
    for mine, need in zip(sources, bias):
        used |= mine  # the block with this item, or one to close
        if need > top:
            top = need
        if n and (n == cols or len(used) + top > rows):
            b, n, used, top = b + 1, 0, set(mine), need
        n += 1
        at.append(b)
    return at


def rebin(node_ids, tln, rows, cols):
    """Greedy binning of a stage's nodes into blocks of rows x cols
    (`block_index`); MappingInfeasible for a node no block can hold."""
    sources, bias = row_needs([tln.nodes[nid].gate for nid in node_ids])
    for nid, mine, need in zip(node_ids, sources, bias):
        if len(mine) + need > rows:
            raise MappingInfeasible(f"node {nid} needs {len(mine) + need} "
                                    f"rows, block has {rows}")
    at = block_index(sources, bias, rows, cols)
    return [[nid for nid, _ in run]
            for _, run in groupby(zip(node_ids, at), key=itemgetter(1))]


def bin_stages(tln, order, k, rows, cols):
    """{stage: `rebin` of its nodes} for every stage up to the last, the
    nodes of `order` at their schedule stage ceil(level / k), in order."""
    stages = {}
    for nid in order:
        stages.setdefault(-(-tln.nodes[nid].level // k), []).append(nid)
    return {s: rebin(stages.get(s, []), tln, rows, cols)
            for s in range(1, max(stages, default=0) + 1)}


def repartition(design, subarray_rows, subarray_cols, v=None):
    """A copy of the design re-binned at subarray_rows x subarray_cols by
    the mapper's binning: `bin_stages` on the schedule's stages (which
    absorption leaves as they are) in the current column order, then
    `mapping.absorb_small_layers` on a copy of the network and
    `mapping.validate`'s placement checks on `v` (the network's view, if
    given), but no column reorder. `design` is left unchanged."""
    from .mapping import absorb_small_layers, validate

    cfg = replace(design.config, rows=subarray_rows, cols=subarray_cols)
    tln = design.tln.copy()
    order = [nid for s in sorted(design.blocks) for nid in design.stage_nodes(s)]
    out = replace(design, config=cfg, tln=tln, backward_edges=[], warnings=[],
                  blocks=bin_stages(tln, order, cfg.k, cfg.rows, cfg.cols))
    v = tln.view() if v is None else v
    absorb_small_layers(out, v)
    validate(out, v=v)
    return out


def place(design, v):
    """Per id of `v`, the view of the design's network: its stage and its
    block in `design.blocks`, the primary inputs in stage 0 in runs of
    `config.cols` (a node placed twice: its last place)."""
    blks = [(s, b, blk) for s, blocks in design.blocks.items()
            for b, blk in enumerate(blocks)]
    ids = [v.index[nid] for *_, blk in blks for nid in blk]
    sizes = [len(blk) for *_, blk in blks]
    stage = np.zeros(len(v.names), dtype=np.intp)
    block = np.arange(len(v.names)) // design.config.cols
    stage[ids] = np.repeat([s for s, _, _ in blks], sizes)
    block[ids] = np.repeat([b for _, b, _ in blks], sizes)
    return stage, block


def backward(design, v):
    """Per edge of `v`, whether it is one of `design.backward_edges`;
    MappingInfeasible names the first stored one that is no edge."""
    back = np.zeros(len(v.indices), dtype=bool)
    for a, b in design.backward_edges:
        j = v.index.get(b, -1) - v.n_sources
        lo, hi = v.indptr[j:j + 2] if j >= 0 else (0, 0)
        at = lo + np.flatnonzero(v.indices[lo:hi] == v.index.get(a, -1))
        if not len(at):
            raise MappingInfeasible(f"backward connection {a}->{b} is not an edge")
        back[at] = True
    return back


@dataclass(frozen=True)
class Link:
    src: str
    dst: str
    kind: str      # direct | routed | backward
    length: int    # block-pitch units; 0 unless routed


def _links(design, v):
    """Per edge of `v`: its source and reader ids, its kind (0 backward, 1
    direct, 2 routed) and, if routed, its length in block-pitch units."""
    stage, block = place(design, v)
    u, w = v.indices, graph.readers(v)
    kind = np.where(backward(design, v), 0, 1 + (block[u] != block[w]))
    length = np.abs(stage[w] - stage[u]) + np.abs(block[w] - block[u])
    return u, w, kind, np.where(kind == 2, length, 0)


def classify_links(design):
    """Classify every edge of the design as direct, routed or backward."""
    v = design.tln.view()
    u, w, kind, length = (x.tolist() for x in _links(design, v))
    return [Link(v.names[i], v.names[j], ("backward", "direct", "routed")[k], n)
            for i, j, k, n in zip(u, w, kind, length)]


def interconnect_stats(design, v=None):
    """The totals of `classify_links`: direct, routed and backward link
    counts and the route length, on `v` (built when omitted)."""
    _, _, kind, length = _links(design, design.tln.view() if v is None else v)
    n_backward, direct, routed = np.bincount(kind, minlength=3).tolist()
    return {"direct": direct, "routed": routed, "backward": n_backward,
            "route_length": int(length.sum())}


def cell_count(design):
    """Total allocated crossbar cells: rows x cols per block, one cell per
    crosspoint; a weight's g+ and g- devices are not counted apart."""
    cfg = design.config
    n_blocks = sum(len(b) for b in design.blocks.values())
    return n_blocks * cfg.rows * cfg.cols


def area_estimate(design, stats=None):
    """Area in um^2: block cells + periphery + routing tracks.

    Routing is charged one cell-row (block width) per unit of route
    length. `stats` is the design's `interconnect_stats`, computed when
    omitted.
    """
    cells = cell_count(design)
    block_area = cells * CELL_AREA_UM2 * (1.0 + PERIPHERY_OVERHEAD)
    if stats is None:
        stats = interconnect_stats(design)
    route_area = stats["route_length"] * design.config.cols * CELL_AREA_UM2
    return block_area + route_area
