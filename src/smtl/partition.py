"""Sub-array partitioning, interconnect accounting and area estimation.

Blocks are laid out on a (stage, block-index) grid. An edge between nodes
holding the same block index in consecutive stages is a direct link
(face-to-face arrays); everything else goes through the routing network and
is charged Manhattan distance in block-pitch units.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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
            + max((bias_rows(gate.bias) for gate in gates), default=0))


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
    blocks = []
    for nid, b in zip(node_ids, block_index(sources, bias, rows, cols)):
        if b == len(blocks):
            blocks.append([])
        blocks[b].append(nid)
    return blocks


def repartition(design, subarray_rows, subarray_cols):
    """Return a copy of the design re-binned at different sub-array dims.

    The copy has its own config and blocks; it shares the threshold
    network, the source netlist and the other fields with `design`, which
    is left unchanged.
    """
    # absorbed nodes read their sources in-block: keep those stages' binning
    touched = {design.tln.nodes[n].stage for n in design.absorbed}
    blocks = {}
    for s, blks in design.blocks.items():
        if s in touched or s - 1 in touched:
            blocks[s] = [list(b) for b in blks]
        else:
            blocks[s] = rebin(design.stage_nodes(s), design.tln,
                              subarray_rows, subarray_cols)
    return replace(
        design,
        config=replace(design.config, rows=subarray_rows,
                       cols=subarray_cols),
        blocks=blocks,
    )


@dataclass(frozen=True)
class Link:
    src: str
    dst: str
    kind: str      # direct | routed | backward
    length: int    # block-pitch units; 0 unless routed


def classify_links(design):
    """Classify every edge of the design as direct, routed or backward."""
    place = design.placements()
    backward = set(map(tuple, design.backward_edges))
    links = []
    for u, v in design.edges():
        if (u, v) in backward:
            links.append(Link(u, v, "backward", 0))
            continue
        su, bu, _ = place[u]
        sv, bv, _ = place[v]
        if bu == bv:
            links.append(Link(u, v, "direct", 0))
        else:
            links.append(Link(u, v, "routed", abs(sv - su) + abs(bv - bu)))
    return links


def interconnect_stats(design):
    """The totals of `classify_links`: direct, routed and backward link
    counts and the route length, in one pass over the edges."""
    place = design.placements()
    backward = set(map(tuple, design.backward_edges))
    direct = routed = n_backward = route_length = 0
    for u, v in design.edges():
        if (u, v) in backward:
            n_backward += 1
            continue
        su, bu, _ = place[u]
        sv, bv, _ = place[v]
        if bu == bv:
            direct += 1
        else:
            routed += 1
            route_length += abs(sv - su) + abs(bv - bu)
    return {
        "direct": direct,
        "routed": routed,
        "backward": n_backward,
        "route_length": route_length,
    }


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
