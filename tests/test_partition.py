"""Sub-array binning, interconnect classification and area accounting."""

import json

import pytest

from smtl import partition
from smtl.mapping import MappedDesign, MappingConfig
from smtl.tlg import ThresholdGate, ThresholdLogicNetwork

NOT = lambda src: ThresholdGate((src,), (-2,), 1)  # noqa: E731


def _wide_stage(n_nodes, n_inputs=16):
    tln = ThresholdLogicNetwork(inputs=[f"i{j}" for j in range(n_inputs)])
    for j in range(n_nodes):
        tln.add_node(f"n{j}", NOT(f"i{j % n_inputs}"))
    tln.outputs = [f"n{j}" for j in range(n_nodes)]
    return tln


# --- binning --------------------------------------------------------------

def test_rebin_by_columns():
    tln = _wide_stage(64)
    blocks = partition.rebin(list(tln.nodes), tln, rows=64, cols=32)
    assert [len(b) for b in blocks] == [32, 32]


def test_rebin_single_block_when_it_fits():
    tln = _wide_stage(20)
    blocks = partition.rebin(list(tln.nodes), tln, rows=64, cols=32)
    assert len(blocks) == 1


def test_rebin_closes_block_on_row_budget():
    # each node reads a distinct source and carries one bias row, so the
    # 4-row budget closes a block after 3 nodes, well before the columns fill
    tln = _wide_stage(12, n_inputs=12)
    blocks = partition.rebin(list(tln.nodes), tln, rows=4, cols=32)
    assert [len(b) for b in blocks] == [3, 3, 3, 3]
    for blk in blocks:
        srcs = set()
        for nid in blk:
            srcs.update(tln.nodes[nid].gate.inputs)
        assert len(srcs) <= 3


def test_rebin_accounts_for_bias_rows():
    tln = ThresholdLogicNetwork(inputs=["a", "b"])
    # bias -9 spills into two always-on rows (chunks of at most 6)
    tln.add_node("n0", ThresholdGate(("a", "b"), (6, 6), -9))
    tln.add_node("n1", ThresholdGate(("a", "b"), (6, 6), -9))
    tln.outputs = ["n0", "n1"]
    blocks = partition.rebin(["n0", "n1"], tln, rows=4, cols=32)
    assert len(blocks) == 1  # 2 sources + 2 bias rows = 4 fits exactly
    with pytest.raises(partition.MappingInfeasible):
        partition.rebin(["n0"], tln, rows=3, cols=32)


def test_block_rows_share_sources_and_bias_rows():
    # bias -9 needs two 6-level rows and -3 one; the block holds sources
    # a, b, c and the larger gate's two bias rows
    g0 = ThresholdGate(("a", "b"), (6, 6), -9)
    g1 = ThresholdGate(("b", "c", "c"), (2, 2, 2), -3)
    assert partition.block_rows([g0]) == 4
    assert partition.block_rows([g1]) == 3  # c is read twice, one row
    assert partition.block_rows([g0, g1]) == 5
    assert partition.block_rows([]) == 0


# --- link classification --------------------------------------------------

def _two_block_design():
    """Two stages of two blocks each, with one deliberately crossed edge."""
    tln = ThresholdLogicNetwork(inputs=["a", "b", "c", "d"])
    for i, src in enumerate("abcd"):
        tln.add_node(f"p{i}", NOT(src))
    for i in range(4):
        tln.add_node(f"q{i}", NOT(f"p{i}"))
    tln.outputs = [f"q{i}" for i in range(4)]
    cfg = MappingConfig(k=1, rows=64, cols=2)
    design = MappedDesign(config=cfg, tln=tln, source=None)
    design.blocks = {
        1: [["p0", "p1"], ["p2", "p3"]],
        2: [["q0", "q2"], ["q1", "q3"]],  # q1/q2 land in the wrong block
    }
    return design


def test_classify_links_kinds_and_length():
    design = _two_block_design()
    kinds = {(l.src, l.dst): (l.kind, l.length)
             for l in partition.classify_links(design)}
    assert kinds[("p0", "q0")] == ("direct", 0)
    assert kinds[("p3", "q3")] == ("direct", 0)
    # adjacent-stage, adjacent-block edges are routed at unit length
    assert kinds[("p1", "q1")] == ("routed", 2)
    assert kinds[("p2", "q2")] == ("routed", 2)


def test_interconnect_stats_totals():
    stats = partition.interconnect_stats(_two_block_design())
    assert stats["direct"] == 2 + 4   # p->q plus the input->p links
    assert stats["routed"] == 2
    assert stats["backward"] == 0
    assert stats["route_length"] == 4


def test_backward_edges_not_charged():
    design = _two_block_design()
    design.backward_edges = [("p0", "q0")]
    stats = partition.interconnect_stats(design)
    assert stats["backward"] == 1
    assert stats["direct"] == 1 + 4


def test_all_direct_design_has_zero_length(c17_mapped):
    stats = partition.interconnect_stats(c17_mapped)
    assert stats["routed"] == 0 and stats["route_length"] == 0


# --- repartitioning -------------------------------------------------------

def test_repartition_preserves_nodes(c432_mapped):
    d8 = partition.repartition(c432_mapped, 8, 8)
    assert d8.config.cols == 8
    placed = {n for blks in d8.blocks.values() for b in blks for n in b}
    assert placed == set(c432_mapped.tln.nodes)


def test_repartition_leaves_its_input_unchanged(c432_mapped):
    before = json.dumps(c432_mapped.to_json(), sort_keys=True)
    d8 = partition.repartition(c432_mapped, 8, 8)
    assert json.dumps(c432_mapped.to_json(), sort_keys=True) == before
    assert (d8.config.rows, c432_mapped.config.rows) == (8, 64)
    # the copy's stages are stored on its own network; the source netlist,
    # which re-binning does not read, is shared
    assert d8.source is c432_mapped.source
    assert d8.tln is not c432_mapped.tln
    assert all(d8.tln.nodes[n] is not node
               for n, node in c432_mapped.tln.nodes.items())


def test_smaller_subarrays_route_more(c432_mapped):
    d8 = partition.repartition(c432_mapped, 8, 8)
    d32 = partition.repartition(c432_mapped, 32, 32)
    s8 = partition.interconnect_stats(d8)
    s32 = partition.interconnect_stats(d32)
    assert s8["routed"] >= s32["routed"]
    assert s8["route_length"] >= s32["route_length"]


def test_route_length_16_vs_64(c432_mapped):
    l16 = partition.interconnect_stats(
        partition.repartition(c432_mapped, 16, 16))["route_length"]
    l64 = partition.interconnect_stats(
        partition.repartition(c432_mapped, 64, 64))["route_length"]
    assert l16 > l64


# --- cells and area -------------------------------------------------------

def test_cell_count(c17_mapped):
    n_blocks = sum(len(b) for b in c17_mapped.blocks.values())
    assert partition.cell_count(c17_mapped) == n_blocks * 64 * 32


def _overheads(design):
    """Periphery plus one routing cell-row (block width) per unit of route
    length."""
    cells = partition.cell_count(design)
    route = partition.interconnect_stats(design)["route_length"]
    return (cells * partition.CELL_AREA_UM2 * partition.PERIPHERY_OVERHEAD
            + route * design.config.cols * partition.CELL_AREA_UM2)


def test_area_is_cells_times_cell_area_without_overheads(c17_mapped):
    cells = partition.cell_count(c17_mapped)
    area = partition.area_estimate(c17_mapped)
    assert area - _overheads(c17_mapped) == pytest.approx(
        cells * partition.CELL_AREA_UM2)


def test_area_includes_periphery_and_routing(c432_mapped):
    cells = partition.cell_count(c432_mapped)
    stats = partition.interconnect_stats(c432_mapped)
    assert stats["route_length"] > 0
    area = partition.area_estimate(c432_mapped, stats=stats)
    assert area == pytest.approx(
        cells * partition.CELL_AREA_UM2 + _overheads(c432_mapped))
    assert area > cells * partition.CELL_AREA_UM2 * (
        1.0 + partition.PERIPHERY_OVERHEAD)


def test_empty_design_zero_area():
    design = MappedDesign(
        config=MappingConfig(), tln=ThresholdLogicNetwork(), source=None
    )
    assert partition.cell_count(design) == 0
    assert partition.area_estimate(design) == 0.0
    assert partition.interconnect_stats(design)["route_length"] == 0


def test_monolithic_blocks_cost_more_area(c432_mapped):
    # one oversized sub-array per stage wastes cells vs the default binning
    huge = partition.repartition(c432_mapped, 256, 64)
    assert partition.area_estimate(huge) >= partition.area_estimate(c432_mapped)


def test_subarray_cells_monotone(c432_mapped):
    cells = [
        partition.cell_count(partition.repartition(c432_mapped, d, d))
        for d in (8, 16, 32, 64)
    ]
    assert cells == sorted(cells)
