"""Pipeline staging, buffer insertion, capacity, fan-out splitting,
stage absorption and the column reorder pass."""

import copy
import json
import random

import pytest

from smtl import partition
from smtl.bench import evaluate_many, parse_bench
from smtl.evaluate import simulate_mapped
from smtl.mapping import (
    MappedDesign,
    MappingConfig,
    MappingInfeasible,
    assign_stages,
    absorb_small_layers,
    enforce_capacity,
    insert_buffers,
    map_design,
    reorder_stages,
    split_fanout,
    strip_buffers,
    summary,
    validate,
)
from smtl.synthesis import exhaustive_vectors, synthesize_tln
from smtl.tlg import ThresholdGate, ThresholdLogicNetwork, input_rows

NOT = lambda src: ThresholdGate((src,), (-2,), 1)       # noqa: E731
BUF = lambda src: ThresholdGate((src,), (2,), -1)       # noqa: E731
AND2 = lambda a, b: ThresholdGate((a, b), (2, 2), -3)   # noqa: E731


def _chain(n):
    tln = ThresholdLogicNetwork(inputs=["a"])
    prev = "a"
    for i in range(n):
        tln.add_node(f"n{i}", NOT(prev))
        prev = f"n{i}"
    tln.outputs = [prev]
    return tln


# --- stage assignment -----------------------------------------------------

def test_stages_k1():
    tln = assign_stages(_chain(4), k=1)
    assert [tln.nodes[f"n{i}"].stage for i in range(4)] == [1, 2, 3, 4]


def test_stages_k2():
    tln = assign_stages(_chain(4), k=2)
    assert [tln.nodes[f"n{i}"].stage for i in range(4)] == [1, 1, 2, 2]


def test_stages_k2_odd_depth():
    tln = assign_stages(_chain(5), k=2)
    assert max(n.stage for n in tln.nodes.values()) == 3


def test_stages_reject_bad_k():
    with pytest.raises(ValueError):
        assign_stages(_chain(2), k=0)


# --- buffer insertion -----------------------------------------------------

def _skip_tln():
    # u at level 1 feeds v at level 4 -> the u->v edge spans 3 stages at k=1
    tln = ThresholdLogicNetwork(inputs=["a"])
    tln.add_node("u", NOT("a"))
    tln.add_node("c1", NOT("u"))
    tln.add_node("c2", NOT("c1"))
    tln.add_node("v", AND2("c2", "u"))
    tln.outputs = ["v"]
    return tln


def test_long_edge_gets_two_buffers():
    tln = assign_stages(_skip_tln(), k=1)
    want = tln.evaluate_many(exhaustive_vectors(1))
    assert insert_buffers(tln, k=1) == 2
    assert {n.stage for n in tln.nodes.values() if n.is_buffer} == {2, 3}
    # rewired network still computes the same function
    assert (tln.evaluate_many(exhaustive_vectors(1)) == want).all()
    # no edge spans more than one stage boundary any more
    for node in tln.nodes.values():
        for src in node.gate.inputs:
            s = tln.nodes[src].stage if src in tln.nodes else 0
            assert node.stage - s <= 1


def test_balanced_network_needs_no_buffers():
    tln = assign_stages(_chain(4), k=1)
    assert insert_buffers(tln, k=1) == 0


def test_buffer_chains_are_shared():
    tln = _skip_tln()
    tln.add_node("w", AND2("c2", "u"))  # second consumer of the same span
    tln.outputs = ["v", "w"]
    assign_stages(tln, k=1)
    assert insert_buffers(tln, k=1) == 2  # chain reused, not duplicated


def test_coarser_stages_need_fewer_buffers():
    tln = _skip_tln()
    t1, t2 = copy.deepcopy(tln), copy.deepcopy(tln)
    n1 = insert_buffers(assign_stages(t1, 1), 1)
    n2 = insert_buffers(assign_stages(t2, 2), 2)
    assert n1 >= n2


def test_strip_buffers_restores_edges():
    tln = assign_stages(_skip_tln(), k=1)
    insert_buffers(tln, k=1)
    strip_buffers(tln)
    assert set(tln.nodes) == {"u", "c1", "c2", "v"}
    assert tln.nodes["v"].gate.inputs == ("c2", "u")


def test_c432_buffers_decrease_with_k(c432, c432_tln):
    counts = []
    for k in (1, 2):
        d = map_design(c432_tln, c432, MappingConfig(k=k))
        counts.append(d.buffer_count)
    assert counts[0] >= counts[1]


# --- capacity enforcement -------------------------------------------------

def _capacity_tln(skip_consumer):
    """Stage 1 (k=2) holds 8 nodes: r1-r3 at level 1, u1-u5 at level 2.

    With `skip_consumer`, u5's only consumer sits two stages later, making
    u5 the designated victim under the skip-priority rule; otherwise every
    u has a next-stage consumer and only the insertion-order tie-break
    differentiates the candidates.
    """
    tln = ThresholdLogicNetwork(inputs=["a1", "a2", "a3"])
    for i in (1, 2, 3):
        tln.add_node(f"r{i}", NOT(f"a{i}"))
    for i, src in enumerate(("r1", "r2", "r3", "r1", "r2"), start=1):
        tln.add_node(f"u{i}", NOT(src) if i <= 3 else BUF(src))
    last = 4 if skip_consumer else 5
    for i in range(1, last + 1):
        tln.add_node(f"w{i}", NOT(f"u{i}"))
    tln.add_node("x", NOT("w1"))
    if skip_consumer:
        tln.add_node("z", AND2("u5", "x"))
        tln.outputs = ["w2", "w3", "w4", "x", "z"]
    else:
        tln.outputs = ["w2", "w3", "w4", "w5", "x"]
    return tln


def test_capacity_moves_stage_skipping_node_first():
    tln = assign_stages(_capacity_tln(skip_consumer=True), k=2)
    want = tln.evaluate_many(exhaustive_vectors(3))
    cfg = MappingConfig(k=2, cols=7, blocks_per_stage=1)
    enforce_capacity(tln, cfg)
    insert_buffers(tln, k=2)
    # the node feeding only a later stage was deferred, its peers stayed
    assert tln.nodes["u5"].stage == 2
    assert all(tln.nodes[n].stage == 1
               for n in ("r1", "r2", "r3", "u1", "u2", "u3", "u4"))
    for s in range(1, max(n.stage for n in tln.nodes.values()) + 1):
        assert sum(1 for n in tln.nodes.values() if n.stage == s) <= 7
    assert (tln.evaluate_many(exhaustive_vectors(3)) == want).all()


def test_capacity_noop_when_under_capacity():
    tln = assign_stages(_capacity_tln(skip_consumer=True), k=2)
    stages = {nid: n.stage for nid, n in tln.nodes.items()}
    enforce_capacity(tln, MappingConfig(k=2, cols=32, blocks_per_stage=1))
    assert {nid: n.stage for nid, n in tln.nodes.items()} == stages


def test_capacity_noop_when_blocks_unbounded():
    tln = assign_stages(_capacity_tln(skip_consumer=True), k=2)
    stages = {nid: n.stage for nid, n in tln.nodes.items()}
    enforce_capacity(tln, MappingConfig(k=2, cols=2, blocks_per_stage=None))
    assert {nid: n.stage for nid, n in tln.nodes.items()} == stages


def test_capacity_tie_break_lowest_insertion_order():
    tln = assign_stages(_capacity_tln(skip_consumer=False), k=2)
    want = tln.evaluate_many(exhaustive_vectors(3))
    enforce_capacity(tln, MappingConfig(k=2, cols=7, blocks_per_stage=1))
    insert_buffers(tln, k=2)
    assert tln.nodes["r1"].stage == 2      # first-inserted node moved
    assert tln.nodes["r2"].stage == 1 and tln.nodes["r3"].stage == 1
    assert (tln.evaluate_many(exhaustive_vectors(3)) == want).all()


def test_capacity_counts_pass_through_buffers(c432, c432_tln, deadline):
    # the 50-pass strip/re-buffer loop gave up here ("did not converge");
    # 22 columns is the largest budget that defers nodes
    cfg = MappingConfig(k=2, cols=22, blocks_per_stage=1)
    with deadline(20):
        d = map_design(c432_tln, c432, cfg)
    assert all(len(blks) == 1 for blks in d.blocks.values())
    unbounded = map_design(c432_tln, c432, MappingConfig(k=2, cols=22))
    assert d.n_stages > unbounded.n_stages     # nodes were deferred
    vectors = input_rows(len(c432.inputs), 4000, seed=0)
    sim = simulate_mapped(d, vectors)
    assert sim["errors"] == 0
    assert (sim["outputs"] == evaluate_many(c432, vectors)).all()


def test_capacity_rejects_a_stage_left_without_nodes(c432, c432_tln,
                                                      deadline):
    # at k=1 the 24 inputs forwarded through stage 1 take more than 23
    # columns; deferring every node there would forward the same values
    # forever
    cfg = MappingConfig(k=1, cols=23, blocks_per_stage=1)
    with deadline(20), pytest.raises(MappingInfeasible,
                                      match=r"^stage 1 .*pass-through"):
        map_design(c432_tln, c432, cfg)


# --- fan-out splitting ----------------------------------------------------

def _fanout_tln(n_consumers):
    tln = ThresholdLogicNetwork(inputs=["a"])
    tln.add_node("u", NOT("a"))
    for i in range(n_consumers):
        tln.add_node(f"v{i}", NOT("u"))
    tln.outputs = [f"v{i}" for i in range(n_consumers)]
    return tln


def test_split_fanout_9_over_4():
    tln = _fanout_tln(9)
    want = tln.evaluate_many(exhaustive_vectors(1))
    assert split_fanout(tln, f_max=4) == 1
    assert {"u", "u$c1", "u$c2"} <= set(tln.nodes)  # ceil(9/4) = 3 copies
    cons = tln.consumers()
    for t in ("u", "u$c1", "u$c2"):
        assert len(cons[t]) <= 4
    assert (tln.evaluate_many(exhaustive_vectors(1)) == want).all()


def test_split_fanout_under_limit_unchanged():
    tln = _fanout_tln(3)
    assert split_fanout(tln, f_max=4) == 0
    assert set(tln.nodes) == {"u"} | {f"v{i}" for i in range(3)}


def test_split_fanout_boundary_unchanged():
    tln = _fanout_tln(8)
    assert split_fanout(tln, f_max=8) == 0


def test_split_fanout_retargets_outputs():
    tln = ThresholdLogicNetwork(inputs=["a"])
    tln.add_node("u", NOT("a"))
    tln.outputs = ["u"] * 5
    want = tln.evaluate_many(exhaustive_vectors(1))
    split_fanout(tln, f_max=2)
    assert len(set(tln.outputs)) > 1
    assert (tln.evaluate_many(exhaustive_vectors(1)) == want).all()


def test_split_fanout_rejects_bad_limit():
    with pytest.raises(ValueError):
        split_fanout(_fanout_tln(3), f_max=1)


# --- absorption -----------------------------------------------------------

ABS_TEXT = "INPUT(a)\nINPUT(b)\nOUTPUT(y2)\ny1 = AND(a, b)\ny2 = NOT(y1)\n"


def _two_stage_design(**cfg_kw):
    net = parse_bench(ABS_TEXT)
    tln = synthesize_tln(net, collapse=False)
    return net, map_design(tln, net, MappingConfig(k=1, **cfg_kw))


def test_tiny_final_stage_absorbed():
    net, design = _two_stage_design(cols=16)
    assert design.n_stages == 1
    assert design.absorbed == {"y2"}
    assert design.backward_edges == [("y1", "y2")]
    validate(design)


def test_filled_stages_not_absorbed():
    net, design = _two_stage_design(cols=4)   # fill 25% >= min_fill
    assert design.n_stages == 2
    assert not design.absorbed


def test_absorption_respects_backward_bound():
    net, design = _two_stage_design(cols=16, b_max=0)
    assert not design.absorbed
    assert any("b_max" in w for w in design.warnings)


def _wide_design(n, y):
    """Stage 1: n gates g0, g1, ... of a and b; stage 2: y = `y`."""
    gates = [f"g{i} = {('AND', 'OR')[i % 2]}(a, b)" for i in range(n)]
    net = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\n" + "".join(
        f"OUTPUT(g{i})\n" for i in range(n)) + "\n".join(gates)
        + f"\ny = {y}\n")
    return map_design(synthesize_tln(net, collapse=False), net,
                      MappingConfig(k=1, cols=16))


def test_absorb_warning_names_sources_in_several_blocks():
    design = _wide_design(17, "AND(g0, g16)")
    assert design.warnings == ["stage 2 underfilled (6%) but not absorbable"
                               ": sources in several blocks or stages"]


def test_absorb_warning_names_columns():
    # 16 gates fill stage 1's block: the stage-2 node has no column there
    design = _wide_design(16, "NOT(g0)")
    assert design.warnings == ["stage 2 underfilled (6%) but not absorbable"
                               " within cols=16"]


def test_absorb_warning_names_rows(c17):
    # 4 backward connections are within b_max=4; the block would need
    # more than 8 rows
    design = map_design(synthesize_tln(c17, w_max=2), c17,
                        MappingConfig(rows=8))
    assert design.warnings == ["stage 2 underfilled (6%) but not absorbable"
                               " within rows=8"]


def test_absorb_skips_cross_block_sources(c17, c17_tln):
    d = map_design(c17_tln, c17)
    # default C17 map leaves an underfilled but unabsorbable last stage
    assert any("underfilled" in w for w in d.warnings) or d.absorbed


# --- reorder --------------------------------------------------------------

def _direct(design):
    return partition.interconnect_stats(design)["direct"]


def _bipartite_design(perm_seed=99):
    rng = random.Random(perm_seed)
    perm = list(range(16))
    rng.shuffle(perm)
    inputs = [f"i{j:02d}" for j in range(16)]
    lines = [f"INPUT({n})" for n in inputs]
    lines += [f"p{j:02d} = BUFF(i{j:02d})" for j in range(16)]
    lines += [f"q{j:02d} = NOT(p{perm[j]:02d})" for j in range(16)]
    lines += [f"OUTPUT(q{j:02d})" for j in range(16)]
    net = parse_bench("\n".join(lines) + "\n")
    tln = synthesize_tln(net, collapse=False)
    design = map_design(tln, net, MappingConfig(k=1, cols=8))
    return design


def test_single_block_per_stage_all_direct(c17_mapped):
    stats = partition.interconnect_stats(c17_mapped)
    assert stats["routed"] == 0 and stats["route_length"] == 0
    assert all(len(blks) == 1 for blks in c17_mapped.blocks.values())


def test_reorder_monotone_from_any_shuffle():
    base = _bipartite_design()
    rng = random.Random(0)
    for _ in range(10):
        d = copy.deepcopy(base)
        for s in d.blocks:
            nodes = d.stage_nodes(s)
            rng.shuffle(nodes)
            d.blocks[s] = partition.rebin(
                nodes, d.tln, d.config.rows, d.config.cols
            )
        before = _direct(d)
        reorder_stages(d)
        assert _direct(d) >= before
        validate(d)


def test_reorder_improves_random_placement_95_percent():
    base = _bipartite_design()
    improved = 0
    for trial in range(100):
        rng = random.Random(5000 + trial)
        d = copy.deepcopy(base)
        for s in d.blocks:
            nodes = d.stage_nodes(s)
            rng.shuffle(nodes)
            d.blocks[s] = partition.rebin(
                nodes, d.tln, d.config.rows, d.config.cols
            )
        before = _direct(d)
        reorder_stages(d)
        if _direct(d) > before:
            improved += 1
    assert improved >= 95, f"only {improved}/100 trials improved"


def test_reorder_pins_absorbed_stages():
    net, design = _two_stage_design(cols=16)
    frozen = copy.deepcopy(design.blocks)
    reorder_stages(design)
    assert design.blocks == frozen


# --- whole-pipeline validation -------------------------------------------

def test_map_design_c432_validates(c432_mapped):
    assert validate(c432_mapped)
    s = summary(c432_mapped)
    assert s["nodes"] == len(c432_mapped.tln.nodes)
    assert s["backward_links"] == len(c432_mapped.backward_edges)


def test_map_design_equivalent_after_mapping(c432, c432_mapped):
    from smtl.synthesis import verify_equivalence

    ok, _ = verify_equivalence(c432, c432_mapped.tln, count=2_000, seed=3)
    assert ok


def test_map_design_rejects_tiny_blocks(c17, c17_tln):
    with pytest.raises(MappingInfeasible):
        map_design(c17_tln, c17, MappingConfig(rows=2))


def test_map_design_respects_blocks_per_stage(c432, c432_tln):
    cfg = MappingConfig(k=2, blocks_per_stage=2, cols=16)
    d = map_design(c432_tln, c432, cfg)
    for s, blks in d.blocks.items():
        assert sum(len(b) for b in blks) <= 2 * 16
    validate(d)


def test_validate_catches_double_placement(c17_mapped):
    d = copy.deepcopy(c17_mapped)
    s = min(d.blocks)
    d.blocks[s][0].append(d.blocks[s][0][0])
    with pytest.raises(MappingInfeasible, match="twice"):
        validate(d)


def test_validate_catches_missing_node(c17_mapped):
    d = copy.deepcopy(c17_mapped)
    s = min(d.blocks)
    d.blocks[s][0].pop()
    with pytest.raises(MappingInfeasible, match="unplaced"):
        validate(d)


def test_validate_catches_row_overflow(c17_mapped):
    d = copy.deepcopy(c17_mapped)
    d.config.rows = 2
    with pytest.raises(MappingInfeasible, match="rows"):
        validate(d)


def test_validate_counts_blocks_per_stage(c17, c17_tln):
    # a low row budget splits a stage that fits the column budget into
    # two blocks; validate checked only nodes <= blocks_per_stage x cols
    d = map_design(c17_tln, c17, MappingConfig(rows=4))
    assert max(len(blks) for blks in d.blocks.values()) == 2
    d.config.blocks_per_stage = 1
    with pytest.raises(MappingInfeasible, match="2 blocks > 1"):
        validate(d)
    with pytest.raises(MappingInfeasible, match="blocks"):
        map_design(c17_tln, c17, MappingConfig(rows=4, blocks_per_stage=1))


def test_mapped_design_json_round_trip(c432_mapped):
    again = MappedDesign.from_json(c432_mapped.to_json())
    assert again.blocks == c432_mapped.blocks
    assert summary(again) == summary(c432_mapped)
    validate(again)


def test_absorb_is_idempotent():
    net, design = _two_stage_design(cols=16)
    before = copy.deepcopy(design.blocks)
    absorb_small_layers(design)
    assert design.blocks == before


def test_config_rejects_non_positive_dimensions():
    # blocks_per_stage=0 gave every stage a capacity of 0, so capacity
    # enforcement never ended
    for kw in ({"blocks_per_stage": 0}, {"rows": 0}, {"cols": -1}, {"k": 0},
               {"k": 1.5}, {"k": float("inf")}):
        with pytest.raises(ValueError):
            MappingConfig(**kw)
    assert MappingConfig(k=2.0).k == 2 and type(MappingConfig(k=2.0).k) is int
    # a hand-edited artifact's config: each field a number of its kind in
    # its range, else the value surfaced later as a Python error, or not
    for kw in ({"cols": 2.5}, {"rows": "64"}, {"blocks_per_stage": 1.5},
               {"f_max": 2.5}, {"f_max": 1}, {"b_max": "4"}, {"b_max": -1},
               {"reorder_sweeps": 1.5}, {"reorder_sweeps": -1},
               {"k": True}, {"k": "2"}, {"min_fill": "x"},
               {"min_fill": -0.1}, {"min_fill": 1.5},
               {"min_fill": float("nan")}, {"min_fill": None}):
        with pytest.raises(ValueError, match=next(iter(kw))):
            MappingConfig(**kw)
    cfg = MappingConfig(rows=64.0, cols=8.0, blocks_per_stage=2.0, f_max=3.0,
                        b_max=0.0, reorder_sweeps=0.0, min_fill=1)
    assert all(type(getattr(cfg, name)) is int
               for name in ("rows", "cols", "blocks_per_stage", "f_max",
                            "b_max", "reorder_sweeps"))


@pytest.mark.parametrize("cfg", [MappingConfig(k=2),
                                 MappingConfig(k=1, cols=8),
                                 MappingConfig(k=2, blocks_per_stage=2,
                                               cols=16)])
def test_map_design_leaves_its_input_unchanged(c432, c432_tln, cfg):
    # map_design works on a copy: fresh nodes sharing the frozen gates
    before = json.dumps(c432_tln.to_json(), sort_keys=True)
    design = map_design(c432_tln, c432, cfg)
    assert json.dumps(c432_tln.to_json(), sort_keys=True) == before
    assert design.tln.nodes.keys() != c432_tln.nodes.keys()
    shared = c432_tln.nodes.keys() & design.tln.nodes.keys()
    assert all(design.tln.nodes[n] is not c432_tln.nodes[n] for n in shared)
