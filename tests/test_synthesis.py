"""Boolean-to-threshold compilation and equivalence checking."""

import copy
import itertools
import random

import numpy as np
import pytest

from smtl.bench import evaluate_many, parse_bench
from smtl.evaluate import simulate_mapped
from smtl.mapping import map_design
from smtl.synthesis import (
    collapse_tln,
    exhaustive_vectors,
    gate_to_tlg,
    sampled_vectors,
    synthesize_tln,
    verify_equivalence,
)
from smtl.tlg import ThresholdGate, eval_tlg

from gate_tables import gate_margin, truth_table


# --- primitive gate encodings ---------------------------------------------

def test_gate_to_tlg_encodings():
    assert gate_to_tlg("NAND", ("a", "b")).weights == (-2, -2)
    assert gate_to_tlg("NAND", ("a", "b")).bias == 3
    assert gate_to_tlg("NOT", ("a",)) == ThresholdGate(("a",), (-2,), 1)
    assert gate_to_tlg("OR", ("a", "b", "c")).weights == (2, 2, 2)
    assert gate_to_tlg("OR", ("a", "b", "c")).bias == -1
    assert gate_to_tlg("AND", ("a", "b")).bias == -3
    assert gate_to_tlg("NOR", ("a", "b")).bias == 1


@pytest.mark.parametrize("kind,fn", [
    ("AND", lambda v: int(all(v))),
    ("OR", lambda v: int(any(v))),
    ("NAND", lambda v: 1 - int(all(v))),
    ("NOR", lambda v: 1 - int(any(v))),
])
@pytest.mark.parametrize("arity", [2, 3, 4])
def test_gate_to_tlg_truth_tables_and_margin(kind, fn, arity):
    g = gate_to_tlg(kind, tuple(f"a{i}" for i in range(arity)))
    rows = list(itertools.product((0, 1), repeat=arity))
    assert truth_table(g) == tuple(fn(r) for r in rows)
    assert gate_margin(g) >= 1


def test_gate_to_tlg_rejects_xor_and_bad_arity():
    with pytest.raises(ValueError):
        gate_to_tlg("XOR", ("a", "b"))
    with pytest.raises(ValueError):
        gate_to_tlg("NOT", ("a", "b"))
    with pytest.raises(ValueError):
        gate_to_tlg("MUX", ("a", "b"))


# --- XOR expansion --------------------------------------------------------

def _synth_single(text, **kw):
    net = parse_bench(text)
    return net, synthesize_tln(net, **kw)


def test_xor2_fragment():
    net, tln = _synth_single("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = XOR(a, b)\n")
    out = tln.evaluate_many([[0, 1], [1, 1], [0, 0], [1, 0]])
    assert [int(v) for v in out[:, 0]] == [1, 0, 0, 1]


def test_xor3_tree_matches_parity():
    text = "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\ny = XOR(a, b, c)\n"
    net, tln = _synth_single(text)
    vectors = exhaustive_vectors(3)
    want = evaluate_many(net, vectors)
    got = tln.evaluate_many(vectors)
    assert (want == got).all()
    assert int(tln.evaluate_many([[1, 1, 1]])[0, 0]) == 1


def test_xor5_tree_matches_parity():
    names = "abcde"
    text = "".join(f"INPUT({n})\n" for n in names)
    text += f"OUTPUT(y)\ny = XOR({', '.join(names)})\n"
    net, tln = _synth_single(text)
    vectors = exhaustive_vectors(5)
    assert (evaluate_many(net, vectors) == tln.evaluate_many(vectors)).all()


# --- wide gates and structure ---------------------------------------------

def test_single_and2_is_one_node():
    _, tln = _synth_single("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n")
    assert len(tln.nodes) == 1


def test_wide_and_tree_reduced():
    names = [f"a{i}" for i in range(9)]
    text = "".join(f"INPUT({n})\n" for n in names)
    text += f"OUTPUT(y)\ny = AND({', '.join(names)})\n"
    net, tln = _synth_single(text, fanin_limit=4, collapse=False)
    assert tln.max_fan_in() <= 4
    vectors = exhaustive_vectors(9)
    assert (evaluate_many(net, vectors) == tln.evaluate_many(vectors)).all()


def test_wide_nand_keeps_inversion_at_root():
    names = [f"a{i}" for i in range(6)]
    text = "".join(f"INPUT({n})\n" for n in names)
    text += f"OUTPUT(y)\ny = NAND({', '.join(names)})\n"
    net, tln = _synth_single(text, fanin_limit=3)
    vectors = exhaustive_vectors(6)
    assert (evaluate_many(net, vectors) == tln.evaluate_many(vectors)).all()


def test_output_aliased_to_input_gets_buffer():
    _, tln = _synth_single("INPUT(a)\nOUTPUT(a)\n")
    assert len(tln.outputs) == 1
    nid = tln.outputs[0]
    assert tln.nodes[nid].is_buffer
    assert (tln.evaluate_many([[0], [1]])[:, 0] == [False, True]).all()


def test_repeated_aliased_output_shares_one_buffer():
    net = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(a)\nOUTPUT(a)\nOUTPUT(y)\n"
                      "y = AND(a, b)\n")
    tln = synthesize_tln(net)
    assert tln.outputs[0] == tln.outputs[1] == "a$buf"
    assert sum(n.is_buffer for n in tln.nodes.values()) == 1
    assert verify_equivalence(net, tln) == (True, None)
    design = map_design(tln, net)
    sim = simulate_mapped(design, exhaustive_vectors(2), sigma=0.0)
    assert sim["errors"] == 0 and sim["vectors"] == 4


def test_fanin_limit_validation():
    with pytest.raises(ValueError):
        _synth_single("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n", fanin_limit=1)


# --- collapse -------------------------------------------------------------

def test_collapse_reduces_and_preserves_function(c17):
    flat = synthesize_tln(c17, collapse=False)
    merged = synthesize_tln(c17, collapse=True)
    assert len(merged.nodes) <= len(flat.nodes)
    vectors = exhaustive_vectors(5)
    assert (flat.evaluate_many(vectors) == merged.evaluate_many(vectors)).all()
    merged.validate()


def test_collapse_in_place_counts():
    net = parse_bench(
        "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\n"
        "u = AND(a, b)\ny = OR(u, c)\n"
    )
    tln = synthesize_tln(net, collapse=False)
    n_before = len(tln.nodes)
    merged = collapse_tln(tln)
    assert merged >= 1
    assert len(tln.nodes) == n_before - merged
    tln.validate()
    vectors = exhaustive_vectors(3)
    assert (evaluate_many(net, vectors) == tln.evaluate_many(vectors)).all()


def test_c17_synthesis_small_and_exact(c17, c17_tln):
    assert len(c17_tln.nodes) <= 6
    assert c17_tln.max_fan_in() <= 4
    ok, ce = verify_equivalence(c17, c17_tln)
    assert ok and ce is None


def test_c432_synthesis_constraints(c432, c432_tln):
    assert c432_tln.max_fan_in() <= 4
    for node in c432_tln.nodes.values():
        assert all(1 <= abs(w) <= 6 for w in node.gate.weights)
        assert gate_margin(node.gate) >= 1
    ok, _ = verify_equivalence(c432, c432_tln, count=10_000, seed=0)
    assert ok


def test_fanin_limit_sweep_monotone_node_count(c432):
    counts = [len(synthesize_tln(c432, fanin_limit=f).nodes) for f in (2, 3, 4)]
    assert counts[0] >= counts[1] >= counts[2]


# --- equivalence checking -------------------------------------------------

def test_verify_catches_mutation(c17, c17_tln):
    broken = copy.deepcopy(c17_tln)
    nid = broken.outputs[0]
    g = broken.nodes[nid].gate
    broken.nodes[nid].gate = ThresholdGate(
        g.inputs, (-g.weights[0],) + g.weights[1:], g.bias
    )
    ok, ce = verify_equivalence(c17, broken)
    assert not ok
    assert ce is not None and len(ce["vector"]) == 5
    assert ce["expected"] != ce["got"]


def test_verify_identity():
    net, tln = _synth_single("INPUT(a)\nOUTPUT(a)\n")
    ok, _ = verify_equivalence(net, tln)
    assert ok


def test_verify_interface_checks(c17, c17_tln):
    other = copy.deepcopy(c17_tln)
    other.inputs = other.inputs[:-1]
    with pytest.raises(ValueError):
        verify_equivalence(c17, other)


def test_sampled_vectors_seeded():
    a = sampled_vectors(8, 100, seed=5)
    b = sampled_vectors(8, 100, seed=5)
    c = sampled_vectors(8, 100, seed=6)
    assert (a == b).all()
    assert (a != c).any()


# --- randomized end-to-end property ---------------------------------------

def _random_net(rng):
    kinds = ["AND", "OR", "NAND", "NOR", "XOR", "NOT"]
    n_in = rng.randint(3, 7)
    names = [f"i{j}" for j in range(n_in)]
    lines = [f"INPUT({n})" for n in names]
    gate_names = []
    for g in range(rng.randint(4, 18)):
        kind = rng.choice(kinds)
        arity = 1 if kind == "NOT" else rng.randint(2, min(5, len(names)))
        srcs = rng.sample(names, arity)
        name = f"g{g}"
        lines.append(f"{name} = {kind}({', '.join(srcs)})")
        names.append(name)
        gate_names.append(name)
    outs = rng.sample(gate_names, min(3, len(gate_names)))
    lines += [f"OUTPUT({o})" for o in outs]
    return parse_bench("\n".join(lines) + "\n")


@pytest.mark.parametrize("seed", range(12))
def test_random_networks_equivalent(seed):
    rng = random.Random(1000 + seed)
    net = _random_net(rng)
    fanin = rng.choice((2, 3, 4))
    tln = synthesize_tln(net, fanin_limit=fanin)
    assert tln.max_fan_in() <= fanin
    tln.validate(fanin_limit=fanin)
    vectors = exhaustive_vectors(len(net.inputs))
    got = tln.evaluate_many(vectors)
    assert (evaluate_many(net, vectors) == got).all()
