"""Threshold gate evaluation, margins and the integer weight solver.

The solver is cross-checked against a slow, independent pure-Python
search over the same weight lattice, including the deterministic
tie-break order, for every 2- and 3-input truth table.
"""

import itertools
import math
import random

import numpy as np
import pytest

from smtl.bench import BooleanNetwork, Gate, pack
from smtl.tlg import (
    ThresholdGate,
    ThresholdLogicNetwork,
    bias_bound,
    check,
    eval_tlg,
    input_rows,
    input_words,
    lowered,
    solve_weights,
)

from gate_tables import gate_margin, truth_table


def _naive_solve(table, w_max=6):
    """Reference solver: brute force, margin >= 1, same tie-break rules."""
    n = int(math.log2(len(table)))
    rows = [tuple((r >> i) & 1 for i in range(n)) for r in range(2 ** n)]
    b_cap = n * w_max + 1
    best = None
    for w in itertools.product(range(-w_max, w_max + 1), repeat=n):
        lo, hi = -b_cap, b_cap
        for row, t in zip(rows, table):
            s = sum(wi * xi for wi, xi in zip(w, row))
            if t:
                lo = max(lo, 1 - s)
            else:
                hi = min(hi, -1 - s)
        if lo > hi:
            continue
        b = 0 if lo <= 0 <= hi else (lo if lo > 0 else hi)
        key = (sum(abs(x) for x in w), w)
        if best is None or key < best[0]:
            best = (key, w, b)
    return None if best is None else (best[1], best[2])


# --- evaluation -----------------------------------------------------------

def test_eval_and2_unit_weights():
    g = ThresholdGate(("a", "b"), (1, 1), -2)
    assert eval_tlg(g, (1, 1)) == 1
    assert eval_tlg(g, (1, 0)) == 0
    assert eval_tlg(g, (0, 0)) == 0


def test_eval_majority3():
    g = ThresholdGate(("a", "b", "c"), (1, 1, 1), -2)
    assert eval_tlg(g, (1, 1, 0)) == 1
    assert eval_tlg(g, (1, 0, 0)) == 0


def test_eval_buffer():
    g = ThresholdGate(("a",), (2,), -1)
    assert eval_tlg(g, (1,)) == 1
    assert eval_tlg(g, (0,)) == 0


def test_eval_length_check():
    g = ThresholdGate(("a", "b"), (1, 1), -2)
    with pytest.raises(ValueError):
        eval_tlg(g, (1,))


def test_gate_constructor_checks():
    with pytest.raises(ValueError):
        ThresholdGate(("a",), (1, 1), 0)
    with pytest.raises(ValueError):
        ThresholdGate((), (), 0)


def test_truth_table_bit_order():
    # input i is bit i of the row index (LSB first)
    g = ThresholdGate(("a", "b"), (2, -2), -1)  # a AND NOT b
    assert truth_table(g) == (0, 1, 0, 0)


# --- margins --------------------------------------------------------------

def test_margin_unit_weight_gates_sit_on_the_boundary():
    # classic unit-weight encodings touch zero net sum on some row,
    # which the hardware comparator cannot resolve
    assert gate_margin(ThresholdGate(("a", "b"), (1, 1), -2)) == 0
    assert gate_margin(ThresholdGate(("a", "b", "c"), (1, 1, 1), -2)) == 0


def test_margin_doubled_weight_gates():
    assert gate_margin(ThresholdGate(("a", "b"), (2, 2), -3)) == 1
    assert gate_margin(ThresholdGate(("a",), (2,), -1)) == 1
    assert gate_margin(ThresholdGate(("a", "b"), (-2, -2), 3)) == 1


def test_margin_scales_with_weights():
    assert gate_margin(ThresholdGate(("a", "b"), (4, 4), -6)) == 2


# --- solver ---------------------------------------------------------------

def test_solve_and2():
    g = solve_weights((0, 0, 0, 1))
    assert (g.weights, g.bias) == ((2, 2), -3)
    assert truth_table(g) == (0, 0, 0, 1)


def test_solve_or2():
    g = solve_weights((0, 1, 1, 1))
    assert (g.weights, g.bias) == ((2, 2), -1)


def test_solve_xor2_not_threshold():
    assert solve_weights((0, 1, 1, 0)) is None


def test_solve_parity3_not_threshold():
    table = tuple((bin(r).count("1")) % 2 for r in range(8))
    assert solve_weights(table) is None


def test_solved_gates_have_margin():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.choice((2, 3, 4))
        table = tuple(rng.randint(0, 1) for _ in range(2 ** n))
        g = solve_weights(table)
        if g is None:
            continue
        assert truth_table(g) == table
        assert gate_margin(g) >= 1
        assert all(abs(w) <= 6 for w in g.weights)
        assert abs(g.bias) <= bias_bound(n)


def test_solver_matches_reference_all_2_input_tables():
    for bits in itertools.product((0, 1), repeat=4):
        got = solve_weights(bits)
        want = _naive_solve(bits)
        if want is None:
            assert got is None, bits
        else:
            assert (got.weights, got.bias) == want, bits


def test_solver_matches_reference_all_3_input_tables():
    for r in range(256):
        bits = tuple((r >> i) & 1 for i in range(8))
        got = solve_weights(bits)
        want = _naive_solve(bits)
        if want is None:
            assert got is None, bits
        else:
            assert (got.weights, got.bias) == want, bits


def test_solver_matches_reference_sampled_4_input_tables():
    rng = random.Random(4)
    for _ in range(8):
        bits = tuple(rng.randint(0, 1) for _ in range(16))
        got = solve_weights(bits)
        want = _naive_solve(bits)
        if want is None:
            assert got is None, bits
        else:
            assert (got.weights, got.bias) == want, bits


def test_solver_deterministic():
    a = solve_weights((0, 0, 0, 1, 0, 1, 1, 1))
    b = solve_weights((0, 0, 0, 1, 0, 1, 1, 1))
    assert (a.weights, a.bias) == (b.weights, b.bias)


def test_solver_w_max_restriction():
    # realizable at w_max=6 but not with weights capped at 1
    table = truth_table(ThresholdGate(("a", "b", "c"), (4, 2, 2), -5))
    assert solve_weights(table, w_max=6) is not None
    assert solve_weights(table, w_max=1) is None


def test_solver_rejects_bad_tables():
    with pytest.raises(ValueError):
        solve_weights((0, 1, 1))  # not a power of two
    with pytest.raises(ValueError):
        solve_weights(tuple([0] * 32))  # arity 5 > fan-in limit


# --- networks -------------------------------------------------------------

def _tiny_tln():
    tln = ThresholdLogicNetwork(inputs=["a", "b"])
    tln.add_node("n1", ThresholdGate(("a", "b"), (2, 2), -3))
    tln.add_node("n2", ThresholdGate(("n1",), (-2,), 1))
    tln.outputs = ["n2"]
    return tln


def test_network_evaluate():
    tln = _tiny_tln()
    out = tln.evaluate_many([[1, 1], [1, 0], [0, 0]])
    assert [int(v) for v in out[:, 0]] == [0, 1, 1]  # NAND via AND + NOT


def test_network_levels_and_depth():
    tln = _tiny_tln()
    assert max(tln.assign_levels().values()) == 2
    assert tln.nodes["n1"].level == 1
    assert tln.nodes["n2"].level == 2


def test_network_validate_passes():
    _tiny_tln().validate()


def test_network_validate_rejects_margin_zero():
    tln = ThresholdLogicNetwork(inputs=["a", "b"])
    tln.add_node("n", ThresholdGate(("a", "b"), (1, 1), -2))
    tln.outputs = ["n"]
    with pytest.raises(ValueError, match="margin"):
        tln.validate()


def test_network_validate_rejects_wide_gate():
    tln = ThresholdLogicNetwork(inputs=["a", "b", "c"])
    tln.add_node("n", ThresholdGate(("a", "b", "c"), (2, 2, 2), -5))
    tln.outputs = ["n"]
    with pytest.raises(ValueError, match="fan-in"):
        tln.validate(fanin_limit=2)


def test_network_duplicate_and_unknown_refs():
    tln = ThresholdLogicNetwork(inputs=["a"])
    tln.add_node("n", ThresholdGate(("a",), (2,), -1))
    with pytest.raises(ValueError, match="duplicate"):
        tln.add_node("n", ThresholdGate(("a",), (2,), -1))
    with pytest.raises(ValueError, match="unknown"):
        tln.add_node("m", ThresholdGate(("ghost",), (2,), -1))


@pytest.mark.parametrize("remake", [
    ThresholdLogicNetwork.copy,
    lambda tln: ThresholdLogicNetwork.from_json(tln.to_json())])
def test_network_refuses_an_input_id_after_copy_and_from_json(remake):
    # add_node checks ids against a set of the inputs; the copy and the
    # loaded network must carry it
    tln = remake(_tiny_tln())
    with pytest.raises(ValueError, match="duplicate"):
        tln.add_node("b", ThresholdGate(("a",), (2,), -1))
    tln.add_node("c", ThresholdGate(("b",), (2,), -1))
    tln.inputs = ["a"]  # replacing the inputs replaces the set
    with pytest.raises(ValueError, match="unknown"):
        tln.add_node("d", ThresholdGate(("b",), (2,), -1))


def test_network_consumers_multiplicity():
    tln = ThresholdLogicNetwork(inputs=["a"])
    tln.add_node("n", ThresholdGate(("a", "a"), (2, 2), -3))
    assert tln.consumers()["a"] == ["n", "n"]


def test_network_json_round_trip():
    tln = _tiny_tln()
    tln.assign_levels()
    again = ThresholdLogicNetwork.from_json(tln.to_json())
    assert again.inputs == tln.inputs and again.outputs == tln.outputs
    assert set(again.nodes) == set(tln.nodes)
    for nid in tln.nodes:
        assert again.nodes[nid].gate == tln.nodes[nid].gate
        assert again.nodes[nid].level == tln.nodes[nid].level


def test_network_from_json_accepts_non_topological_order():
    doc = {
        "inputs": ["a"],
        "outputs": ["y"],
        "nodes": [
            {"id": "y", "inputs": ["x"], "weights": [2], "bias": -1},
            {"id": "x", "inputs": ["a"], "weights": [-2], "bias": 1},
        ],
    }
    tln = ThresholdLogicNetwork.from_json(doc)
    assert [int(v) for v in tln.evaluate_many([[0], [1]])[:, 0]] == [1, 0]


def test_network_from_json_rejects_dangling_ref():
    doc = {
        "inputs": ["a"],
        "outputs": ["y"],
        "nodes": [{"id": "y", "inputs": ["nope"], "weights": [2], "bias": -1}],
    }
    with pytest.raises(ValueError, match="unknown"):
        ThresholdLogicNetwork.from_json(doc)


def _json_doc(*ids):
    return {"inputs": ["a"], "outputs": [ids[-1]],
            "nodes": [{"id": i, "inputs": ["a"], "weights": [2], "bias": -1}
                      for i in ids]}


@pytest.mark.parametrize("ids", [("y", "y"), ("a",)])
def test_network_from_json_rejects_a_node_id_given_twice(ids):
    # the later node silently replaced the earlier one
    with pytest.raises(ValueError, match="duplicate node id"):
        ThresholdLogicNetwork.from_json(_json_doc(*ids))


def test_lower_rejects_an_unresolved_output():
    tln = _tiny_tln()
    tln.outputs = ["ghost"]
    with pytest.raises(ValueError, match="output 'ghost' unresolved"):
        tln.lower()


def test_exhaustive_input_words_pack_the_input_rows():
    for n in range(15):
        want = pack(input_rows(n))
        got = input_words(n)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert (got == want).all(), n


def _nand(inputs=("a", "b"), outputs=("y",)):
    return BooleanNetwork(inputs, outputs, (Gate("y", "NAND", ("a", "b")),))


@pytest.mark.parametrize("source,message", [
    (_nand(inputs=("b", "a")), "primary input mismatch"),
    (_nand(outputs=("y", "y")), "primary output arity mismatch")])
def test_check_rejects_a_network_that_does_not_line_up(source, message):
    with pytest.raises(ValueError, match=message):
        low = lowered(_tiny_tln(), source)
        check(low, source, pack(input_rows(2)), 4, low.levels[None])


def test_check_counts_the_vectors_that_differ_per_row():
    tln = _tiny_tln()
    words = pack(input_rows(2))
    # row 1 zeroes every level, so every node fires: y = 1 also on a = b = 1
    low = lowered(tln, _nand())
    out, errors = check(low, _nand(), words, 4,
                        low.levels * np.array([[1], [0]]))
    assert errors.tolist() == [0, 1]
    assert len(out) == 2
