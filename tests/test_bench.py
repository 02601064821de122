"""Netlist parsing and exact Boolean evaluation.

The C17 checks compare the parser/evaluator against an independent
hand-written NAND model of the same circuit, so both sides would have to
be wrong in the same way for a bug to slip through.
"""

import itertools
import random

import numpy as np
import pytest

from smtl.bench import (
    BenchError,
    BooleanNetwork,
    evaluate_many,
    parse_bench,
)

C17_TEXT = """\
# c17 - smallest ISCAS85 benchmark
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)

OUTPUT(22)
OUTPUT(23)

10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
"""


def _c17_reference(i1, i2, i3, i6, i7):
    """Independent model of C17 written directly from the schematic."""
    nand = lambda a, b: 1 - (a & b)  # noqa: E731
    n10 = nand(i1, i3)
    n11 = nand(i3, i6)
    n16 = nand(i2, n11)
    n19 = nand(n11, i7)
    return nand(n10, n16), nand(n16, n19)


def evaluate_one(net, bits):
    """Output bits of one input vector, from a one-row `evaluate_many`."""
    out = evaluate_many(net, np.array([bits], dtype=bool))
    return tuple(int(b) for b in out[0])


def test_c17_shape():
    net = parse_bench(C17_TEXT)
    assert len(net.inputs) == 5
    assert len(net.outputs) == 2
    assert len(net.gates) == 6
    assert all(g.kind == "NAND" for g in net.gates)


def test_c17_matches_benchmark_file(c17):
    assert parse_bench(C17_TEXT) == c17


def test_c17_all_zeros():
    net = parse_bench(C17_TEXT)
    got = evaluate_one(net, (0, 0, 0, 0, 0))
    assert got == _c17_reference(0, 0, 0, 0, 0)
    assert got == (0, 0)


def test_c17_exhaustive_against_reference():
    net = parse_bench(C17_TEXT)
    for bits in itertools.product((0, 1), repeat=5):
        assert evaluate_one(net, bits) == _c17_reference(*bits)


def test_identity_netlist():
    net = parse_bench("INPUT(a)\nOUTPUT(a)\n")
    assert len(net.gates) == 0
    assert net.outputs == ("a",)
    assert evaluate_one(net, (1,)) == (1,)
    assert evaluate_one(net, (0,)) == (0,)


def test_single_not():
    net = parse_bench("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n")
    assert evaluate_one(net, (1,)) == (0,)
    assert evaluate_one(net, (0,)) == (1,)


def test_xor2():
    net = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = XOR(a, b)\n")
    assert evaluate_one(net, (1, 1)) == (0,)
    assert evaluate_one(net, (1, 0)) == (1,)
    assert evaluate_one(net, (0, 0)) == (0,)


@pytest.mark.parametrize("kind,fn", [
    ("AND", lambda v: int(all(v))),
    ("OR", lambda v: int(any(v))),
    ("NAND", lambda v: 1 - int(all(v))),
    ("NOR", lambda v: 1 - int(any(v))),
    ("XOR", lambda v: sum(v) % 2),
])
def test_gate_kinds_exhaustive(kind, fn):
    for arity in (2, 3, 4):
        names = [f"a{i}" for i in range(arity)]
        text = "".join(f"INPUT({n})\n" for n in names)
        text += f"OUTPUT(y)\ny = {kind}({', '.join(names)})\n"
        net = parse_bench(text)
        for bits in itertools.product((0, 1), repeat=arity):
            assert evaluate_one(net, bits) == (fn(bits),), (kind, bits)


def test_unary_kinds():
    net = parse_bench("INPUT(a)\nOUTPUT(y)\ny = BUFF(a)\n")
    assert evaluate_one(net, (1,)) == (1,)
    assert evaluate_one(net, (0,)) == (0,)


def test_evaluate_many_matches_single(c17):
    vectors = np.array(list(itertools.product((0, 1), repeat=5)), dtype=bool)
    mat = evaluate_many(c17, vectors)
    for row, bits in zip(mat, vectors):
        assert tuple(int(v) for v in row) == evaluate_one(c17, bits)


def test_evaluate_many_shape_check(c17):
    with pytest.raises(ValueError):
        evaluate_many(c17, np.zeros((4, 3), dtype=bool))


def test_self_loop_rejected():
    with pytest.raises(BenchError, match="cycle"):
        parse_bench("INPUT(a)\nOUTPUT(n)\nn = NAND(a, n)\n")


def test_mutual_cycle_rejected():
    text = "INPUT(a)\nOUTPUT(x)\nx = AND(a, y)\ny = OR(a, x)\n"
    with pytest.raises(BenchError, match="cycle"):
        parse_bench(text)


def test_undefined_net_rejected():
    with pytest.raises(BenchError, match="undefined"):
        parse_bench("INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n")


def test_unresolved_output_rejected():
    with pytest.raises(BenchError, match="output"):
        parse_bench("INPUT(a)\nOUTPUT(zz)\ny = NOT(a)\n")


def test_duplicate_definition_rejected():
    text = "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\ny = BUFF(a)\n"
    with pytest.raises(BenchError, match="duplicate"):
        parse_bench(text)


def test_sequential_rejected_with_line_number():
    text = "INPUT(a)\nOUTPUT(q)\nq = DFF(a)\n"
    with pytest.raises(BenchError, match="line 3.*sequential"):
        parse_bench(text)


def test_syntax_error_reports_line():
    with pytest.raises(BenchError, match="line 2"):
        parse_bench("INPUT(a)\nthis is not a gate\n")


def test_unknown_kind_rejected():
    with pytest.raises(BenchError, match="unknown gate kind"):
        parse_bench("INPUT(a)\nOUTPUT(y)\ny = XNOR3(a)\n")


def test_not_arity_checked():
    with pytest.raises(BenchError, match="exactly 1"):
        parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NOT(a, b)\n")


def test_comments_and_blank_lines_ignored():
    text = "# header\n\nINPUT(a)  # trailing\nOUTPUT(y)\ny = NOT(a)\n"
    net = parse_bench(text)
    assert len(net.gates) == 1


def test_out_of_order_definitions_ok():
    # gates may appear before their sources in the file
    text = "INPUT(a)\nOUTPUT(y)\ny = NOT(x)\nx = NOT(a)\n"
    net = parse_bench(text)
    assert evaluate_one(net, (1,)) == (1,)


def test_json_round_trip(c17):
    assert BooleanNetwork.from_json(c17.to_json()) == c17


def to_bench(net):
    """The `.bench` text of `net`: its inputs, outputs and gates."""
    lines = [f"INPUT({n})" for n in net.inputs]
    lines += [f"OUTPUT({n})" for n in net.outputs]
    lines += [f"{g.name} = {g.kind}({', '.join(g.inputs)})" for g in net.gates]
    return "\n".join(lines) + "\n"


def test_bench_round_trip(c17):
    assert parse_bench(to_bench(c17)) == c17


def test_random_networks_round_trip_and_agree():
    rng = random.Random(7)
    kinds = ["AND", "OR", "NAND", "NOR", "XOR", "NOT", "BUFF"]
    for _ in range(10):
        n_in = rng.randint(2, 5)
        names = [f"i{j}" for j in range(n_in)]
        gates = []
        for g in range(rng.randint(3, 12)):
            kind = rng.choice(kinds)
            arity = 1 if kind in ("NOT", "BUFF") else rng.randint(2, 4)
            srcs = rng.sample(names, min(arity, len(names)))
            name = f"g{g}"
            gates.append(f"{name} = {kind}({', '.join(srcs)})")
            names.append(name)
        outs = rng.sample(names[n_in:], min(2, len(names) - n_in))
        text = "".join(f"INPUT(i{j})\n" for j in range(n_in))
        text += "".join(f"OUTPUT({o})\n" for o in outs)
        text += "\n".join(gates) + "\n"
        net = parse_bench(text)
        again = parse_bench(to_bench(net))
        vectors = np.array(
            list(itertools.product((0, 1), repeat=n_in)), dtype=bool
        )
        assert (evaluate_many(net, vectors) == evaluate_many(again, vectors)).all()


@pytest.mark.parametrize("gate,message", [
    ({"name": "y", "kind": "FOO", "inputs": ["a"]}, "unknown gate kind"),
    ({"name": "y", "kind": "DFF", "inputs": ["a"]}, "sequential"),
    ({"name": "y", "kind": "NOT", "inputs": ["a", "b"]}, "exactly 1 input"),
    ({"name": "y", "kind": "AND", "inputs": []}, "no inputs"),
    ({"name": "a", "kind": "NOT", "inputs": ["b"]}, "duplicate definition"),
])
def test_from_json_rejects_what_parse_bench_rejects(gate, message):
    # FOO ended in a KeyError when evaluated, a two-input NOT was NOT of
    # its first input and a name given twice kept only one definition
    doc = {"inputs": ["a", "b"], "outputs": ["y"], "gates": [gate]}
    with pytest.raises(BenchError, match=message):
        BooleanNetwork.from_json(doc)
    text = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\n{} = {}({})\n".format(
        gate["name"], gate["kind"], ", ".join(gate["inputs"]))
    with pytest.raises(BenchError, match=f"line 4: .*{message}"):
        parse_bench(text)
