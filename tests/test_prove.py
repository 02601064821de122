"""The equivalence proof (`tlg.prove`): it holds without sampling on the
shipped and generated netlists and their mapped designs, it is sound
against mutants, it decides as the reference window `ref_prove` does,
and the reports and checks that use it keep their bytes and verdicts."""

import dataclasses
import importlib.util
import itertools
import json
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smtl import cli, evaluate, graph, synthesis, tlg
from smtl.bench import evaluate_many, gate_value, load_bench, parse_bench
from smtl.mapping import MappedDesign, MappingConfig, map_design
from smtl.synthesis import synthesize_tln, verify_equivalence
from smtl.tlg import (ThresholdGate, check, input_rows, input_words, lowered,
                      prove)

ROOT = Path(__file__).resolve().parent.parent
_NETGEN = importlib.util.spec_from_file_location(
    "netgen", ROOT / "perfbench" / "netgen.py")
netgen = importlib.util.module_from_spec(_NETGEN)
_NETGEN.loader.exec_module(netgen)

SYNTH = {"fanin 4": {"fanin_limit": 4},
         "fanin 3 wmax 4": {"fanin_limit": 3, "w_max": 4}}
MAPS = {"defaults": {}, "blocks 1 cols 32": {"blocks_per_stage": 1},
        "levels 3 rows 16": {"k": 3, "rows": 16}, "levels 1": {"k": 1},
        "fmax 2": {"f_max": 2}}


@pytest.mark.parametrize("synth", SYNTH)
@pytest.mark.parametrize("name", ["c17", "c432_like"])
def test_shipped_netlists_are_proved_synthesized_and_mapped(name, synth):
    net = load_bench(ROOT / "benchmarks" / f"{name}.bench")
    tln = synthesize_tln(net, **SYNTH[synth])
    assert prove(tln, net)
    for label, cfg in MAPS.items():
        design = map_design(tln, net, MappingConfig(**cfg),
                            **SYNTH[synth])
        assert prove(design.tln, net), label


@pytest.mark.parametrize("gates", [300, 600, 1200])
def test_generated_netlists_are_proved_synthesized_and_mapped(gates):
    # at fan-in 2, gen1200's anchor g4_23 = AND(g3_14, g3_2, ...) becomes
    # a tree whose node AND(g3_14, g3_2) has the class of the earlier
    # anchor g4_8: only the network side may grow past it
    net = parse_bench(netgen.generate(gates, gates // 25, 0.1, 1))
    for fanin in (2, 3, 4):
        tln = synthesize_tln(net, fanin_limit=fanin)
        assert prove(tln, net), fanin
        assert prove(map_design(tln, net, fanin_limit=fanin).tln, net), fanin


@pytest.mark.parametrize("gates, layers, xor, seed, w_max, cfg", [
    (204, 15, 0.3, 118, 4, {"k": 1, "f_max": 2}),
    (2000, 40, 0.1, 1, 6, {"k": 3, "rows": 16})])
def test_a_fan_in_2_map_is_proved(gates, layers, xor, seed, w_max, cfg):
    net = parse_bench(netgen.generate(gates, layers, xor, seed))
    tln = synthesize_tln(net, fanin_limit=2, w_max=w_max)
    assert prove(tln, net)
    design = map_design(tln, net, MappingConfig(**cfg), 2, w_max)
    assert prove(design.tln, net)


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(gates=st.integers(20, 300), layers=st.integers(2, 20),
       xor=st.sampled_from((0, 0.1, 0.5, 1)), seed=st.integers(0, 2 ** 32),
       fanin=st.integers(2, 4), w_max=st.integers(2, 6),
       k=st.integers(1, 3), f_max=st.sampled_from((2, 8)),
       cols=st.sampled_from((8, 16, 32)))
def test_generated_networks_are_proved(gates, layers, xor, seed, fanin,
                                       w_max, k, f_max, cols):
    # netgen's gates read at most 5 inputs: no window passes 16 leaves
    net = parse_bench(netgen.generate(gates, layers, xor, seed))
    tln = synthesize_tln(net, fanin_limit=fanin, w_max=w_max)
    assert prove(tln, net)
    design = map_design(tln, net, MappingConfig(k=k, f_max=f_max, cols=cols),
                        fanin, w_max)
    assert prove(design.tln, net)
    # what `map` writes loads, through `validate`, and writes the same bytes
    text = "".join(cli._dump(design.sections()))
    again = MappedDesign.from_json(json.loads(text))
    assert "".join(cli._dump(again.sections())) == text


def _no_vectors(*args, **kwargs):
    raise AssertionError("vectors drawn for a proved network")


def test_proved_checks_draw_no_vectors(c432, c432_tln, c432_mapped, params,
                                       monkeypatch):
    monkeypatch.setattr(synthesis, "input_words", _no_vectors)
    monkeypatch.setattr(evaluate, "input_words", _no_vectors)
    assert verify_equivalence(c432, c432_tln, count=10_000) == (True, None)
    rep = evaluate.full_report(c432_mapped, params, vectors=10_000, seed=3)
    assert (rep["errors"], rep["vectors"], rep["seed"]) == (0, 10_000, 3)


def _report_text(design, params):
    return json.dumps(evaluate.full_report(design, params), indent=1,
                      sort_keys=True)


def _counted(monkeypatch, owner, name, calls):
    """Replace `owner.name` by a wrapper that appends `name` to `calls`."""
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


@pytest.mark.parametrize("design", ["c17_mapped", "c432_mapped"])
def test_sigma0_report_bytes_do_not_depend_on_the_proof(design, params,
                                                        request, monkeypatch):
    # and, either way, the design is lowered and programmed once
    design = request.getfixturevalue(design)
    calls = []
    _counted(monkeypatch, tlg.ThresholdLogicNetwork, "lower", calls)
    _counted(monkeypatch, evaluate, "programmed", calls)
    proved = _report_text(design, params)
    assert sorted(calls) == ["lower", "programmed"]
    calls.clear()
    monkeypatch.setattr(evaluate, "prove", lambda tln, source: False)
    assert _report_text(design, params) == proved
    assert sorted(calls) == ["lower", "programmed"]


def test_a_failing_check_evaluates_the_oracle_once(c432, c432_tln,
                                                   monkeypatch):
    tln = c432_tln.copy()
    node = tln.nodes[tln.outputs[0]]
    g = node.gate  # inverted: not(w.x + b >= 0) is -w.x - b - 1 >= 0
    node.gate = ThresholdGate(g.inputs, tuple(-w for w in g.weights),
                              -g.bias - 1)
    calls = []
    _counted(monkeypatch, synthesis, "evaluate_packed", calls)
    _counted(monkeypatch, tlg, "evaluate_packed", calls)
    ok, ce = verify_equivalence(c432, tln, count=10_000, seed=0)
    assert not ok and len(calls) == 1
    # the lowest-index row the two disagree on, with both output vectors
    monkeypatch.undo()
    rows = input_rows(len(c432.inputs), 10_000, 0)
    want, got = evaluate_many(c432, rows), tln.evaluate_many(rows)
    i = int(np.argmax((want != got).any(axis=1)))
    assert ce == {"vector": rows[i].astype(int).tolist(),
                  "expected": want[i].astype(int).tolist(),
                  "got": got[i].astype(int).tolist()}


def test_a_crossbar_row_unlike_the_levels_is_simulated(c17_mapped, params):
    # an off-state conductance as large as one level's: a row's unused
    # polarity carries as much current as a weight of 1, so the sigma = 0
    # crossbar is not the integer network, and the report counts what it
    # gets wrong
    leaky = dataclasses.replace(params, r_off=params.r_memristor_min * 6)
    low = c17_mapped.tln.lower()
    net = evaluate.programmed(low, leaky, 0.0, [0])
    assert tlg.ideal_tables(low, low.levels[None].astype(float))
    assert not tlg.ideal_tables(low, net)
    _, errors = check(low, c17_mapped.source, input_words(5), 32, net)
    rep = evaluate.full_report(c17_mapped, leaky, vectors=32)
    assert rep["errors"] == errors[0] > 0


@pytest.mark.parametrize("k", [100, 2000])
def test_a_deep_window_is_proved_without_sampling(k, monkeypatch):
    # a NAND and k chained NOTs, which collapse folds into one node: its
    # one window reads the whole source chain
    net = parse_bench("INPUT(a)\nINPUT(b)\n" + f"OUTPUT(g{k})\n"
                      + "g0 = NAND(a, b)\n"
                      + "".join(f"g{i} = NOT(g{i - 1})\n"
                                for i in range(1, k + 1)))
    tln = synthesize_tln(net)
    assert len(tln.nodes) == 1
    assert prove(tln, net)
    monkeypatch.setattr(synthesis, "input_words", _no_vectors)
    assert verify_equivalence(net, tln) == (True, None)


def test_a_window_above_16_leaves_falls_back_to_sampling():
    names = [f"i{j}" for j in range(17)]
    net = parse_bench("".join(f"INPUT({x})\n" for x in names)
                      + f"OUTPUT(p)\np = XOR({', '.join(names)})\n")
    tln = synthesize_tln(net)
    assert not prove(tln, net)
    assert verify_equivalence(net, tln, count=2_000) == (True, None)


def test_an_interface_mismatch_is_not_proved(c17, c17_tln):
    other = c17_tln.copy()
    other.inputs = other.inputs[::-1]
    assert not prove(other, c17)
    other = c17_tln.copy()
    other.outputs = other.outputs[:-1]
    assert not prove(other, c17)


# --- soundness against mutants --------------------------------------------

KINDS = ("AND", "OR", "NAND", "NOR", "XOR", "NOT", "BUFF")


def _random_netlist(rng):
    """A netlist of at most 14 inputs (netgen keeps 24 or more): gates of
    every kind, repeated inputs, and outputs that repeat or are inputs."""
    n = rng.randint(1, 14)
    signals = [f"i{j}" for j in range(n)]
    lines = [f"INPUT({x})" for x in signals]
    for g in range(rng.randint(1, 30)):
        kind = rng.choice(KINDS)
        k = 1 if kind in ("NOT", "BUFF") else rng.randint(1, 6)
        near = signals[-8:] if rng.random() < 0.7 else signals
        ins = [rng.choice(near) for _ in range(k)]
        lines.append(f"g{g} = {kind}({', '.join(ins)})")
        signals.append(f"g{g}")
    outs = [rng.choice(signals[n:] if rng.random() < 0.8 else signals)
            for _ in range(rng.randint(1, 4))]
    return parse_bench("\n".join(lines + [f"OUTPUT({o})" for o in outs]))


def _slots(tln, x):
    """Where `x` is read: (node id, input position), or (None, output)."""
    return ([(nid, p) for nid, node in tln.nodes.items()
             for p, i in enumerate(node.gate.inputs) if i == x]
            + [(None, p) for p, o in enumerate(tln.outputs) if o == x])


def _redirect(tln, slot, new):
    nid, p = slot
    if nid is None:
        tln.outputs[p] = new
        return
    g = tln.nodes[nid].gate
    ins = list(g.inputs)
    ins[p] = new
    tln.nodes[nid].gate = ThresholdGate(tuple(ins), g.weights, g.bias)


def _bias(g, rng):
    """`g` with its bias moved by one."""
    return ThresholdGate(g.inputs, g.weights, g.bias + rng.choice((-1, 1)))


def _sign(g, rng):
    """`g` with one weight's sign flipped."""
    w = list(g.weights)
    j = rng.randrange(len(w))
    w[j] = -w[j]
    return ThresholdGate(g.inputs, tuple(w), g.bias)


MUTANTS = ("bias", "sign", "rewire", "copy", "buffer", "outputs")


def _mutate(tln, kind, rng):
    """A mutant of `tln` of the given kind, or None if it has no place."""
    tln = tln.copy()
    order = tln.topological_order()
    if not order:
        return None
    nid = rng.choice(order)
    node = tln.nodes[nid]
    g = node.gate
    if kind in ("bias", "sign"):
        node.gate = (_bias if kind == "bias" else _sign)(g, rng)
    elif kind == "rewire":  # an input from earlier in the order: no cycle
        earlier = list(tln.inputs) + order[:order.index(nid)]
        p = rng.randrange(g.fan_in)
        choices = [x for x in earlier if x != g.inputs[p]]
        if not choices:
            return None
        _redirect(tln, (nid, p), rng.choice(choices))
    elif kind in ("copy", "buffer"):
        x = rng.choice(list(tln.inputs) + order) if kind == "buffer" else nid
        slots = _slots(tln, x)
        if not slots:
            return None
        # named as split_fanout names its copies and insert_buffers its
        # path buffers, past the ones there are
        stem = f"{x}$c" if kind == "copy" else f"{x}$s"
        new = next(f"{stem}{j}" for j in itertools.count(1)
                   if f"{stem}{j}" not in tln.nodes)
        if kind == "copy":  # unlike its original
            tln.add_node(new, rng.choice((_bias, _sign))(g, rng))
        else:  # a path buffer whose bias lost its -1: always 1
            tln.add_node(new, ThresholdGate((x,), (2,), 0))
        _redirect(tln, rng.choice(slots), new)
    else:
        if len(set(tln.outputs)) < 2:
            return None
        a, b = rng.sample(range(len(tln.outputs)), 2)
        tln.outputs[a], tln.outputs[b] = tln.outputs[b], tln.outputs[a]
    return tln


def _errors(tln, net):
    n = len(net.inputs)
    low = lowered(tln, net)
    _, errors = check(low, net, input_words(n), 2 ** n, low.levels[None])
    return int(errors[0])


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), kind=st.sampled_from(MUTANTS))
def test_a_proved_mutant_is_equivalent(seed, kind):
    rng = random.Random(seed)
    net = _random_netlist(rng)
    tln = synthesize_tln(net, fanin_limit=rng.choice((2, 3, 4)),
                         w_max=rng.choice((2, 4, 6)))
    cfg = MappingConfig(k=rng.choice((1, 2, 3)), f_max=rng.choice((2, 3, 8)))
    for base in (tln, map_design(tln, net, cfg).tln):
        assert prove(base, net)
        mutant = _mutate(base, kind, rng)
        if mutant is not None and prove(mutant, net):
            assert _errors(mutant, net) == 0


# --- the reference window --------------------------------------------------

def _ref_post_order(roots, node, memo, full):
    """The values of `roots`, each evaluated after the signals it reads,
    with an explicit stack, and kept in `memo`. `node(x)` gives (reads, f,
    a): x's value is f(a, the values of `reads`, full), or a if x is a leaf
    (reads nothing)."""
    stack = [(x, None) for x in reversed(roots)]
    while stack:
        x, step = stack.pop()
        if step is None:
            if x in memo:
                continue
            step = node(x)
            todo = [i for i in step[0] if i not in memo]
            if todo:  # x again once they are evaluated
                stack += [(x, step)] + [(i, None) for i in reversed(todo)]
                continue
        reads, f, a = step
        memo[x] = f(a, [memo[i] for i in reads], full) if reads else a
    return [memo[x] for x in roots]


class _Wide(Exception):
    """A window has more variables than its columns have inputs."""


def ref_prove(tln, source):
    """`tlg.prove` with the window evaluated while its leaves are found:
    columns of 2^m bits, m = 6, 12, then WINDOW_LEAVES, each restarted when
    a window has more variables than m."""
    gates = [n.gate for n in tln.nodes.values()]
    v = graph.view(tln.inputs, tln.nodes, [g.inputs for g in gates])
    try:
        tlg.check_interface(tln, source)
        order = graph.topological_order(v)
    except ValueError:
        return False
    n, names = v.n_sources, v.names
    sgate = {g.name: g for g in source.gates}
    cls = dict(zip(names[:n], range(n)))
    made = [None] * n
    anchored = [True] * n
    keys = {}

    def window(sg, t, ins):
        grow, m, rounds = set(), 6, 0
        while True:
            full, cols, val_t, val_s = (1 << (1 << m)) - 1, {}, {}, {}
            leaf_t, leaf_s = set(), set()

            def var(c):
                if c not in cols:
                    if len(cols) == m:
                        raise _Wide
                    cols[c] = tlg._var(len(cols), m)
                return cols[c]

            def net(c):
                if made[c] and (not anchored[c] or c in grow):
                    return made[c][1], tlg._apply, made[c][0]
                leaf_t.add(c)
                return (), None, var(c)

            def src(x):
                g = sgate.get(x)
                if g and x not in cls:
                    return g.inputs, gate_value, g.kind
                leaf_s.add(x)
                return (), None, var(cls[x])

            try:
                got = tlg._apply(t, _ref_post_order(ins, net, val_t, full),
                                 full)
                want = _ref_post_order(sg.inputs, src, val_s, full)
                if got == gate_value(sg.kind, want, full):
                    return True
            except _Wide:
                if m == tlg.WINDOW_LEAVES:
                    return False
                m = min(2 * m, tlg.WINDOW_LEAVES)
                continue
            more = {c for c in leaf_t - {cls[x] for x in leaf_s} if made[c]}
            rounds += 1
            if rounds > tlg.WINDOW_ROUNDS or more <= grow:
                return False
            grow |= more

    for j in order.tolist():
        g, name = gates[j - n], names[j]
        t = tlg._gate_table(g.weights, g.bias)
        if t is None:
            return False
        ins = tuple(map(cls.__getitem__, g.inputs))
        sg = sgate.get(name)
        if sg and not (ins == tuple(map(cls.get, sg.inputs))
                       and t == tlg._kind_table(sg.kind, len(ins))
                       or window(sg, t, ins)):
            return False
        if t == 2 and len(ins) == 1:
            c = ins[0]
        else:
            c = keys.setdefault((t, ins), len(made))
            if c == len(made):
                made.append((t, ins))
                anchored.append(False)
        cls[name] = c
        anchored[c] |= sg is not None
    return all(cls.get(o, -1) == cls.get(s, -2)
               for o, s in zip(tln.outputs, source.outputs))


def _mutants(tln, rng, count):
    """`count` copies of `tln`, each with one node's bias moved by one or
    one of its weights' signs flipped."""
    out = []
    for _ in range(count):
        mutant = tln.copy()
        node = mutant.nodes[rng.choice(list(mutant.nodes))]
        node.gate = rng.choice((_bias, _sign))(node.gate, rng)
        out.append(mutant)
    return out


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(gates=st.integers(20, 300), layers=st.integers(2, 20),
       xor=st.sampled_from((0, 0.1, 0.5, 1)), seed=st.integers(0, 2 ** 32),
       fanin=st.integers(2, 4), w_max=st.integers(2, 6),
       k=st.integers(1, 3))
def test_prove_agrees_with_the_reference_window(gates, layers, xor, seed,
                                                fanin, w_max, k):
    net = parse_bench(netgen.generate(gates, layers, xor, seed))
    tln = synthesize_tln(net, fanin_limit=fanin, w_max=w_max)
    mapped = map_design(tln, net, MappingConfig(k=k), fanin, w_max).tln
    rng = random.Random(seed)
    for base in (tln, mapped):
        for case in [base] + _mutants(base, rng, 2):
            assert prove(case, net) == ref_prove(case, net)


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_a_window_grows_at_most_window_rounds_times(depth):
    # anchors z1 = AND(i0, i1), zk = AND(z(k-1), ik) up to z(depth), and
    # y = AND(i0, ..., i(depth + 1)) as a chain of unnamed copies of them:
    # y's network side reaches its source side's leaves after `depth`
    # growths, each through the next anchored class
    ins = [f"i{j}" for j in range(depth + 2)]

    def and2(a, b):
        return ThresholdGate((a, b), (1, 1), -2)

    tln = tlg.ThresholdLogicNetwork(inputs=ins, outputs=["y"])
    for stem in ("z", "n"):
        tln.add_node(f"{stem}1", and2("i0", "i1"))
        for k in range(2, depth + 1):
            tln.add_node(f"{stem}{k}", and2(f"{stem}{k - 1}", f"i{k}"))
    tln.add_node("y", and2(f"n{depth}", ins[-1]))
    net = parse_bench("".join(f"INPUT({x})\n" for x in ins)
                      + "OUTPUT(y)\nz1 = AND(i0, i1)\n"
                      + "".join(f"z{k} = AND(z{k - 1}, i{k})\n"
                                for k in range(2, depth + 1))
                      + f"y = AND({', '.join(ins)})\n")
    assert prove(tln, net) == ref_prove(tln, net) == (
        depth <= tlg.WINDOW_ROUNDS)


@pytest.mark.parametrize("fanin", [2, 3, 4])
@pytest.mark.parametrize("width", [17, 24, 40])
@pytest.mark.parametrize("kind", ["AND", "OR", "XOR", "NAND"])
def test_a_gate_wider_than_a_window_is_not_proved(kind, width, fanin):
    names = [f"i{j}" for j in range(width)]
    net = parse_bench("".join(f"INPUT({x})\n" for x in names)
                      + f"OUTPUT(p)\np = {kind}({', '.join(names)})\n")
    tln = synthesize_tln(net, fanin_limit=fanin)
    assert not prove(tln, net)
    assert not ref_prove(tln, net)
