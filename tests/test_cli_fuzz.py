"""The exit-code contract under fuzzed command lines.

Every command runs with each of its options either left out or set to a
value drawn from the option's pool: a few good values plus 0, negatives,
-0.0, NaN, +-inf, huge and non-numeric text, and for file options
missing, malformed or mismatched JSON and `.bench` files. Whatever the
input, a command exits 0-5, never with an uncaught exception; a non-zero
exit prints exactly one line on stderr, and an exit 0 writes only finite
numbers. Vector and trial counts stay at or below 10^5.
"""

import csv
import io
import json
import math
import re
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings, strategies as st

from smtl.cli import main

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"

NUMBERS = ("0", "-1", "-3", "-0.0", "nan", "inf", "-inf", "1e308", "x", "")

BENCH_TEXTS = {
    "empty.bench": "",
    "syntax.bench": "INPUT(a\nOUTPUT(y)\ny = NOT(a)\n",
    "unknown.bench": "INPUT(a)\nOUTPUT(y)\ny = FOO(a)\n",
    "cycle.bench": "INPUT(a)\nOUTPUT(y)\ny = AND(a, z)\nz = NOT(y)\n",
    "dff.bench": "INPUT(a)\nOUTPUT(y)\ny = DFF(a)\n",
    "undefined.bench": "INPUT(a)\nOUTPUT(y)\ny = AND(a, b)\n",
    "no-outputs.bench": "INPUT(a)\ng = NOT(a)\n",
    "binary.bench": "\x00\x01\xff\n",
}
JSON_TEXTS = {
    "truncated.json": '{"tln": {"inputs": [',
    "not-json.json": "{not json",
    "list.json": "[]",
    "null.json": "null",
    "object.json": "{}",
    "wrong-types.json": '{"tln": 1, "source": "x", "config": 2}',
    "nan.json": '{"delta_v": NaN}',
    "negative.json": '{"delta_v": -0.05}',
    "unknown-key.json": '{"gain": 1}',
    "huge.json": '{"delta_v": 1e300, "f_clk": 1e300}',
    "tiny.json": '{"r_memristor_min": 1e-300, "i_threshold": 1e-300}',
}


def _corrupt(doc, edit):
    doc = json.loads(json.dumps(doc))
    edit(doc)
    return json.dumps(doc)


def _first_node(**fields):
    return lambda doc: doc["tln"]["nodes"][0].update(fields)


def _first_gate(**fields):
    return lambda doc: doc["source"]["gates"][0].update(fields)


# edits a loader or the oracle check rejects, made to the synthesized
# and to the mapped document alike
LINE_UP = {
    "unknown-kind": _first_gate(kind="FOO"),
    "two-input-not": _first_gate(kind="NOT"),
    "repeated-gate": lambda doc: doc["source"]["gates"].append(
        doc["source"]["gates"][0]),
    "repeated-node": lambda doc: doc["tln"]["nodes"].append(
        doc["tln"]["nodes"][0]),
    "unresolved-output": lambda doc: doc["tln"]["outputs"].__setitem__(
        0, "ghost"),
    "reversed-inputs": lambda doc: doc["source"]["inputs"].reverse(),
    "one-output-fewer": lambda doc: doc["source"]["outputs"].pop(),
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Good artifacts of c17 plus every malformed file, by name."""
    d = tmp_path_factory.mktemp("fuzz")
    runner = CliRunner()
    paths = {"c17.bench": str(BENCH_DIR / "c17.bench"),
             "missing": str(d / "missing.json"), "directory": str(d)}
    tln, mapped = str(d / "tln.json"), str(d / "mapped.json")
    assert runner.invoke(main, ["synth", "--bench", paths["c17.bench"],
                                "-o", tln]).exit_code == 0
    assert runner.invoke(main, ["map", "--tln", tln, "-o",
                                mapped]).exit_code == 0
    paths["tln.json"], paths["mapped.json"] = tln, mapped
    t = json.loads(Path(tln).read_text())
    m = json.loads(Path(mapped).read_text())
    last = t["tln"]["nodes"][-1]["id"]
    texts = {
        **BENCH_TEXTS, **JSON_TEXTS,
        "tln-cycle.json": _corrupt(t, _first_node(inputs=[last, last])),
        "tln-string-weight.json": _corrupt(t, _first_node(weights=["a", 1])),
        "tln-no-inputs.json": _corrupt(t, _first_node(inputs=[],
                                                      weights=[])),
        "tln-weight-7.json": _corrupt(t, _first_node(weights=[7, 7])),
        "tln-ghost-output.json": _corrupt(
            t, lambda doc: doc["tln"].update(outputs=["ghost"])),
        "tln-string-w-max.json": _corrupt(
            t, lambda doc: doc.update(w_max="6", fanin_limit=None)),
        "mapped-ghost.json": _corrupt(
            m, lambda doc: doc["blocks"]["1"][0].append("ghost")),
        "mapped-absorbed-ghost.json": _corrupt(
            m, lambda doc: doc["absorbed"].append("ghost")),
        "mapped-k0.json": _corrupt(m, lambda doc: doc["config"].update(k=0)),
        "mapped-k1.json": _corrupt(m, lambda doc: doc["config"].update(k=1)),
        "mapped-rows0.json": _corrupt(
            m, lambda doc: doc["config"].update(rows=0, cols=0)),
        "mapped-cols-float.json": _corrupt(
            m, lambda doc: doc["config"].update(cols=2.5)),
        "mapped-blocks-list.json": _corrupt(
            m, lambda doc: doc.update(blocks=[])),
    }
    for name, edit in LINE_UP.items():
        texts[f"tln-{name}.json"] = _corrupt(t, edit)
        texts[f"mapped-{name}.json"] = _corrupt(m, edit)
    for name, text in texts.items():
        (d / name).write_text(text)
        paths[name] = str(d / name)
    return paths


def _pick(good, bad):
    """A good value three times in four, else a bad one."""
    return st.sampled_from((good,) * 3 + (bad,)).flatmap(st.sampled_from)


def _files(*good):
    return _pick(good, tuple(JSON_TEXTS) + ("missing", "directory"))


def _numbers(*good):
    return _pick(good, NUMBERS)


BENCHES = _pick(("c17.bench",), ("missing", "directory") + tuple(BENCH_TEXTS)
                + tuple(JSON_TEXTS))
TLNS = _files("tln.json", "tln.json", "tln.json", "mapped.json", "c17.bench",
              "tln-cycle.json", "tln-string-weight.json",
              "tln-no-inputs.json", "tln-weight-7.json",
              "tln-ghost-output.json", "tln-string-w-max.json",
              *(f"tln-{name}.json" for name in LINE_UP))
MAPPED = _files("mapped.json", "mapped.json", "mapped.json", "tln.json",
                "mapped-ghost.json", "mapped-absorbed-ghost.json",
                "mapped-k0.json", "mapped-k1.json", "mapped-rows0.json",
                "mapped-cols-float.json", "mapped-blocks-list.json",
                *(f"mapped-{name}.json" for name in LINE_UP))
PARAMS = _files("huge.json", "tiny.json")


# option -> values; a value naming a file in `files` is replaced by its path
OPTIONS = {
    "synth": {"--bench": BENCHES, "--fanin": _numbers("2", "3", "4", "5"),
              "--wmax": _numbers("2", "6", "8", "9")},
    "map": {"--tln": TLNS, "--levels-per-stage": _numbers("1", "2", "3"),
            "--blocks": _numbers("1", "2"), "--rows": _numbers("4", "64"),
            "--cols": _numbers("4", "32"),
            "--fmax": _numbers("2", "8")},
    "evaluate": {"--mapped": MAPPED, "--params": PARAMS,
                 "--sigma": _numbers("0.05", "0.5", "1e-300"),
                 "--vectors": _numbers("1", "64", "100000"),
                 "--seed": _numbers("1", "123456789012345678901234567890"),
                 "--baseline-energy": _numbers("1e-12", "5e-324"),
                 "--baseline-delay": _numbers("1e-8", "5e-324")},
    "sweep": {"--mapped": MAPPED, "--tln": TLNS, "--params": PARAMS,
              "--param": _pick(("dv", "i_threshold", "k", "subarray_dim"),
                               NUMBERS),
              "--grid": _pick(("25,50", "1,2", "16", "1e300", "5e-324",
                               "0.5"), ("1,nan", "-0.0,1", ",,") + NUMBERS)},
    "write-sim": {"--bits": _pick(("4,6", "1", "64"),
                                  ("65", "4,,8", "0,4") + NUMBERS),
                  "--iprog": _numbers("5", "10", "1e300", "5e-324"),
                  "--trials": _numbers("1", "50"),
                  "--tmax": _numbers("20", "1e-3", "1e300"),
                  "--seed": _numbers("1"), "--params": PARAMS},
}
REQUIRED = {"synth": ("--bench",), "map": ("--tln",),
            "evaluate": ("--mapped",),
            "sweep": ("--mapped", "--param", "--grid")}
OUTPUT = {"synth": "-o", "map": "-o", "evaluate": "--report", "sweep": "-o",
          "write-sim": "-o"}


@st.composite
def command_lines(draw, command):
    """(option, value) pairs for `command`; required options always set,
    the others about half the time, and the output path sometimes a
    directory or a file in a missing directory."""
    pairs = []
    for opt, values in OPTIONS[command].items():
        if opt in REQUIRED.get(command, ()) or draw(st.booleans()):
            pairs.append((opt, draw(values)))
    pairs.append((OUTPUT[command], draw(st.sampled_from(
        ("out",) * 6 + ("directory", "missing/out")))))
    return pairs


def _finite_json(text):
    def reject(token):
        raise AssertionError(f"non-finite {token} in an artifact")
    json.loads(text, parse_constant=reject)


def _finite_csv(text):
    for row in csv.reader(io.StringIO(text)):
        for cell in row:
            try:
                value = float(cell)
            except ValueError:
                continue
            assert math.isfinite(value), row


def _check(command, pairs, files, tmp_path):
    out = tmp_path / "artifact"
    args = [command]
    for opt, value in pairs:
        if opt == OUTPUT[command]:
            value = {"out": str(out), "directory": str(tmp_path),
                     "missing/out": str(tmp_path / "missing" / "out")}[value]
        args += [opt, files.get(value, value)]
    out.unlink(missing_ok=True)
    r = CliRunner().invoke(main, args)
    assert r.exception is None or isinstance(r.exception, SystemExit), \
        (args, repr(r.exception))
    assert 0 <= r.exit_code <= 5, (args, r.output)
    if r.exit_code:
        lines = [l for l in r.stderr.splitlines() if l.strip()]
        assert len(lines) == 1 and lines[0].startswith("error:"), \
            (args, r.stderr)
        return
    assert not re.search(r"=-?(nan|inf)\b", r.stdout, re.I), (args, r.stdout)
    text = out.read_text()
    if command in ("sweep", "write-sim"):
        _finite_csv(text)
    else:
        _finite_json(text)


FUZZ = settings(derandomize=True, max_examples=400, deadline=None,
                database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture,
                                       HealthCheck.too_slow])


@pytest.mark.parametrize("command", sorted(OPTIONS))
def test_command_line_fuzz_keeps_the_exit_code_contract(command, files,
                                                        tmp_path):
    @FUZZ
    @given(pairs=command_lines(command))
    def run(pairs):
        _check(command, pairs, files, tmp_path)

    run()
