"""Command-line front end chaining synth -> map -> evaluate -> sweep.

Stages communicate through JSON artifacts so each step can be rerun and
inspected independently. All randomness is seed-derived and recorded in
the output; identical commands produce byte-identical files.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import sys
from json.encoder import encode_basestring_ascii as _json_str

import click

from . import __version__, evaluate
from .bench import BenchError, BooleanNetwork, load_bench
from .devices import DeviceParams, write_sim_trials
from .mapping import MappingConfig, MappingInfeasible, map_design, summary
from .synthesis import synthesize_tln, verify_equivalence
from .tlg import FANIN_LIMIT, W_MAX, ThresholdLogicNetwork

EXIT_INPUT = 1
EXIT_EQUIV = 2
EXIT_CAPACITY = 3
EXIT_MISMATCH = 4
EXIT_TIMING = 5

PARAMS_ENV = "SMTL_PARAMS"
OVERFLOW = "a figure to be written overflows a double"
# `_dump` encodes a long list this many items at a time
CHUNK = 256
# comparator resolution cap: past 52 bits the DAC step is below the
# resolution of a double at the target voltage
MAX_BITS = 64
# the synth artifact's bounds for `map`, with their ranges' tops
_LIMITS = (("fanin_limit", FANIN_LIMIT), ("w_max", W_MAX))


class InputError(click.ClickException):
    """Bad user input: exit 1 with one `error:` line."""

    exit_code = EXIT_INPUT

    def show(self, file=None):
        click.echo(f"error: {self.format_message()}", err=True)


class _OneLine:
    """Click type mix-in: a malformed or out-of-range value is an
    InputError naming the option (and `what` it sets), not a usage error."""

    def __init__(self, *args, what=None, **kwargs):
        super().__init__(*args, **kwargs)
        self.what = f"{what} " if what else ""

    def fail(self, message, param=None, ctx=None):
        name = "/".join(param.opts) if param is not None else "value"
        raise InputError(f"{name}: {self.what}{message}")


class IntRange(_OneLine, click.IntRange):
    pass


class FloatRange(_OneLine, click.FloatRange):
    """A finite float within the range."""

    def convert(self, value, param, ctx):
        rv = super().convert(value, param, ctx)
        if not math.isfinite(rv):
            self.fail(f"{rv} is not finite", param, ctx)
        return rv


class Choice(_OneLine, click.Choice):
    pass


def _atomic_write(path, chunks):
    """Write the text `chunks` to `path` as they come, through a temporary
    file in its directory made with mode 0666 less the umask, as by `open`.
    A chunk that raises leaves `path` as it was and no temporary file."""
    d = os.path.dirname(os.path.abspath(path))
    try:
        tmp = os.path.join(d, f".smtl-{os.urandom(6).hex()}")
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with open(fd, "w") as f:
                f.writelines(chunks)  # drops each chunk once it is written
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as e:
        raise InputError(f"cannot write {path}: {e.strerror or e}") from None


def _dump(obj):
    """`json.dumps(obj, indent=1, sort_keys=True, allow_nan=False) + "\\n"`,
    byte for byte and in chunks, without the stdlib's pure-Python
    indenting encoder (see `_pieces`). A zero-argument callable value of a
    top-level dict (`MappedDesign.sections`) is called when its key is
    reached, and its value and text are dropped before the next. A NaN or
    infinite float is an InputError (OVERFLOW); a type other than dict,
    list, tuple, str, int, float, bool and None (or their subclasses) is a
    TypeError.
    """
    try:
        yield from _pieces(obj, "\n", top=True)
        yield "\n"
    except ValueError:
        raise InputError(OVERFLOW) from None


def _pieces(val, ind, top=False):
    """The JSON text of `val` at indentation `ind`, in pieces: a non-empty
    top-level dict, and a dict that holds a list or dict longer than
    CHUNK, go one key (a section) at a time in sorted order; a list longer
    than CHUNK goes CHUNK items per `_column` call; any other value goes
    whole, as one `_column` call. A piece can be written and dropped
    before the next is built."""
    inner = ind + " "
    if type(val) is dict and val and (top or any(
            type(v) in (list, tuple, dict) and len(v) > CHUNK
            for v in val.values())):
        for i, k in enumerate(sorted(val)):
            yield ("{" if i == 0 else ",") + inner + _json_str(_key(k)) + ": "
            section = val[k]
            yield from _pieces(
                section() if top and callable(section) else section, inner)
        yield ind + "}"
    elif type(val) in (list, tuple) and len(val) > CHUNK:
        sep = "," + inner
        for at in range(0, len(val), CHUNK):
            yield (("[" if at == 0 else ",") + inner
                   + sep.join(_column(val[at:at + CHUNK], inner)))
        yield ind + "]"
    else:
        yield _column([val], ind)[0]


def _float(x):
    if not math.isfinite(x):
        raise ValueError("out of range float")
    return float.__repr__(x)


_SCALAR = {str: _json_str, int: int.__repr__, float: _float,
           bool: {True: "true", False: "false"}.__getitem__,
           type(None): lambda _: "null"}


def _column(vals, ind):
    """JSON text of each value in `vals`, at indentation `ind` ("\\n" and
    one space per level), as `json.dumps(indent=1, sort_keys=True)`
    writes it.

    Values of one type are encoded together, so that the work per value is
    done by C code: scalars through one `map`, the items of all the lists
    as one column, and dicts with one key set field by field, joined by one
    format string. A column of mixed types is split by type.
    """
    kinds = set(map(type, vals))
    if len(kinds) != 1:  # one column per type
        out = [None] * len(vals)
        for kind in kinds:
            at = [i for i, v in enumerate(vals) if type(v) is kind]
            for i, text in zip(at, _column([vals[i] for i in at], ind)):
                out[i] = text
        return out
    kind = kinds.pop()
    if kind not in _SCALAR and kind not in (list, tuple, dict):
        kind = _base(kind)
    if kind in _SCALAR:
        return list(map(_SCALAR[kind], vals))
    inner = ind + " "
    sep = "," + inner
    if kind is dict:
        first = vals[0].keys()
        # equal keys of other types (1, 1.0, True) have other texts
        if len(vals) > 1 and (any(type(k) is not str for k in first)
                              or any(d.keys() != first for d in vals)):
            return [_column([d], ind)[0] for d in vals]
        if not first:
            return ["{}"] * len(vals)
        names = sorted(first)
        heads = [_json_str(_key(k)) + ": " for k in names]
        if len(vals) == 1:  # one dict: its values are one column
            texts = _column([vals[0][k] for k in names], inner)
            return ["{" + inner + sep.join(map(str.__add__, heads, texts))
                    + ind + "}"]
        fmt = ("{{" + inner + sep.join(
            h.replace("{", "{{").replace("}", "}}") + "{}" for h in heads)
            + ind + "}}").format
        return list(map(fmt, *[_column([d[k] for d in vals], inner)
                               for k in names]))
    items = _column(list(itertools.chain.from_iterable(vals)), inner)
    out, at = [], 0
    for n in map(len, vals):
        out.append("[" + inner + sep.join(items[at:at + n]) + ind + "]"
                   if n else "[]")
        at += n
    return out


def _base(kind):
    """The type whose encoding the stdlib encoder gives a `kind` value."""
    for base in (str, int, float, list, tuple, dict):
        if issubclass(kind, base):
            return base
    raise TypeError(f"Object of type {kind.__name__} is not JSON "
                    f"serializable")


def _key(k):
    """A dict key as a string, as the stdlib encoder converts it."""
    if isinstance(k, str):
        return k
    if isinstance(k, float):
        return _float(k)
    if k is True or k is False or k is None:
        return _SCALAR[type(k)](k)
    if isinstance(k, int):
        return int.__repr__(k)
    raise TypeError(f"keys must be str, int, float, bool or None, not "
                    f"{type(k).__name__}")


def _csv(rows):
    if not all(math.isfinite(v) for row in rows for v in row.values()
               if isinstance(v, float)):
        raise InputError(OVERFLOW)
    return evaluate.sweep_csv(rows)


def _load_params(path):
    path = path or os.environ.get(PARAMS_ENV)
    try:
        return DeviceParams.load(path)
    except (OSError, ValueError, TypeError, KeyError) as e:
        raise InputError(f"bad device parameters: {e}")


def _fail(code, message):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


@contextlib.contextmanager
def _exits(prefix=""):
    """Exit with one `error:` line when the step inside fails: 3 on
    MappingInfeasible, 5 on TimingViolation, 1 on an OverflowError
    (OVERFLOW) or on a ValueError or TypeError (after `prefix`)."""
    try:
        yield
    except MappingInfeasible as e:
        _fail(EXIT_CAPACITY, str(e))
    except evaluate.TimingViolation as e:
        _fail(EXIT_TIMING, str(e))
    except OverflowError:
        _fail(EXIT_INPUT, OVERFLOW)
    except (ValueError, TypeError) as e:
        _fail(EXIT_INPUT, f"{prefix}{e}")


@click.group()
@click.version_option(__version__)
def main():
    """Threshold-logic synthesis and crossbar hardware mapping toolchain."""


@main.command()
@click.option("--bench", "bench_path", required=True,
              type=click.Path(exists=False), help="ISCAS85 .bench netlist")
@click.option("--fanin", default=FANIN_LIMIT, show_default=True,
              type=IntRange(2, FANIN_LIMIT, what="fan-in limit"),
              help=f"fan-in limit for threshold gates (2..{FANIN_LIMIT})")
@click.option("--wmax", default=W_MAX, show_default=True,
              type=IntRange(2, W_MAX),  # primitive gates have |w| = 2
              help=f"max |weight|, 2..{W_MAX}: the crossbar programs "
                   f"{W_MAX} conductance levels")
@click.option("-o", "--output", default="tln.json", show_default=True)
def synth(bench_path, fanin, wmax, output):
    """Compile a gate netlist into a threshold logic network."""
    try:
        net = load_bench(bench_path)
    except (OSError, BenchError) as e:
        _fail(EXIT_INPUT, str(e))
    if not net.outputs:
        _fail(EXIT_INPUT, f"{bench_path}: no outputs, so no gates to "
                          f"synthesize")
    tln = synthesize_tln(net, fanin_limit=fanin, w_max=wmax)
    ok, ce = verify_equivalence(
        net, tln, count=None if len(net.inputs) <= 20 else 10_000)
    if not ok:
        _fail(EXIT_EQUIV, f"synthesized network is not equivalent: {ce}")
    _atomic_write(output, _dump({"tln": tln.to_json, "source": net.to_json,
                                 "fanin_limit": fanin, "w_max": wmax}))
    levels = max((n.level for n in tln.nodes.values()), default=0)
    click.echo(
        f"nodes={len(tln.nodes)} levels={levels} "
        f"max_fanin={tln.max_fan_in()} -> {output}"
    )


def _pop(doc, key):
    """`doc[key]` (raising as it does), deleted from `doc`."""
    value = doc[key]
    del doc[key]
    return value


def _load_tln(path):
    """The network, its source and its (unchecked) `fanin_limit` and
    `w_max`. Each section is taken off the document as it is built, so
    that the document is freed as the objects grow."""
    try:
        with open(path) as f:
            doc = json.load(f)
        return (ThresholdLogicNetwork.from_json(_pop(doc, "tln")),
                BooleanNetwork.from_json(_pop(doc, "source")),
                {name: doc.get(name, top) for name, top in _LIMITS})
    except (OSError, KeyError, ValueError, TypeError) as e:
        _fail(EXIT_INPUT, f"bad TLN file {path}: {e}")


@main.command("map")
@click.option("--tln", "tln_path", required=True, type=click.Path())
@click.option("--levels-per-stage", "k", default=2, show_default=True,
              type=IntRange(min=1), help="MCA logic levels per pipeline stage")
@click.option("--blocks", default=None, type=IntRange(min=1),
              help="blocks per stage (default: as many as needed)")
@click.option("--rows", default=64, show_default=True, type=IntRange(min=1))
@click.option("--cols", default=32, show_default=True, type=IntRange(min=1))
@click.option("--fmax", default=8, show_default=True, type=IntRange(min=2),
              help="fan-out bound")
@click.option("-o", "--output", default="mapped.json", show_default=True)
def map_cmd(tln_path, k, blocks, rows, cols, fmax, output):
    """Map a threshold network onto pipelined crossbar blocks."""
    tln, net, limits = _load_tln(tln_path)
    for name, top in _LIMITS:
        value = limits[name]
        if type(value) is not int or not 2 <= value <= top:  # synth's ranges
            _fail(EXIT_INPUT, f"bad TLN file {tln_path}: {name} must be a "
                              f"whole number in 2..{top}, got {value!r}")
    cfg = MappingConfig(k=k, rows=rows, cols=cols, blocks_per_stage=blocks,
                        f_max=fmax)
    with _exits(f"bad TLN file {tln_path}: "):  # a gate edited by hand
        design = map_design(tln, net, cfg, **limits)
    del tln  # the design holds its own copy
    _atomic_write(output, _dump(design.sections()))
    s = summary(design)
    click.echo(
        f"stages={s['stages']} nodes={s['nodes']} buffers={s['buffers']} "
        f"direct={s['direct_links']} routed={s['routed_links']} "
        f"backward={s['backward_links']} -> {output}"
    )
    for w in s["warnings"]:
        click.echo(f"warning: {w}", err=True)


def _load_design(path):
    """The mapped design, checked by `mapping.validate`;
    `MappedDesign.from_json` frees the document as it builds the design."""
    from .mapping import MappedDesign

    try:
        with open(path) as f:
            return MappedDesign.from_json(json.load(f))
    except (OSError, KeyError, ValueError, TypeError, MappingInfeasible) as e:
        _fail(EXIT_INPUT, f"bad mapped design {path}: {e}")


@main.command("evaluate")
@click.option("--mapped", "mapped_path", required=True, type=click.Path())
@click.option("--params", "params_path", default=None,
              help=f"device parameter JSON (default: packaged Table I, "
                   f"override with ${PARAMS_ENV})")
@click.option("--sigma", default=0.0, show_default=True,
              type=FloatRange(min=0), help="relative conductance std-dev")
@click.option("--vectors", default=10_000, show_default=True,
              type=IntRange(min=1))
@click.option("--seed", default=0, show_default=True, type=IntRange(min=0))
@click.option("--report", "report_path", default="report.json",
              show_default=True)
@click.option("--baseline-energy", default=None,
              type=FloatRange(min=0, min_open=True),
              help="external baseline energy (J) for ratio reporting; needs "
                   "--baseline-delay")
@click.option("--baseline-delay", default=None,
              type=FloatRange(min=0, min_open=True),
              help="external baseline delay (s) for ratio reporting; needs "
                   "--baseline-energy")
def evaluate_cmd(mapped_path, params_path, sigma, vectors, seed, report_path,
                 baseline_energy, baseline_delay):
    """Simulate under variation and report power/delay/area."""
    if (baseline_energy is None) != (baseline_delay is None):
        _fail(EXIT_INPUT, "--baseline-energy and --baseline-delay go together")
    design = _load_design(mapped_path)
    params = _load_params(params_path)
    with _exits():  # e.g. a gate the crossbar model cannot program
        try:
            rep = evaluate.full_report(design, params, sigma=sigma,
                                       vectors=vectors, seed=seed)
        except MemoryError:  # the vectors' words are the part that grows
            _fail(EXIT_INPUT, f"--vectors: out of memory simulating "
                              f"{vectors} vectors")
    if baseline_energy is not None:
        with _exits("--baseline-energy/--baseline-delay: "):
            rep["baseline"] = evaluate.baseline_ratios(
                rep, baseline_energy, baseline_delay)
    _atomic_write(report_path, _dump(rep))
    if sigma == 0.0 and rep["errors"]:
        _fail(EXIT_MISMATCH,
              f"{rep['errors']} functional errors at sigma=0 "
              f"(report in {report_path})")
    click.echo(
        f"errors={rep['errors']}/{rep['vectors']} "
        f"P_total={rep['power']['p_total'] * 1e6:.2f}uW "
        f"latency={rep['delay']['latency'] * 1e9:.1f}ns "
        f"energy={rep['energy'] * 1e12:.3f}pJ -> {report_path}"
    )


@main.command("sweep")
@click.option("--mapped", "mapped_path", required=True, type=click.Path())
@click.option("--tln", "tln_path", default=None,
              help="synthesized TLN (required for --param k)")
@click.option("--params", "params_path", default=None)
@click.option("--param", "parameter", required=True,
              type=Choice(evaluate.SWEEP_PARAMS))
@click.option("--grid", required=True,
              help="comma-separated values; dv in mV, i_threshold in uA")
@click.option("-o", "--output", default="sweep.csv", show_default=True)
def sweep_cmd(mapped_path, tln_path, params_path, parameter, grid, output):
    """Evaluate the design across a parameter grid; writes CSV."""
    design = _load_design(mapped_path)
    params = _load_params(params_path)
    try:
        values = [float(v) for v in grid.split(",") if v.strip()]
    except ValueError:
        _fail(EXIT_INPUT, f"bad grid {grid!r}")
    if not values:
        _fail(EXIT_INPUT, "empty sweep grid")
    if not all(map(math.isfinite, values)):
        _fail(EXIT_INPUT, f"bad grid {grid!r}: values must be finite")
    if parameter == "dv":
        values = [v * 1e-3 for v in values]
    elif parameter == "i_threshold":
        values = [v * 1e-6 for v in values]
    source_tln = None
    if parameter == "k":
        if tln_path is None:
            _fail(EXIT_INPUT, "--param k requires --tln")
        source_tln, _, _ = _load_tln(tln_path)
    with _exits():
        rows = evaluate.sweep(design, params, parameter, values,
                              source_tln=source_tln)
    _atomic_write(output, [_csv(rows)])
    click.echo(f"{len(rows)} rows -> {output}")


@main.command("write-sim")
@click.option("--bits", default="4,6,8", show_default=True,
              help=f"comparator resolutions to simulate, 1..{MAX_BITS} bits")
@click.option("--iprog", default=10.0, show_default=True,
              type=FloatRange(min=0, min_open=True),
              help="programming current in uA, at least the write threshold")
@click.option("--trials", default=200, show_default=True,
              type=IntRange(min=1))
@click.option("--tmax", default=20.0, show_default=True,
              type=FloatRange(min=0, min_open=True), help="write timeout in us")
@click.option("--seed", default=0, show_default=True, type=IntRange(min=0))
@click.option("--params", "params_path", default=None)
@click.option("-o", "--output", default="write_sim.csv", show_default=True)
def write_sim_cmd(bits, iprog, trials, tmax, seed, params_path, output):
    """Monte-Carlo the feedback write loop over comparator resolutions."""
    params = _load_params(params_path)
    try:
        bit_list = [int(b) for b in bits.split(",") if b.strip()]
    except ValueError:
        _fail(EXIT_INPUT, f"bad --bits {bits!r}")
    if not bit_list:
        _fail(EXIT_INPUT, "empty --bits grid")
    if not all(1 <= b <= MAX_BITS for b in bit_list):
        _fail(EXIT_INPUT, f"--bits must each be between 1 and {MAX_BITS}")
    with _exits("--iprog: "):  # a current below the write threshold
        results = [write_sim_trials(b, iprog * 1e-6, params, trials=trials,
                                    t_max=tmax * 1e-6, seed=seed)
                   for b in bit_list]
    rows = []
    for b, r in zip(bit_list, results):
        rows.append({
            "bits": b,
            "i_prog_uA": iprog,
            "t_max_us": tmax,
            "trials": trials,
            "seed": seed,
            "mean_error": r["mean_error"],
            "p95_error": r["p95_error"],
        })
        click.echo(f"bits={b} mean_error={r['mean_error']:.4f} "
                   f"p95={r['p95_error']:.4f}")
    _atomic_write(output, [_csv(rows)])


if __name__ == "__main__":
    main()
