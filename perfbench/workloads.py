"""The benchmark's workloads and the checks applied to every operation.

Each workload has a `setup()` that builds its inputs (and, for
variation-mc, compiles them) and a `run_pass(ledger)` that executes its
operations back to back, one at a time, and returns the pass's figures.
Every operation is recorded in a `Ledger`; none is dropped. An operation
fails on a timeout, a non-zero exit, a raised exception or a failed
check, and an artifact that differs from the one the same operation wrote
in an earlier pass of the run marks the run incorrect.

Why each workload exists:

- compile-ladder: synth -> map -> evaluate(sigma=0) through the CLI on
  generated netlists at three doubling sizes plus c432_like. Collapse,
  reorder and split_fanout do nearly all the work and grow superlinearly;
  evaluation is a single sigma=0 check per netlist.
- variation-mc: two designs compiled during set-up, then Monte-Carlo
  tolerance, a sigma>0 report, parameter sweeps and the write loop.
  simulate_mapped does nearly all the work; synth and map run only in
  set-up.
- capacity-map: the only path through enforce_capacity/_rebuffer, mapped
  under a column budget stepping from non-binding to binding, each map
  under a fixed deadline. Binding budgets hang or fail to converge today,
  so its operations fail; it is run by hand and is not a BENCHMARK.json
  workload, whose operations must all succeed.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import signal
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

import click

from netgen import generate, netlist_hash
from smtl import cli, devices, evaluate
from smtl.mapping import MappedDesign

ROOT = Path(__file__).resolve().parent.parent
C432 = ROOT / "benchmarks" / "c432_like.bench"

XOR_SHARE = 0.1
GATES_PER_LAYER = 25

# A constant safety net so no operation can stall a run; capacity-map uses
# its own, shorter constant. Neither depends on any measurement.
OP_DEADLINE_S = 60.0
CAPACITY_DEADLINE_S = 2.0

# (gates, copies): every rung holds 1200 source gates, so a linear-time
# compiler would spend equal time per rung, and averaging several
# netlists per rung damps seed-to-seed differences in work. The top rung
# keeps a pass near 13 s on a 2-core host, so several passes fit one run.
LADDER = ((300, 4), (600, 2), (1200, 1))
EVAL_VECTORS = 10_000

MC_GATES = 400
# variation-mc's --seed drives the Monte-Carlo draws and the vectors; its
# generated design is fixed, because one random 400-gate design moves the
# buffer and routed-link counts by about 20% between seeds.
MC_DESIGN_SEED = "variation-mc"
MC_SIGMA_GRID = (0.0, 0.02, 0.04, 0.06, 0.08)
MC_SEEDS = 5
MC_VECTORS = 50_000
REPORT_SIGMA = 0.05
SWEEPS = (
    ("dv", (0.025, 0.05, 0.1, 0.2)),
    ("i_threshold", (1e-6, 2e-6, 4e-6)),
    ("subarray_dim", (16, 32, 64, 128)),
)
WRITE_BITS = (4, 6, 8)
WRITE_I_PROG = 10e-6

CAPACITY_GATES = 300
CAPACITY_COLS = (64, 32, 24, 16)   # blocks_per_stage=1; 64 does not bind

class DeadlineExceeded(BaseException):
    """Raised inside an operation when its fixed deadline passes.

    A BaseException so that no handler inside the program can swallow it.
    """


class CheckFailed(Exception):
    """An operation's output broke one of the benchmark's checks."""


class SetupFailed(Exception):
    """The workload's inputs could not be built or compiled."""


@contextlib.contextmanager
def deadline(seconds):
    def fire(signum, frame):
        raise DeadlineExceeded()

    previous = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class Ledger:
    """Every operation attempted in the timed passes and how it ended."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.outcomes = Counter()
        self.wrong = []
        self.errors = []
        self.digests = {}
        self.last_outcome = None
        self.busy_s = 0.0    # host seconds inside operations, harness excluded
        # the traced run replaces this with a span factory, so each
        # operation is a root span and the harness's own time shows
        self.span = lambda name: contextlib.nullcontext()

    @property
    def correct(self):
        return not self.wrong

    def record(self, key, outcome, elapsed, digest=None):
        """Count one operation; returns True when it succeeded."""
        self.busy_s += elapsed
        if outcome == "ok" and digest is not None:
            first = self.digests.setdefault(key, digest)
            if first != digest:
                outcome = "artifact differs between passes"
                self.wrong.append(f"{key}: {outcome}")
        self.attempted += 1
        self.failed += outcome != "ok"
        self.last_outcome = outcome
        self.outcomes[f"{key}: {outcome}"] += 1
        return outcome == "ok"

    def check(self, key, ok, message):
        if not ok:
            self.wrong.append(f"{key}: {message}")
            raise CheckFailed(message)


def digest(data):
    if not isinstance(data, bytes):
        data = json.dumps(data, sort_keys=True, default=_plain).encode()
    return hashlib.sha256(data).hexdigest()


def _plain(obj):
    if hasattr(obj, "tolist"):
        return obj.tolist()
    raise TypeError(f"cannot serialise {type(obj).__name__}")


def run_cli(args, seconds=OP_DEADLINE_S):
    """Run one `smtl` command in-process.

    Returns (outcome, elapsed seconds). The outcome is "ok", "timeout",
    "did not converge" (exit 3 from the capacity pass), or "exit N".
    """
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with deadline(seconds), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            cli.main(args, standalone_mode=False)
        code = 0
    except DeadlineExceeded:
        return "timeout", perf_counter() - start
    except SystemExit as e:
        code = e.code or 0
    except click.ClickException as e:
        code = e.exit_code
    elapsed = perf_counter() - start
    if code == 0:
        return "ok", elapsed
    if code == cli.EXIT_CAPACITY and "did not converge" in err.getvalue():
        return "did not converge", elapsed
    return f"exit {code}", elapsed


def cli_op(ledger, key, args, artifact, check=None, seconds=OP_DEADLINE_S):
    """A recorded CLI operation; returns (ok, elapsed, artifact bytes)."""
    elapsed, data = 0.0, None
    gc.collect()   # start each operation from a clean heap, as a new process
    try:
        with ledger.span(key):
            outcome, elapsed = run_cli(args, seconds)
        if outcome == "ok":
            data = Path(artifact).read_bytes()
            if check:
                check(data)
    except CheckFailed:
        return ledger.record(key, "check failed", elapsed), elapsed, None
    except Exception as e:  # a traceback from the program is a failure
        ledger.errors.append(f"{key}: {traceback.format_exc(limit=3)}")
        outcome = f"error {type(e).__name__}"
        return ledger.record(key, outcome, elapsed), elapsed, None
    return (ledger.record(key, outcome, elapsed, data and digest(data)),
            elapsed, data)


def call_op(ledger, key, fn, check):
    """A recorded library call; returns (ok, elapsed, result)."""
    gc.collect()
    start = perf_counter()
    elapsed, result = 0.0, None
    try:
        with deadline(OP_DEADLINE_S), ledger.span(key):
            result = fn()
        elapsed = perf_counter() - start
        check(result)
    except DeadlineExceeded:
        elapsed = perf_counter() - start
        return ledger.record(key, "timeout", elapsed), elapsed, None
    except CheckFailed:
        return ledger.record(key, "check failed", elapsed), elapsed, None
    except Exception as e:
        elapsed = elapsed or perf_counter() - start
        ledger.errors.append(f"{key}: {traceback.format_exc(limit=3)}")
        outcome = f"error {type(e).__name__}"
        return ledger.record(key, outcome, elapsed), elapsed, None
    return (ledger.record(key, "ok", elapsed, digest(result)), elapsed,
            result)


def _finite(*values):
    return all(isinstance(v, (int, float)) and math.isfinite(v)
               for v in values)


def _qor(report):
    return {
        "mapped_nodes": report["nodes"],
        "buffers": report["buffers"],
        "stages": report["delay"]["pipeline_depth"],
        "routed_links": report["links"]["routed"],
        "area_um2": report["area_um2"],
        "energy_pj": report["energy"] * 1e12,
    }


def _add_qor(total, report):
    for k, v in _qor(report).items():
        total[k] = total.get(k, 0) + v


def _sigma0_check(ledger, key):
    """Check for a sigma=0 evaluate report: no errors, some vectors."""
    def check(data):
        rep = json.loads(data)
        ledger.check(key, rep["vectors"] > 0, "sigma=0 report has no vectors")
        ledger.check(key, rep["errors"] == 0,
                     f"{rep['errors']} errors at sigma=0")
    return check


def new_figures():
    """A pass's figures: the harness turns these into metrics."""
    return {"gates": 0, "compile_s": 0.0, "vectors": 0, "sim_s": 0.0,
            "qor": {}, "timeouts": 0}


class Workload:
    name = ""

    def __init__(self, seed, workdir):
        self.seed = seed
        self.dir = Path(workdir)
        self.inputs = {}     # label -> (path, source gate count, hash)
        # (source gates, synth + map seconds) per set-up, where set-up
        # is the only place the workload compiles
        self.setup_compile = []

    def _add_generated(self, label, gates, seed=None):
        seed = f"{self.seed}:{label}" if seed is None else seed
        text = generate(gates, gates // GATES_PER_LAYER, XOR_SHARE, seed)
        path = self.dir / f"{label}.bench"
        path.write_text(text)
        self.inputs[label] = (path, gates, netlist_hash(text))

    def _add_c432(self):
        text = C432.read_text()
        n_gates = sum(1 for line in text.splitlines() if " = " in line)
        self.inputs["c432"] = (C432, n_gates, netlist_hash(text))

    def _path(self, label, suffix):
        return str(self.dir / f"{label}.{suffix}")

    def _synth(self, ledger, label):
        bench, _, _ = self.inputs[label]
        tln = self._path(label, "tln.json")
        return cli_op(ledger, f"{label}/synth",
                      ["synth", "--bench", str(bench), "--fanin", "4",
                       "-o", tln], tln)

    def _map(self, ledger, label, extra=(), key=None,
             seconds=OP_DEADLINE_S):
        mapped = self._path(label, "mapped.json")
        return cli_op(ledger, key or f"{label}/map",
                      ["map", "--tln", self._path(label, "tln.json"),
                       "--levels-per-stage", "2", *extra, "-o", mapped],
                      mapped, seconds=seconds)

    def _evaluate(self, ledger, label, key=None):
        key = key or f"{label}/evaluate"
        report = self._path(label, "report.json")
        mapped = self._path(label, "mapped.json")
        return cli_op(ledger, key,
                      ["evaluate", "--mapped", mapped,
                       "--sigma", "0", "--vectors", str(EVAL_VECTORS),
                       "--report", report],
                      report, check=_sigma0_check(ledger, key))

    def input_hashes(self):
        return {label: h for label, (_, _, h) in self.inputs.items()}


class CompileLadder(Workload):
    name = "compile-ladder"

    def setup(self):
        self.inputs = {}
        for gates, copies in LADDER:
            for c in range(copies):
                self._add_generated(f"gen{gates}-{c}", gates)
        self._add_c432()

    def run_pass(self, ledger):
        fig = new_figures()
        fig["rung_compile_s"] = {}
        for label, (_, gates, _) in self.inputs.items():
            ok, t_synth, _ = self._synth(ledger, label)
            if not ok:
                continue
            ok, t_map, _ = self._map(ledger, label)
            if not ok:
                continue
            fig["gates"] += gates
            fig["compile_s"] += t_synth + t_map
            if label.startswith("gen"):
                fig["rung_compile_s"].setdefault(str(gates), []).append(
                    t_synth + t_map)
            ok, t_eval, data = self._evaluate(ledger, label)
            if ok:
                rep = json.loads(data)
                fig["vectors"] += rep["vectors"]
                fig["sim_s"] += t_eval
                _add_qor(fig["qor"], rep)
        return fig


class CapacityMap(Workload):
    name = "capacity-map"

    def setup(self):
        self.inputs = {}
        self._add_generated(f"gen{CAPACITY_GATES}", CAPACITY_GATES)
        self._add_c432()
        for label in self.inputs:
            scratch = Ledger()
            if not self._synth(scratch, label)[0]:
                raise SetupFailed(f"synth of {label} failed: "
                                  f"{dict(scratch.outcomes)}")

    def run_pass(self, ledger):
        """One map per (netlist, column budget); a map that succeeds is
        checked at sigma=0. QoR comes from the non-binding budget."""
        fig = new_figures()
        fig["rungs"] = {}
        for label, (_, gates, _) in self.inputs.items():
            for cols in CAPACITY_COLS:
                key = f"{label}@{cols}"
                ok, t_map, _ = self._map(
                    ledger, label, ("--blocks", "1", "--cols", str(cols)),
                    key=f"{key}/map", seconds=CAPACITY_DEADLINE_S)
                fig["compile_s"] += t_map
                fig["rungs"][key] = ledger.last_outcome
                fig["timeouts"] += ledger.last_outcome == "timeout"
                if not ok:
                    continue
                fig["gates"] += gates
                ok, t_eval, data = self._evaluate(ledger, label,
                                                  key=f"{key}/evaluate")
                if ok:
                    rep = json.loads(data)
                    fig["vectors"] += rep["vectors"]
                    fig["sim_s"] += t_eval
                    if cols == CAPACITY_COLS[0]:
                        _add_qor(fig["qor"], rep)
        return fig


class VariationMC(Workload):
    name = "variation-mc"

    def setup(self):
        """Generate and compile both designs through the CLI."""
        self.inputs = {}
        self._add_generated(f"gen{MC_GATES}", MC_GATES, MC_DESIGN_SEED)
        self._add_c432()
        self.params = devices.DeviceParams.load()
        self.designs = {}
        gates_total, compile_s = 0, 0.0
        for label, (_, gates, _) in self.inputs.items():
            scratch = Ledger()
            ok, t_synth, _ = self._synth(scratch, label)
            ok, t_map, data = (self._map(scratch, label) if ok
                               else (False, 0.0, None))
            if not ok:
                raise SetupFailed(f"compile of {label} failed: "
                                  f"{dict(scratch.outcomes)}")
            gates_total += gates
            compile_s += t_synth + t_map
            self.designs[label] = MappedDesign.from_json(json.loads(data))
        self.setup_compile.append((gates_total, compile_s))

    def _mc_vectors(self, design):
        # the vector count variation_tolerance and full_report choose
        n = len(design.tln.inputs)
        return 2 ** n if n <= 20 and 2 ** n <= MC_VECTORS else MC_VECTORS

    def run_pass(self, ledger):
        fig = new_figures()
        fig["sigma_star"], fig["write_p95"] = {}, {}
        base = self.seed % 2 ** 31   # numpy generators refuse negative seeds
        seeds = tuple(MC_SEEDS * base + i for i in range(MC_SEEDS))
        p = self.params
        for label, design in self.designs.items():
            n_vec = self._mc_vectors(design)

            def tolerance(design=design):
                return evaluate.variation_tolerance(
                    design, MC_SIGMA_GRID, vectors_per_probe=MC_VECTORS,
                    seeds=seeds, vector_seed=base, params=p,
                    early_stop=False)

            def check_tolerance(res, key=f"{label}/tolerance"):
                sigma_star, curve = res
                ledger.check(key, n_vec > 0, "no vectors simulated")
                ledger.check(key, curve[0] == (0.0, 0),
                             f"sigma=0 probe reports {curve[0][1]} errors")
                ledger.check(key, all(0 <= e <= n_vec * len(seeds)
                                      for _, e in curve),
                             "error count out of range")
                ledger.check(key, sigma_star in MC_SIGMA_GRID,
                             "sigma* is not a grid point")

            ok, t, res = call_op(ledger, f"{label}/tolerance", tolerance,
                                 check_tolerance)
            if ok:
                fig["vectors"] += len(MC_SIGMA_GRID) * len(seeds) * n_vec
                fig["sim_s"] += t
                fig["sigma_star"][label] = res[0]

            def report(design=design):
                return evaluate.full_report(design, p, sigma=REPORT_SIGMA,
                                            vectors=MC_VECTORS,
                                            seed=base)

            def check_report(rep, key=f"{label}/report"):
                ledger.check(key, 0 < rep["vectors"] == n_vec,
                             "unexpected vector count")
                ledger.check(key, 0 <= rep["errors"] <= rep["vectors"],
                             "error count out of range")
                ledger.check(key, _finite(rep["energy"], rep["area_um2"])
                             and rep["energy"] > 0, "non-finite energy")

            ok, t, rep = call_op(ledger, f"{label}/report", report,
                                 check_report)
            if ok:
                fig["vectors"] += rep["vectors"]
                fig["sim_s"] += t
                _add_qor(fig["qor"], rep)

            for param, grid in SWEEPS:
                def sweep(design=design, param=param, grid=grid):
                    return evaluate.sweep(design, p, param, list(grid))

                def check_sweep(rows, key=f"{label}/sweep-{param}",
                                grid=grid):
                    ledger.check(key, len(rows) == len(grid), "missing rows")
                    ledger.check(key, all(
                        _finite(*(v for v in r.values()
                                  if not isinstance(v, str)))
                        for r in rows), "non-finite sweep value")

                call_op(ledger, f"{label}/sweep-{param}", sweep, check_sweep)

        for bits in WRITE_BITS:
            def write(bits=bits):
                return devices.write_sim_trials(bits, WRITE_I_PROG, p,
                                                seed=base)

            def check_write(res, key=f"write-sim/{bits}"):
                ledger.check(key, _finite(res["mean_error"], res["p95_error"])
                             and res["p95_error"] >= 0,
                             "non-finite write error")

            ok, _, res = call_op(ledger, f"write-sim/{bits}", write,
                                 check_write)
            if ok:
                fig["write_p95"][str(bits)] = res["p95_error"]
        return fig


WORKLOADS = {w.name: w for w in (CompileLadder, VariationMC, CapacityMap)}
