"""Golden artifacts: identical commands write byte-identical files across
changes to the code, not only between two runs of the same code.

Each command below runs in-process through `smtl.cli.main`, and every file
it writes is compared by sha256 against `golden_artifacts.json`. The two
`report_mc.json` reports depend on the random streams: their error counts
come from the vectors `tlg.input_rows` draws and the conductances
`evaluate.programmed` draws. c17's counts 15 failing vectors of 30, so a
change to either stream shows in its bytes. The other artifacts do not
depend on a stream: a sigma=0 report holds 0 errors and power does not
depend on the vectors. A change that alters one of these files on purpose
must say so and record the new hashes.
"""

import hashlib
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from smtl.cli import main

HERE = Path(__file__).resolve().parent
BENCH_DIR = HERE.parent / "benchmarks"
GOLDEN = HERE / "golden_artifacts.json"

SWEEPS = (("dv", "25,50,100"), ("i_threshold", "1,2,4"),
          ("subarray_dim", "16,32"), ("k", "1,2,3"))


def commands(bench):
    """(artifact, argv) for each command, in the order they must run."""
    name = Path(bench).stem
    evaluate = ["evaluate", "--mapped", "mapped.json", "--sigma", "0",
                "--report", "report.json"]
    if name == "c17":
        evaluate += ["--vectors", "32"]
    steps = [
        ("tln.json", ["synth", "--bench", bench, "-o", "tln.json"]),
        ("tln_f3.json", ["synth", "--bench", bench, "--fanin", "3",
                         "--wmax", "4", "-o", "tln_f3.json"]),
        ("mapped.json", ["map", "--tln", "tln.json", "-o", "mapped.json"]),
        ("mapped_b1.json", ["map", "--tln", "tln.json", "--blocks", "1",
                            "--cols", "32", "-o", "mapped_b1.json"]),
        ("mapped_f3.json", ["map", "--tln", "tln_f3.json",
                            "--levels-per-stage", "3", "--rows", "16",
                            "-o", "mapped_f3.json"]),
        ("report.json", evaluate),
    ]
    # c17 draws 30 of its 32 rows, and 15 of them fail at sigma 0.2
    mc = (["--sigma", "0.2", "--vectors", "30", "--seed", "4"]
          if name == "c17" else
          ["--sigma", "0.05", "--vectors", "5000", "--seed", "3"])
    steps.append(("report_mc.json", ["evaluate", "--mapped", "mapped.json",
                                     *mc, "--report", "report_mc.json"]))
    for param, grid in SWEEPS:
        out = f"sweep_{param}.csv"
        argv = ["sweep", "--mapped", "mapped.json", "--param", param,
                "--grid", grid, "-o", out]
        if param == "k":
            argv += ["--tln", "tln.json"]
        steps.append((out, argv))
    return name, steps


def artifact_hashes(bench, workdir):
    """Run `commands(bench)` in `workdir`; {"<bench>/<artifact>": sha256}."""
    name, steps = commands(bench)
    runner = CliRunner()
    out = {}
    with runner.isolated_filesystem(temp_dir=workdir):
        for artifact, argv in steps:
            r = runner.invoke(main, argv)
            assert r.exit_code == 0, (argv, r.output)
            data = Path(artifact).read_bytes()
            out[f"{name}/{artifact}"] = hashlib.sha256(data).hexdigest()
    return out


@pytest.mark.parametrize("bench", ["c17", "c432_like"])
def test_artifacts_match_the_recorded_hashes(bench, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    got = artifact_hashes(str(BENCH_DIR / f"{bench}.bench"), tmp_path)
    want = {k: v for k, v in golden.items() if k.startswith(f"{bench}/")}
    assert sorted(got) == sorted(want)
    changed = [k for k in got if got[k] != want[k]]
    assert not changed, f"artifacts changed: {changed}"
