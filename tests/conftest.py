"""Shared fixtures: parsed benchmarks and synthesized/mapped designs.

Session-scoped because synthesis and mapping of the large benchmark are
the expensive steps; tests that mutate a network must deepcopy it first.
"""

import signal
from contextlib import contextmanager
from pathlib import Path

import pytest

from smtl.bench import load_bench
from smtl.devices import DeviceParams
from smtl.mapping import map_design
from smtl.synthesis import synthesize_tln

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture(scope="session")
def c17():
    return load_bench(BENCH_DIR / "c17.bench")


@pytest.fixture(scope="session")
def c432():
    return load_bench(BENCH_DIR / "c432_like.bench")


@pytest.fixture(scope="session")
def c17_tln(c17):
    return synthesize_tln(c17)


@pytest.fixture(scope="session")
def c432_tln(c432):
    return synthesize_tln(c432)


@pytest.fixture(scope="session")
def c17_mapped(c17, c17_tln):
    return map_design(c17_tln, c17)


@pytest.fixture(scope="session")
def c432_mapped(c432, c432_tln):
    return map_design(c432_tln, c432)


@pytest.fixture(scope="session")
def params():
    return DeviceParams()


@pytest.fixture
def say(request):
    """Write a line to the real terminal, past pytest's capture."""
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")

    def _say(line):
        if reporter is not None:
            reporter.write_line(line)
        else:  # pragma: no cover - non-terminal runs
            print(line)

    return _say


@pytest.fixture(scope="session")
def deadline():
    """`with deadline(seconds):` fails a block that runs past `seconds`
    instead of letting a non-terminating pass hang the suite."""

    @contextmanager
    def _deadline(seconds):
        def expired(signum, frame):
            raise TimeoutError(f"still running after {seconds} s")

        old = signal.signal(signal.SIGALRM, expired)
        signal.alarm(seconds)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)

    return _deadline
