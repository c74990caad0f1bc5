"""The benchmark's commands print exactly what the benchmark pins.

``perfbench/run.py`` fails every run whose stdout differs from a pinned
sha256, so an output change would otherwise first show up as a benchmark
with no successful runs.  The workloads, their hashes and the closed-form
Hilbert oracle are read from that file, never copied.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from cli_runner import invoke

RUN_PY = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while it executes;
    # no byte-code file is left in perfbench/
    sys.modules[spec.name] = module
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.dont_write_bytecode = write_bytecode
        del sys.modules[spec.name]


def run(args) -> bytes:
    result = invoke(args)
    assert result.exit_code == 0, result.output
    return result.stdout.encode()


def test_g2_hilbert_output_is_pinned(bench):
    workload = bench.WORKLOADS["g2-hilbert"]
    stdout = run(workload.args)
    assert hashlib.sha256(stdout).hexdigest() == workload.stdout_sha256
    assert bench.check_g2_hilbert(stdout) is None


def test_e6_output_is_pinned_cold_and_warm(bench, tmp_path):
    workload = bench.WORKLOADS["e6-warm"]
    args = [*workload.args, "--cache-dir", str(tmp_path)]
    cold = run(args)
    cache = sorted(p.name for p in tmp_path.iterdir())
    assert cache == ["partition_E6.json"]
    before = (tmp_path / cache[0]).stat()
    warm = run(args)
    after = (tmp_path / cache[0]).stat()
    for stdout in (cold, warm):
        assert hashlib.sha256(stdout).hexdigest() == workload.stdout_sha256
        assert bench.check_output(workload, stdout) is None
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
