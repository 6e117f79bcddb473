"""Shared fixtures for the benchmark harness.

Every figure/table of the paper's evaluation section has a bench module
here. The expensive part — solving the suite and customizing every
problem — runs once per session and is shared.

Environment knobs:

* ``REPRO_BENCH_COUNT`` — problems per family (default 3; the paper's
  full suite is 20, i.e. 120 problems).
* ``REPRO_BENCH_SCALE`` — multiplier on the largest instance sizes.
"""

import os
import platform
import shutil
import subprocess

import pytest

from repro.experiments import run_suite


def bench_count() -> int:
    return int(os.environ.get("REPRO_BENCH_COUNT", "3"))


def bench_scale() -> float:
    return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def host_info() -> dict:
    """The host a ``BENCH_*.json`` number was measured on."""
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    cc = shutil.which(os.environ.get("CC", "cc"))
    compiler = "absent"
    if cc is not None:
        try:
            out = subprocess.run([cc, "--version"], capture_output=True,
                                 text=True, timeout=10).stdout
            compiler = out.splitlines()[0] if out else cc
        except (OSError, subprocess.TimeoutExpired):
            compiler = cc
    return {"cpu_cores": os.cpu_count() or 1, "cpu_model": model,
            "c_compiler": compiler,
            "repro_jit": os.environ.get("REPRO_JIT", "1")}


@pytest.fixture(scope="session")
def suite_records():
    """One pass of the experiment runner over the (reduced) suite."""
    return run_suite(count=bench_count(), scale=bench_scale())


def print_rows(title, rows, columns=None):
    from repro.experiments import format_table
    print()
    print(format_table(rows, columns=columns, title=title))
