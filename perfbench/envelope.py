"""The host and configuration every run records next to its numbers."""

from __future__ import annotations

import os
import platform
import shutil
import subprocess

#: Shard processes the sharded front door's throughput gate runs with.
SHARD_GATE_SHARDS = 4


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _first_line(argv, cwd=None) -> str | None:
    try:
        done = subprocess.run(argv, cwd=cwd, capture_output=True, text=True,
                              timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = done.stdout.strip().splitlines()
    return lines[0] if done.returncode == 0 and lines else None


def _compiler() -> str:
    cc = os.environ.get("CC", "cc")
    path = shutil.which(cc)
    if path is None:
        return f"absent ({cc} not on PATH)"
    return _first_line([path, "--version"]) or f"{path} (version unknown)"


def _git_sha(root) -> str:
    if not (root / ".git").exists() or shutil.which("git") is None:
        return "unavailable (not a git checkout)"
    return _first_line(["git", "rev-parse", "HEAD"], cwd=root) or "unavailable"


def unmeasured(cores: int) -> list[dict]:
    """Gates this benchmark does not exercise, each with its reason.

    They are listed on every run, never omitted and never shown as
    passing.
    """
    if cores < SHARD_GATE_SHARDS + 1:
        shard_reason = (f"{SHARD_GATE_SHARDS} shard processes plus the client "
                        f"need {SHARD_GATE_SHARDS + 1} cores; this host has "
                        f"{cores}")
    else:
        shard_reason = "no workload drives ShardedSolverService yet"
    return [
        {"gate": "sharded front door throughput (>= 2x RPS at "
                 f"{SHARD_GATE_SHARDS} shards)",
         "status": "unmeasured", "reason": shard_reason},
        {"gate": "fleet simulator", "status": "unmeasured",
         "reason": "not a request path; out of scope"},
    ]


def describe(root, workload: str, seed: int, trace: bool) -> dict:
    """The envelope: host, toolchain, configuration and this run's seed."""
    import numpy
    try:
        import cffi
        cffi_version = cffi.__version__
    except ImportError:
        cffi_version = "absent"
    cores = os.cpu_count() or 1
    usable = (len(os.sched_getaffinity(0))
              if hasattr(os, "sched_getaffinity") else cores)
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "cores": cores,
        "usable_cores": usable,
        "cpu_model": _cpu_model(),
        "c_compiler": _compiler(),
        "cffi": cffi_version,
        "repro_jit": os.environ.get("REPRO_JIT", "1"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_sha": _git_sha(root),
        "service": "SolverService(mode='thread', workers=1, algorithm='auto')",
        "unmeasured": unmeasured(cores),
    }
