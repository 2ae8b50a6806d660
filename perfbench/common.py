"""Result assembly, statistics and the run manifest shared by all workloads."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
#: Setups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Environment variables that set BLAS/OpenMP thread counts.
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


def timed_setup(build, repeats: int = SETUP_REPEATS):
    """Run ``build()`` ``repeats`` times; return the last fixture and the
    median wall time. Earlier fixtures are closed if they can be."""
    times, fixture = [], None
    for _ in range(repeats):
        if fixture is not None and hasattr(fixture, "close"):
            fixture.close()
        start = time.perf_counter()
        fixture = build()
        times.append(time.perf_counter() - start)
    return fixture, statistics.median(times)


class Report:
    """Metrics, output checks and request counts of one run."""

    def __init__(self) -> None:
        self.metrics: dict[str, dict] = {}
        self.checks: list[tuple[str, bool, str]] = []
        self.attempted = 0
        self.failed = 0
        #: Extra figures printed for people, not part of the JSON result.
        self.notes: dict[str, object] = {}

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    def count(self, attempted: int, failed: int) -> None:
        self.attempted += int(attempted)
        self.failed += int(failed)

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(ok for _, ok, _ in self.checks)

    def emit(self, manifest: dict, wanted: list[str]) -> None:
        """Print the human-readable lines, then the one-line JSON result.

        ``wanted`` names, in order, the metrics this mode reports.
        """
        for name, entry in self.metrics.items():
            print(f"metric {name} = {entry['value']:.6g} {entry['unit']}")
        for name, value in self.notes.items():
            print(f"note {name} = {value}")
        for name, ok, detail in self.checks:
            print(f"check {name}: {'ok' if ok else 'FAILED'} {detail}".rstrip())
        print("manifest " + json.dumps(manifest, sort_keys=True, default=str))
        metrics = {name: self.metrics[name] for name in wanted}
        print(json.dumps({
            "correct": self.correct,
            "attempted": max(self.attempted, 1),
            "failed": self.failed,
            "metrics": metrics,
        }))


def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest() -> str:
    """sha256 over every file under ``src/`` (path and bytes), so a run in
    a checkout without git history still names the code it measured."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def manifest(workload: str, seed: int, seconds: int, trace: bool, params: dict) -> dict:
    """What was run, on what: code version, inputs and environment."""
    # Only ask git inside a git checkout: a parent directory's repository
    # would otherwise name the wrong commit.
    sha = _git("rev-parse", "HEAD") if (ROOT / ".git").exists() else None
    status = _git("status", "--porcelain", "--", "src") if sha else None
    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        pass
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "params": params,
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "src_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "argv": sys.argv[1:],
    }
