"""Environment fingerprint recorded with every benchmark result.

A timing is only comparable with another taken under the same commit,
CPU budget, BLAS build and thread count, and native kernel build; this
module collects those facts.  It reads only the checkout and the
interpreter, never the network.
"""

from __future__ import annotations

import hashlib
import os
import platform
import sys
from pathlib import Path

#: Thread variables pinned to 1 for this process and every process it starts.
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def pin_threads() -> None:
    """Pin BLAS/OpenMP pools to one thread; call before numpy is imported.

    Child processes inherit the variables, so the server replicas and the
    memory-pass child run with the same budget.
    """
    for name in THREAD_VARIABLES:
        os.environ[name] = "1"


def git_commit(root: Path) -> str | None:
    """Commit of a git checkout, read from ``.git`` without running git."""
    git_dir = root / ".git"
    try:
        head = (git_dir / "HEAD").read_text().strip()
        if not head.startswith("ref:"):
            return head
        ref = head.split(None, 1)[1]
        loose = git_dir / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git_dir / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except (OSError, IndexError):
        return None
    return None


def source_digest(root: Path) -> str:
    """SHA-256 over the program's sources (paths and bytes, sorted).

    Identifies the code under test when the checkout is not a git
    repository.
    """
    digest = hashlib.sha256()
    source = root / "src"
    for path in sorted(source.rglob("*")):
        if path.suffix in (".py", ".c") and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(source)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def blas_build() -> dict:
    """numpy's BLAS/LAPACK build as numpy reports it."""
    import numpy

    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        return {"numpy": numpy.__version__}
    blas = deps.get("blas", {})
    return {
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
    }


def native_build() -> dict:
    """``repro.native.build_info()`` plus the SHA-256 of the loaded library."""
    from repro import native

    info = dict(native.build_info())
    library = info.get("library")
    if library:
        info["library_sha256"] = hashlib.sha256(Path(library).read_bytes()).hexdigest()
        info["library"] = Path(library).name
    return info


def cpu_jiffies() -> list[int]:
    """Aggregate CPU time counters from ``/proc/stat`` (user ... steal)."""
    try:
        with open("/proc/stat") as stat:
            return [int(field) for field in stat.readline().split()[1:9]]
    except (OSError, ValueError):
        return []


def steal_share(before: list[int], after: list[int]) -> float | None:
    """Share of CPU time the hypervisor took from this machine in between.

    A high share means other tenants competed for the CPUs while the run
    measured, so its timings are slower than the code alone explains.
    """
    if len(before) < 8 or len(after) < 8:
        return None
    deltas = [b - a for a, b in zip(before, after)]
    return deltas[7] / sum(deltas) if sum(deltas) else 0.0


def fingerprint(root: Path) -> dict:
    """Everything that decides whether two results are comparable."""
    try:
        affinity = sorted(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        affinity = None
    return {
        "commit": git_commit(root),
        "source_sha256": source_digest(root),
        "cpu_count": os.cpu_count(),
        "affinity": affinity,
        "threads": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "blas": blas_build(),
        "native": native_build(),
    }
