"""The ``env`` block of a run record, and the process-level readings
(memory high-water marks) the metrics need."""

from __future__ import annotations

import os
import platform
import resource
import subprocess
from pathlib import Path

#: The checkout the benchmark runs in; everything it writes stays under
#: ``OUT``.
ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

#: Environment every child process runs with (noise rules).
CHILD_ENV = {"PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1"}


def child_env(tmp: Path) -> dict[str, str]:
    """``os.environ`` plus the noise-rule variables, ``src`` on the
    import path and ``tmp``, inside the checkout, as the temp dir."""
    env = dict(os.environ, **CHILD_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    env["TMPDIR"] = str(tmp)
    return env


def _commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
            capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def filesystem_of(path: Path) -> str:
    """Filesystem type of the mount holding ``path`` (Linux)."""
    best = ("", "unknown")
    try:
        mounts = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return "unknown"
    target = str(path.resolve())
    for line in mounts:
        fields = line.split()
        if len(fields) < 3:
            continue
        mount = fields[1]
        inside = target == mount or target.startswith(
            mount.rstrip("/") + "/")
        if inside and len(mount) > len(best[0]):
            best = (mount, fields[2])
    return best[1]


def env_block(workdir: Path) -> dict:
    """What the numbers were measured on; ``loadavg_end`` and
    ``noisy_host`` are filled in by :func:`close_env`."""
    import numpy

    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(),
        "platform": platform.platform(),
        "tmp_filesystem": filesystem_of(workdir),
        "hashseed": os.environ.get("PYTHONHASHSEED"),
        "omp_threads": os.environ.get("OMP_NUM_THREADS"),
        "loadavg_start": list(os.getloadavg()),
    }


def close_env(env: dict) -> dict:
    env["loadavg_end"] = list(os.getloadavg())
    cpus = env["cpus"] or 1
    env["noisy_host"] = max(env["loadavg_start"][0],
                            env["loadavg_end"][0]) > cpus
    return env


def self_peak_rss_mb() -> float:
    """``VmHWM`` of this process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def largest_child_peak_rss_mb() -> float:
    """``VmHWM`` of the largest child waited for so far (the largest
    pool worker, when the engine forked any)."""
    return resource.getrusage(
        resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def peak_rss_mb_of(pid: int) -> float:
    """``VmHWM`` of another live process, from ``/proc``."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")
