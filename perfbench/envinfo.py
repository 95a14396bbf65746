"""Environment record printed with every benchmark result.

CPU model and cache sizes come from /proc/cpuinfo and sysfs, read only;
anything unreadable is reported as ``None``.
"""

from __future__ import annotations

import glob
import os
import platform

# thread-count variables the benchmark pins to 1, read back into the record
THREAD_VARS = (
    "HMHD_THREADS",
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _cpu_model():
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.partition(":")[2].strip()
    return platform.processor() or None


def _size_bytes(text):
    units = {"K": 1024, "M": 1024**2, "G": 1024**3}
    if not text:
        return None
    if text[-1] in units:
        return int(text[:-1]) * units[text[-1]]
    return int(text)


def _caches():
    caches = []
    for d in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind = _read(f"{d}/level"), _read(f"{d}/type")
        size = _size_bytes(_read(f"{d}/size"))
        if level and kind and size:
            caches.append({"level": int(level), "type": kind, "bytes": size})
    return caches


def _git_commit(root):
    head = _read(os.path.join(root, ".git", "HEAD"))
    if head is None:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    commit = _read(os.path.join(root, ".git", ref))
    if commit:
        return commit
    for line in (_read(os.path.join(root, ".git", "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def _fft_backend():
    try:
        import scipy.fft._pocketfft  # noqa: F401
    except ImportError:
        return "scipy.fft"
    return "scipy.fft (pocketfft)"


def environment(root, workload, seed) -> dict:
    import numpy
    import scipy

    caches = _caches()
    l2 = next((c["bytes"] for c in caches if c["level"] == 2), None)
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "fft_backend": _fft_backend(),
        "cpu_model": _cpu_model(),
        "caches": caches,
        "git_commit": _git_commit(root),
        "workload": workload.name,
        "seed": seed,
        "steps": getattr(workload, "steps", None),
        "state_bytes_computed": workload.state_bytes,
        "l2_bytes": l2,
    }
