"""Run a script in a fresh interpreter, for tests of what a process-wide
setting (BLAS threads, numpy's SIMD dispatch) does to the package's bits."""

import os
import subprocess
import sys
from pathlib import Path

import landausim


def run_child(script: str, **env_extra) -> subprocess.CompletedProcess:
    src = str(Path(landausim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p), **env_extra)
    return subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env)


def avx512_dispatch_targets():
    """This numpy's AVX-512 dispatch targets that the CPU runs, if any."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:
        return []
    return [t for t in __cpu_dispatch__
            if ("AVX512" in t or t == "X86_V4") and __cpu_features__.get(t)]
