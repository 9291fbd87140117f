"""Numeric width and random-stream policy shared by every module.

Double precision is the default; single precision is opt-in via
``set_default_dtype("float32")`` or the ``ADRGNN_DTYPE`` environment
variable. All randomness flows through Philox counter-based generators so
masks, inits and sampled graphs reproduce bit-for-bit across platforms.
"""

from __future__ import annotations

import ctypes
import os
from typing import Optional

import numpy as np

_DTYPE = np.dtype(np.float64)


def set_default_dtype(name: str) -> None:
    """Select the working precision ("float64" or "float32")."""
    global _DTYPE
    if name not in ("float64", "float32"):
        raise ValueError(f"unsupported dtype {name!r}; use 'float64' or 'float32'")
    _DTYPE = np.dtype(name)


def default_dtype() -> np.dtype:
    return _DTYPE


if os.environ.get("ADRGNN_DTYPE"):
    set_default_dtype(os.environ["ADRGNN_DTYPE"])


# thread-count getters of OpenBLAS builds: plain, 64-bit-integer, and the
# prefixed builds that numpy and scipy wheels bundle
_OPENBLAS_THREAD_GETTERS = ("openblas_get_num_threads", "openblas_get_num_threads64_",
                            "scipy_openblas_get_num_threads",
                            "scipy_openblas_get_num_threads64_")


def blas_threads() -> Optional[int]:
    """The thread count of the OpenBLAS that numpy loaded, read back from the
    library itself; None where no loaded OpenBLAS answers (another BLAS, or
    a system whose mapped libraries cannot be listed)."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    # numpy's own copy first: scipy may load a second OpenBLAS of its own
    for path in sorted(paths, key=lambda p: ("numpy" not in p, p)):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _OPENBLAS_THREAD_GETTERS:
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                return int(getter())
    return None


def philox(seed: int, counter: int = 0) -> np.random.Generator:
    """Counter-based generator: same (seed, counter) gives the same stream
    on every platform."""
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(counter)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class SeedStream:
    """Hands out independent Philox generators from one master seed.

    Each call to :meth:`child` bumps an internal counter, so consumers
    (dropout masks, parameter inits, split shuffles) get decorrelated but
    fully reproducible streams.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._counter = 0

    def child(self) -> np.random.Generator:
        rng = philox(self.seed, self._counter)
        self._counter += 1
        return rng
