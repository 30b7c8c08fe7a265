"""Keyed, order-independent random streams.

Every stochastic routine takes a RandomStream. A stream is identified by a
master seed plus a path of spawn indices; the generator it yields is a Philox
counter-based bit generator keyed through numpy's SeedSequence. Two
consequences the rest of the laboratory relies on:

* identical (seed, path) always produces bit-identical draws, regardless of
  which worker evaluates it or in which order tasks complete;
* sibling streams (different spawn indices) are statistically independent, so
  replicas and per-task streams can be merged associatively.

``keyed_map`` runs such tasks on one thread budget: pool workers, each with
single-threaded BLAS.
"""
from __future__ import annotations

import ctypes
import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Sequence, TypeVar

import numpy as np

T = TypeVar("T")
U = TypeVar("U")

WORKERS_ENV = "SMALLBALL_WORKERS"
# (get, set) thread-count symbols of the OpenBLAS builds numpy links
OPENBLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@dataclass(frozen=True)
class RandomStream:
    """A reproducible random stream keyed by (seed, spawn path)."""

    seed: int
    path: tuple[int, ...] = field(default=())

    def spawn(self, index: int) -> "RandomStream":
        """Child stream; children with distinct indices are independent."""
        return RandomStream(self.seed, self.path + (int(index),))

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        ss = np.random.SeedSequence(self.seed, spawn_key=self.path)
        return np.random.Generator(np.random.Philox(ss))


def worker_count() -> int:
    """Pool width: SMALLBALL_WORKERS when set (a value that is not an
    integer counts as 1), else the CPUs this process may run on. It never
    affects results, only speed."""
    raw = os.environ.get(WORKERS_ENV, "").strip()
    if not raw:
        try:
            return len(os.sched_getaffinity(0))
        except AttributeError:  # no affinity masks on this platform
            return os.cpu_count() or 1
    try:
        k = int(raw)
    except ValueError:
        return 1
    return max(1, k)


@functools.cache
def _openblas_threads() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """(get, set) for the thread count of the OpenBLAS numpy runs on, or
    None when numpy links another BLAS. Looked up once, on first use, in the
    libraries numpy's core extension loaded."""
    try:
        from numpy._core import _multiarray_umath

        lib = ctypes.CDLL(_multiarray_umath.__file__)
    except (ImportError, OSError):
        return None
    for get_name, set_name in OPENBLAS_SYMBOLS:
        try:
            get, set_ = getattr(lib, get_name), getattr(lib, set_name)
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


class _SingleThreadedBlas:
    """Holds numpy's OpenBLAS at one thread while any pool runs; pools may
    nest or overlap, and the last to finish restores the count the first
    one found. The thread count is process-wide, hence one instance."""

    def __init__(self):
        self._lock = threading.Lock()
        self._active = 0
        self._saved = 0

    @contextmanager
    def held(self):
        blas = _openblas_threads()
        if blas is None:
            yield
            return
        get, set_ = blas
        with self._lock:
            if self._active == 0:
                self._saved = get()
                set_(1)
            self._active += 1
        try:
            yield
        finally:
            with self._lock:
                self._active -= 1
                if self._active == 0:
                    set_(self._saved)


_BLAS = _SingleThreadedBlas()


def keyed_map(fn: Callable[[T], U], tasks: Sequence[T], workers: int | None = None) -> list[U]:
    """Map fn over tasks on a thread pool of at most one worker per task,
    preserving task order in the result; when tasks raise, the first of
    them in task order is re-raised.

    Each task must carry its own RandomStream (or be deterministic); the pool
    size therefore cannot change any value, only wall time. While a pool of
    two or more workers runs, numpy's OpenBLAS runs one thread per call, so
    workers do not share cores with BLAS threads; one worker runs the tasks
    in the calling thread with BLAS as the environment set it.
    """
    if workers is None:
        workers = worker_count()
    workers = min(workers, len(tasks))
    if workers <= 1:
        return [fn(t) for t in tasks]
    with _BLAS.held(), ThreadPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, tasks))
