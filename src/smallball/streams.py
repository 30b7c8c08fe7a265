"""Keyed, order-independent random streams.

Every stochastic routine takes a RandomStream. A stream is identified by a
master seed plus a path of spawn indices; the generator it yields is a Philox
counter-based bit generator keyed through numpy's SeedSequence. Two
consequences the rest of the laboratory relies on:

* identical (seed, path) always produces bit-identical draws, regardless of
  which worker evaluates it or in which order tasks complete;
* sibling streams (different spawn indices) are statistically independent, so
  replicas and per-task streams can be merged associatively.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence, TypeVar

import numpy as np

T = TypeVar("T")
U = TypeVar("U")

WORKERS_ENV = "SMALLBALL_WORKERS"


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


def keyed_map(fn: Callable[[T], U], tasks: Sequence[T], workers: int | None = None) -> list[U]:
    """Map fn over tasks on a thread pool of at most one worker per task,
    preserving task order in the result; when tasks raise, the first of
    them in task order is re-raised.

    Each task must carry its own RandomStream (or be deterministic); the pool
    size therefore cannot change any value, only wall time.
    """
    if workers is None:
        workers = worker_count()
    workers = min(workers, len(tasks))
    if workers <= 1:
        return [fn(t) for t in tasks]
    with ThreadPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, tasks))
