import os
import sys
import threading
import time

import numpy as np
import pytest

from smallball import streams
from smallball.streams import RandomStream, keyed_map, worker_count


def test_same_key_bit_identical():
    a = RandomStream(42, (3, 1)).generator().standard_normal(64)
    b = RandomStream(42, (3, 1)).generator().standard_normal(64)
    assert np.array_equal(a, b)


def test_generator_is_fresh_each_call():
    s = RandomStream(7)
    assert np.array_equal(s.generator().standard_normal(8), s.generator().standard_normal(8))


def test_spawn_children_differ():
    s = RandomStream(42)
    a = s.spawn(0).generator().standard_normal(64)
    b = s.spawn(1).generator().standard_normal(64)
    parent = s.generator().standard_normal(64)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, parent)


def test_spawn_paths_compose():
    assert RandomStream(5).spawn(2).spawn(9).path == (2, 9)
    # indices are coerced to int so numpy integers key the same stream
    assert RandomStream(5).spawn(np.int64(2)).path == (2,)


def test_sibling_streams_look_independent():
    s = RandomStream(123)
    a = s.spawn(0).generator().standard_normal(20_000)
    b = s.spawn(1).generator().standard_normal(20_000)
    corr = float(np.corrcoef(a, b)[0, 1])
    assert abs(corr) < 0.03


def test_keyed_map_preserves_order():
    tasks = list(range(40))
    serial = keyed_map(lambda t: t * t, tasks, workers=1)
    pooled = keyed_map(lambda t: t * t, tasks, workers=8)
    assert serial == pooled == [t * t for t in tasks]


def test_keyed_map_streams_invariant_to_pool_size():
    tasks = [RandomStream(9).spawn(i) for i in range(16)]

    def draw(stream):
        return float(stream.generator().standard_normal())

    assert keyed_map(draw, tasks, workers=1) == keyed_map(draw, tasks, workers=6)


def test_keyed_map_raises_the_first_failure_in_task_order():
    def fn(t):
        if t in (1, 3):
            if t == 1:
                time.sleep(0.05)  # task 3 fails first in wall time
            raise ValueError(f"task {t}")
        return t

    for workers in (1, 2, 4):
        with pytest.raises(ValueError, match="task 1"):
            keyed_map(fn, list(range(5)), workers=workers)


@pytest.mark.parametrize(
    "raw, expected",
    [("8", 8), ("garbage", 1), ("0", 1), ("-3", 1)],
)
def test_worker_count_parsing(monkeypatch, raw, expected):
    monkeypatch.setenv("SMALLBALL_WORKERS", raw)
    assert worker_count() == expected


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no affinity masks")
@pytest.mark.parametrize("raw", [None, "", " "])
def test_worker_count_defaults_to_the_affinity_mask(monkeypatch, raw):
    if raw is None:
        monkeypatch.delenv("SMALLBALL_WORKERS", raising=False)
    else:
        monkeypatch.setenv("SMALLBALL_WORKERS", raw)
    assert worker_count() == len(os.sched_getaffinity(0))


# -- one BLAS thread per pool worker ----------------------------------------------

NUMPY_OPENBLAS = "openblas" in np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]


@pytest.fixture
def blas_threads():
    """The getter of numpy's OpenBLAS thread count, with the count set to 2
    so that a limit to 1 shows, and restored afterwards."""
    if not NUMPY_OPENBLAS:
        pytest.skip("numpy does not run on OpenBLAS")
    blas = streams._openblas_threads()
    assert blas is not None  # a lost lookup would silently drop the limit
    get, set_ = blas
    before = get()
    set_(2)
    try:
        yield get
    finally:
        set_(before)


def test_pooled_tasks_run_single_threaded_blas(blas_threads):
    assert keyed_map(lambda t: blas_threads(), range(6), workers=3) == [1] * 6
    assert blas_threads() == 2


def test_blas_count_is_restored_after_a_failing_pool(blas_threads):
    def fn(t):
        if t == 2:
            raise ValueError("task 2")
        return t

    with pytest.raises(ValueError, match="task 2"):
        keyed_map(fn, range(5), workers=2)
    assert blas_threads() == 2


def test_one_worker_leaves_blas_alone(blas_threads):
    assert keyed_map(lambda t: blas_threads(), range(3), workers=1) == [2] * 3
    assert keyed_map(lambda t: blas_threads(), [0], workers=4) == [2]  # capped at 1 task


def test_pool_runs_without_openblas(blas_threads, monkeypatch):
    monkeypatch.setattr(streams, "_openblas_threads", lambda: None)
    assert keyed_map(lambda t: (t, blas_threads()), range(4), workers=2) == [
        (t, 2) for t in range(4)]
    assert blas_threads() == 2


def test_nested_and_overlapping_pools_restore_blas(blas_threads):
    # more workers than cores, pools inside pools, two callers at once, and
    # frequent thread switches: every pooled task sees 1, and the count is
    # back to 2 once all of them are done
    seen = []

    def inner(t):
        seen.append(blas_threads())
        return t

    def outer(t):
        return sum(keyed_map(inner, range(5), workers=3)) + t

    def caller(results):
        results.append(keyed_map(outer, range(6), workers=4))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = []
        threads = [threading.Thread(target=caller, args=(results,)) for _ in range(3)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=30)
        assert not any(th.is_alive() for th in threads)
    finally:
        sys.setswitchinterval(old)
    assert results == [[10 + t for t in range(6)]] * 3
    assert seen == [1] * 90
    assert blas_threads() == 2
