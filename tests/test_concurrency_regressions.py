"""Regression tests for the lock-discipline fixes flagged by repro-lint.

Two shared-state classes had check-then-act races on their lazy
construction paths: ``WorkerPool.executor`` (two threads could each
build an executor, stranding one unclosed) and ``Database.worker_pool``
(two sessions could each install a pool for the same shape).  Each
test hammers the lazy path from many threads through a barrier and
asserts exactly-once construction.
"""

import threading

import pytest

from repro.database import Database
from repro.spatial.partition import WorkerPool

THREADS = 8


def hammer(fn):
    """Run ``fn`` from THREADS threads released together; return results."""
    barrier = threading.Barrier(THREADS)
    results = [None] * THREADS
    errors = []

    def worker(i):
        barrier.wait()
        try:
            results[i] = fn()
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(THREADS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors
    return results


def test_worker_pool_lazy_executor_is_created_once():
    pool = WorkerPool(workers=2, kind="thread")
    try:
        executors = hammer(pool.executor)
        assert all(ex is executors[0] for ex in executors)
    finally:
        pool.close()


def test_worker_pool_close_then_executor_raises():
    pool = WorkerPool(workers=2, kind="thread")
    pool.close()
    with pytest.raises(RuntimeError):
        pool.executor()


def test_database_worker_pool_get_or_create_is_atomic():
    db = Database()
    try:
        pools = hammer(lambda: db.worker_pool(2, kind="thread"))
        assert all(p is pools[0] for p in pools)
        assert len(db._pools) == 1
    finally:
        db.close()


def test_database_distinct_shapes_get_distinct_pools():
    db = Database()
    try:
        a = db.worker_pool(2, kind="thread")
        b = db.worker_pool(3, kind="thread")
        assert a is not b
        assert db.worker_pool(2, kind="thread") is a
    finally:
        db.close()

