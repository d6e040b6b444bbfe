"""Process-safe work distribution, extracted from the sweep runner.

Two building blocks shared by :class:`~repro.lab.runner.SweepRunner`
and the multi-tenant sweep service (:mod:`repro.serve`):

- :class:`ShardPool` — fan picklable tasks out to one
  ``ProcessPoolExecutor`` and stream results back as they complete.
  The sweep runner runs both phases of a ``--jobs N`` sweep on one
  (characterisation, then the units), and ``_characterize_impl(jobs>1)``
  runs its per-program batches on one, so the package starts its worker
  processes in one place with one discipline — worker initialisation,
  worker-count capping, completion-order streaming, eager error
  propagation.
- :class:`BoundedJobQueue` — a thread-safe bounded FIFO with
  fingerprint-keyed deduplication.  The admission-control half of the
  service: submitting a key already queued or running returns the
  existing entry instead of enqueueing twice (two tenants submitting
  the same grid share one computation), and submissions past the bound
  raise :class:`QueueFull` (the HTTP layer turns that into 429
  backpressure).

Both are engine-agnostic: nothing here imports the simulator stack, so
the queue discipline is testable without characterising anything.
"""

import threading
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor, as_completed

__all__ = ["BoundedJobQueue", "QueueFull", "ShardPool"]


class ShardPool:
    """Stream task results from one process pool in completion order.

    The workers start on the first :meth:`run` that has tasks and serve
    every later call, so a caller that runs several phases forks once
    and its workers keep their in-process caches (decoded programs,
    ISS results, built designs) from one phase to the next.  Forking
    inside :meth:`run` also keeps the workers' start-up inside the call
    that waits for them.  Use the pool as a context manager: leaving the
    block shuts the workers down.

    Parameters
    ----------
    jobs:
        Maximum worker processes; the pool is additionally capped at the
        first call's task count, so tiny batches never spawn idle
        workers.
    initializer / initargs:
        Per-worker-process initialisation (e.g. attach the shared
        artifact store), exactly as ``ProcessPoolExecutor`` takes them.
    """

    def __init__(self, jobs, initializer=None, initargs=()):
        self.jobs = max(1, int(jobs))
        self.initializer = initializer
        self.initargs = initargs
        self._executor = None

    def run(self, fn, tasks):
        """Yield ``fn(task)`` results as workers finish them.

        A task that raises re-raises here on first observation; closing
        the generator early (an error in the caller's loop) cancels the
        tasks that have not started.
        """
        tasks = list(tasks)
        if not tasks:
            return
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=min(self.jobs, len(tasks)),
                initializer=self.initializer,
                initargs=self.initargs,
            )
        futures = [self._executor.submit(fn, task) for task in tasks]
        try:
            for future in as_completed(futures):
                yield future.result()
        finally:
            for future in futures:
                future.cancel()

    def close(self):
        """Shut the workers down (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown(cancel_futures=True)
            self._executor = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


class QueueFull(Exception):
    """The bounded queue is at capacity — apply backpressure."""


class BoundedJobQueue:
    """Thread-safe bounded FIFO with fingerprint deduplication.

    Entries are arbitrary objects filed under a caller-chosen ``key``
    (the service uses ``kind:grid-fingerprint``).  An entry stays
    "active" — and keeps deduplicating new submissions onto itself —
    from :meth:`submit` until :meth:`finish`; :meth:`claim` hands queued
    entries to workers in FIFO order without ending their dedup window.
    """

    def __init__(self, limit):
        if limit < 1:
            raise ValueError("queue limit must be at least 1")
        self.limit = int(limit)
        self._lock = threading.Lock()
        self._active = OrderedDict()        # key -> entry (queued/running)
        self._pending = OrderedDict()       # key -> entry (queued only)

    def submit(self, key, make_entry):
        """File ``make_entry()`` under ``key``; returns
        ``(entry, deduped)``.

        A submission whose key is already active returns the existing
        entry with ``deduped=True`` and consumes no capacity.  A fresh
        submission past the bound raises :class:`QueueFull`.
        """
        with self._lock:
            existing = self._active.get(key)
            if existing is not None:
                return existing, True
            if len(self._active) >= self.limit:
                raise QueueFull(
                    f"job queue is full ({self.limit} active jobs)"
                )
            entry = make_entry()
            self._active[key] = entry
            self._pending[key] = entry
            return entry, False

    def claim(self):
        """Pop the oldest queued entry for execution (``None`` when no
        entry is waiting).  The entry stays active — still deduplicating
        — until :meth:`finish`."""
        with self._lock:
            if not self._pending:
                return None
            _, entry = self._pending.popitem(last=False)
            return entry

    def finish(self, key):
        """Retire ``key``: frees its capacity and ends its dedup window
        (later submissions of the same key create a fresh entry)."""
        with self._lock:
            self._pending.pop(key, None)
            return self._active.pop(key, None)

    def __len__(self):
        with self._lock:
            return len(self._active)

    @property
    def queued(self):
        """Entries waiting to be claimed."""
        with self._lock:
            return len(self._pending)
