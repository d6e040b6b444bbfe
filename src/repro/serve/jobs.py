"""Job records, the registry, and tenant budget accounting.

A :class:`Job` is one submitted unit of service work — a scenario grid
plus a kind (``sweep``, ``evaluate`` or ``train``).  Its identity for
*deduplication* is ``kind:fingerprint``: the grid fingerprint digests
every axis (and any ``learned:`` model bytes), so two tenants
submitting the same experiment share one computation and one cached
result, while any difference in axes yields a distinct job.

The :class:`JobRegistry` owns the jobs and the dedup window (via
:class:`~repro.lab.jobqueue.BoundedJobQueue`), tracks per-job progress
events for the streaming endpoint, and enforces per-tenant frame-cache
budgets by running the store's LRU :meth:`~repro.lab.store.ArtifactStore.gc`
restricted to that tenant's frame paths.

Thread-safety: the registry is mutated from the server's event loop
*and* from job-watcher threads (pool event callbacks), so every
mutation takes the registry lock; read endpoints see consistent
snapshots via :meth:`Job.as_dict`.
"""

import itertools
import threading
import time
from dataclasses import dataclass, field

from repro.lab.jobqueue import BoundedJobQueue, QueueFull
from repro.obs import metrics as obs_metrics

__all__ = [
    "JOB_KINDS",
    "Job",
    "JobRegistry",
    "QueueFull",
    "frame_cache_name",
]

#: Service job kinds: ``sweep`` runs the orchestrated grid runner,
#: ``evaluate`` the in-process evaluation per design point, ``train``
#: the training-table generator (:meth:`Session.training_table`), and
#: ``stream`` the windowed streaming evaluation
#: (:class:`repro.stream.StreamingSession`) with per-window events.
JOB_KINDS = ("sweep", "evaluate", "train", "stream")

#: Job lifecycle states.
QUEUED, RUNNING, DONE, FAILED = "queued", "running", "done", "failed"


def frame_cache_name(kind, fingerprint):
    """Store name of a job's cached result frame.

    One name per (kind, grid fingerprint) — shared by every tenant, so
    the cache is deduplicated across the whole service (and across
    servers pointing at the same store root).
    """
    return f"serve:{kind}:{fingerprint}"


@dataclass
class Job:
    """One submitted service job and its observable state."""

    id: str
    kind: str
    key: str                    # dedup key: kind + grid fingerprint
    fingerprint: str
    grid: dict
    grid_name: str
    tenant: str                 # owning (first-submitting) tenant
    created: float = field(default_factory=time.time)
    state: str = QUEUED
    tenants: list = None
    started: float = None
    finished: float = None
    progress_done: int = 0
    progress_total: int = 0
    cached: bool = False        # served straight from the frame cache
    submissions: int = 1        # 1 + dedup hits while active
    simulations: int = 0        # pipeline simulations the job ran
    frame_bytes: int = 0
    result_name: str = None
    error: str = None
    #: Canonical stream options (``stream`` kind only; part of the
    #: fingerprint, shipped to the worker in the job payload).
    options: dict = None
    #: Progress/terminal events for the streaming endpoint.
    events: list = field(default_factory=list)

    def __post_init__(self):
        if self.tenants is None:
            self.tenants = [self.tenant]
        self.result_name = frame_cache_name(self.kind, self.fingerprint)

    @property
    def terminal(self):
        return self.state in (DONE, FAILED)

    def as_dict(self):
        """JSON-ready snapshot (the ``GET /v1/jobs/<id>`` payload)."""
        return {
            "id": self.id,
            "kind": self.kind,
            "fingerprint": self.fingerprint,
            "grid": self.grid_name,
            "tenant": self.tenant,
            "tenants": list(self.tenants),
            "state": self.state,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "progress": {
                "done": self.progress_done,
                "total": self.progress_total,
            },
            "cached": self.cached,
            "submissions": self.submissions,
            "simulations": self.simulations,
            "frame_bytes": self.frame_bytes,
            "error": self.error,
        }


class JobRegistry:
    """All jobs the server knows about, plus dedup and tenant budgets.

    Parameters
    ----------
    store:
        The shared :class:`~repro.lab.store.ArtifactStore`; cached
        result frames live in it and per-tenant budgets evict from it.
    queue_limit:
        Maximum simultaneously active (queued + running) jobs; past it
        :meth:`submit` raises :class:`QueueFull` (HTTP 429).
    tenant_budget_bytes:
        Optional per-tenant frame-cache budget; after every completed
        job the owning tenant's cached frames are LRU-evicted down to
        it (``None`` disables).
    on_change:
        Optional callback ``on_change(job)`` fired (under no lock)
        after every job mutation — the server uses it to wake event
        streams; may be called from watcher threads.
    """

    def __init__(self, store, queue_limit=16, tenant_budget_bytes=None,
                 on_change=None):
        self.store = store
        self.queue = BoundedJobQueue(queue_limit)
        self.tenant_budget_bytes = tenant_budget_bytes
        self.on_change = on_change
        self._lock = threading.Lock()
        self._jobs = {}                     # id -> Job
        self._by_key = {}                   # active key -> job id
        self._tenant_frames = {}            # tenant -> [frame name, ...]
        self._ids = itertools.count(1)

    # -- submission ----------------------------------------------------------

    def _new_job(self, kind, key, fingerprint, grid_dict, tenant,
                 options=None):
        job = Job(
            id=f"job-{next(self._ids)}",
            kind=kind,
            key=key,
            fingerprint=fingerprint,
            grid=grid_dict,
            grid_name=grid_dict.get("name", "sweep"),
            tenant=tenant,
            options=options,
        )
        return job

    def submit(self, kind, fingerprint, grid_dict, tenant, options=None):
        """Admit one submission; returns ``(job, deduped, cached)``.

        Order of precedence: an *active* job with the same key dedups
        (even if the frame cache also holds a result — the active job
        is fresher); otherwise a frame-cache hit answers instantly with
        a ``DONE`` job; otherwise a new job is queued (or
        :class:`QueueFull` is raised).
        """
        key = f"{kind}:{fingerprint}"
        with self._lock:
            active_id = self._by_key.get(key)
            if active_id is not None:
                job = self._jobs[active_id]
                job.submissions += 1
                if tenant not in job.tenants:
                    job.tenants.append(tenant)
                obs_metrics.inc("serve.deduped")
                self._changed(job)
                return job, True, False
        # cache probe outside the registry lock: store reads hit disk
        frame = self.store.load_frame(frame_cache_name(kind, fingerprint))
        with self._lock:
            # re-check: another thread may have admitted the key while
            # we probed the cache
            active_id = self._by_key.get(key)
            if active_id is not None:
                job = self._jobs[active_id]
                job.submissions += 1
                if tenant not in job.tenants:
                    job.tenants.append(tenant)
                obs_metrics.inc("serve.deduped")
                self._changed(job)
                return job, True, False
            if frame is not None:
                job = self._new_job(kind, key, fingerprint, grid_dict,
                                    tenant, options)
                job.state = DONE
                job.cached = True
                job.finished = time.time()
                job.events.append({"event": "done", "cached": True})
                self._jobs[job.id] = job
                obs_metrics.inc("serve.cache.hits")
                self._changed(job)
                return job, False, True
            # fresh work: consumes queue capacity (429 past the bound)
            def make():
                return self._new_job(kind, key, fingerprint, grid_dict,
                                     tenant, options)

            try:
                job, deduped = self.queue.submit(key, make)
            except QueueFull:
                obs_metrics.inc("serve.rejected")
                raise
            if not deduped:
                self._jobs[job.id] = job
                self._by_key[key] = job.id
                obs_metrics.inc("serve.submitted")
            self._changed(job)
            return job, deduped, False

    def claim(self):
        """Next queued job to execute (``None`` when idle)."""
        job = self.queue.claim()
        if job is not None:
            with self._lock:
                job.state = RUNNING
                job.started = time.time()
            self._changed(job)
        return job

    # -- lifecycle events (posted from watcher threads) ----------------------

    def progress(self, job, done, total):
        with self._lock:
            job.progress_done = int(done)
            job.progress_total = int(total)
            job.events.append(
                {"event": "progress", "done": int(done),
                 "total": int(total)}
            )
        self._changed(job)

    def window_event(self, job, info):
        """Append one rolling-window event (``stream`` jobs) for the
        streaming endpoint."""
        with self._lock:
            job.events.append({"event": "window", **dict(info)})
        self._changed(job)

    def complete(self, job, *, simulations=0, frame_bytes=0, cached=False):
        """Mark ``job`` done; retires its dedup window, accounts the
        frame bytes to the owning tenant and enforces that tenant's
        budget."""
        with self._lock:
            job.state = DONE
            job.cached = job.cached or cached
            job.finished = time.time()
            job.simulations = int(simulations)
            job.frame_bytes = int(frame_bytes)
            job.events.append({"event": "done", "cached": job.cached})
            frames = self._tenant_frames.setdefault(job.tenant, [])
            if job.result_name not in frames:
                frames.append(job.result_name)
            self._by_key.pop(job.key, None)
            # retire the dedup window atomically with the key removal
            # (lock order registry -> queue, same as submit)
            self.queue.finish(job.key)
        obs_metrics.inc("serve.completed")
        if simulations:
            obs_metrics.inc("serve.simulations", int(simulations))
        self._enforce_tenant_budget(job.tenant)
        self._changed(job)

    def fail(self, job, error):
        with self._lock:
            job.state = FAILED
            job.finished = time.time()
            job.error = str(error)
            job.events.append({"event": "failed", "error": str(error)})
            self._by_key.pop(job.key, None)
            self.queue.finish(job.key)
        obs_metrics.inc("serve.failed")
        self._changed(job)

    def _changed(self, job):
        if self.on_change is not None:
            self.on_change(job)

    # -- tenant budgets ------------------------------------------------------

    def _enforce_tenant_budget(self, tenant):
        """LRU-evict the tenant's cached frames down to the budget —
        the store's own :meth:`~repro.lab.store.ArtifactStore.gc`
        restricted to the tenant's frame paths (loads refresh mtimes,
        so recently served frames survive)."""
        if self.tenant_budget_bytes is None:
            return None
        with self._lock:
            names = list(self._tenant_frames.get(tenant, ()))
        if not names:
            return None
        paths = [self.store.frame_path(name) for name in names]
        result = self.store.gc(
            max_bytes=self.tenant_budget_bytes, paths=paths
        )
        if result.removed_files:
            obs_metrics.inc("serve.tenant.evictions", result.removed_files)
        return result

    def tenant_usage(self):
        """Per-tenant cached-frame footprint (bytes on disk now)."""
        with self._lock:
            frames = {
                tenant: list(names)
                for tenant, names in self._tenant_frames.items()
            }
        usage = {}
        for tenant, names in frames.items():
            total = 0
            for name in names:
                try:
                    total += self.store.frame_path(name).stat().st_size
                except OSError:
                    pass                      # evicted — costs nothing
            usage[tenant] = total
        return usage

    # -- queries -------------------------------------------------------------

    def events_since(self, job, cursor):
        """``(events[cursor:], terminal)`` of ``job``, read together
        under the lock: when ``terminal`` is true the list already
        holds the terminal event."""
        with self._lock:
            return job.events[cursor:], job.terminal

    def get(self, job_id):
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self):
        with self._lock:
            return list(self._jobs.values())

    def counts(self):
        with self._lock:
            counts = dict.fromkeys((QUEUED, RUNNING, DONE, FAILED), 0)
            for job in self._jobs.values():
                counts[job.state] += 1
        return counts
