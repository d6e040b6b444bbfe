"""repro.serve — the multi-tenant sweep service.

A thin asyncio HTTP/JSON layer (stdlib-only) over
:meth:`repro.api.Session.sweep`: clients submit sweep / evaluate /
train jobs as scenario-grid JSON, the server dedups them by
:meth:`~repro.lab.scenario.ScenarioGrid.fingerprint` (two tenants
submitting the same grid share one computation), runs each job in a
worker *process* from a bounded pool sharing one
:class:`~repro.lab.store.ArtifactStore`, streams per-unit progress, and
serves cached :class:`~repro.api.frame.ResultFrame`\\ s instantly on
fingerprint hit.

- :mod:`repro.serve.jobs` — job records, the registry, frame-cache
  naming and per-tenant budget accounting;
- :mod:`repro.serve.pool` — the per-job worker processes (event
  streaming over a pipe), each forked from a single-threaded forkserver
  that has already imported the job stack, so forking is safe in the
  threaded server and a job does not pay the import;
- :mod:`repro.serve.server` — the asyncio HTTP server
  (``repro serve``);
- :mod:`repro.serve.client` — the stdlib client (``repro submit``).

Entry points::

    python -m repro serve --store .repro-store --port 8787
    python -m repro submit --grid grid.json --wait

or programmatically::

    from repro.serve import ServeClient
    client = ServeClient("http://127.0.0.1:8787")
    job = client.submit("grid.json", tenant="alice")
    frame = client.wait_result(job["id"])
"""

from repro.serve.client import ServeClient, ServeError
from repro.serve.jobs import JOB_KINDS, Job, JobRegistry, frame_cache_name
from repro.serve.server import ServeConfig, SweepServer

__all__ = [
    "JOB_KINDS",
    "Job",
    "JobRegistry",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "SweepServer",
    "frame_cache_name",
]
