"""Multiprocess stress: concurrent writers + readers + gc on one store.

The sweep service points many worker processes (and the server's own
threads) at one store root, with tenant budgets running :meth:`gc`
*while* artifacts are being written and read.  The store's contract
under that load:

- no process ever raises: vanished files, in-flight temp files and torn
  reads are all absorbed by the API (``None`` → recompute);
- every load returns either a valid artifact or ``None`` — never a
  partial/corrupt object;
- gc never deletes an in-flight temp file out from under a writer (a
  writer's ``os.replace`` would raise ``FileNotFoundError``).

The stress runs under two start methods: ``spawn`` (re-import + store
attach in a fresh interpreter) and the service's own preloaded
forkserver (the start method its job workers use), started and reaped
around the test.
"""

import multiprocessing
import pathlib

import pytest

from repro.lab.store import ArtifactStore
from repro.serve.pool import start_forkserver, stop_forkserver

#: Artifact payload; big enough that writes take long enough to overlap
#: with gc scans, small enough to keep the test quick.
_BLOB = "x" * 8_000


def _writer(root, worker, rounds, errors):
    try:
        store = ArtifactStore(root)
        for index in range(rounds):
            store.save_result(f"stress-{worker}-{index}",
                              {"worker": worker, "index": index,
                               "blob": _BLOB})
    except BaseException as error:  # noqa: BLE001 — reported to parent
        errors.put(f"writer-{worker}: {type(error).__name__}: {error}")


def _reader(root, worker, rounds, writers, errors):
    try:
        store = ArtifactStore(root)
        for index in range(rounds):
            name = f"stress-{index % writers}-{index % 7}"
            payload = store.load_result(name)
            # miss (not yet written / evicted) is fine; a hit must be
            # complete — partial artifacts may never escape the store
            if payload is not None and payload.get("blob") != _BLOB:
                errors.put(f"reader-{worker}: torn read of {name!r}")
                return
    except BaseException as error:  # noqa: BLE001
        errors.put(f"reader-{worker}: {type(error).__name__}: {error}")


def _collector(root, rounds, budget, errors):
    try:
        store = ArtifactStore(root)
        for _ in range(rounds):
            result = store.gc(max_bytes=budget)
            if result.failed_files:
                errors.put(f"gc: {result.failed_files} failed unlinks")
                return
    except BaseException as error:  # noqa: BLE001
        errors.put(f"gc: {type(error).__name__}: {error}")


@pytest.fixture(params=["spawn", "forkserver"])
def mp_context(request):
    if request.param == "forkserver":
        start_forkserver()
        try:
            yield multiprocessing.get_context("forkserver")
        finally:
            stop_forkserver()
    else:
        yield multiprocessing.get_context("spawn")


def test_concurrent_writers_readers_and_gc(tmp_path, mp_context):
    root = str(tmp_path / "store")
    errors = mp_context.Queue()
    writers = 3
    budget = 64_000        # a handful of artifacts: gc evicts constantly

    processes = [
        mp_context.Process(target=_writer, args=(root, w, 40, errors))
        for w in range(writers)
    ] + [
        mp_context.Process(target=_reader,
                           args=(root, r, 120, writers, errors))
        for r in range(2)
    ] + [
        mp_context.Process(target=_collector, args=(root, 25, budget, errors)),
        mp_context.Process(target=_collector, args=(root, 25, budget, errors)),
    ]
    for process in processes:
        process.start()
    for process in processes:
        process.join(timeout=120)
    failures = []
    while not errors.empty():
        failures.append(errors.get())
    assert not failures, failures
    assert all(process.exitcode == 0 for process in processes)

    # steady state: no temp litter survives, every artifact that is
    # still present loads cleanly (served) and the rest are recomputable
    # misses by construction
    store = ArtifactStore(root)
    leftovers = [
        path for path in pathlib.Path(root).rglob("*")
        if path.is_file() and store._is_temp(path)
    ]
    assert not leftovers, leftovers
    served = 0
    for path in pathlib.Path(root).rglob("*.json"):
        if "results" not in str(path.parent):
            continue
        for worker in range(writers):
            for index in range(40):
                name = f"stress-{worker}-{index}"
                if store.result_path(name) == path:
                    payload = store.load_result(name)
                    assert payload is None or payload["blob"] == _BLOB
                    if payload is not None:
                        served += 1
    final = store.gc(max_bytes=0)
    assert final.failed_files == 0
