"""Per-layer timing for the benchmark's traced runs.

Python imports ``sitecustomize`` from its path at start-up.  The
benchmark puts this directory on ``PYTHONPATH`` only for traced ops and
sets ``PERFBENCH_TRACE_DIR``; without that variable this module does
nothing.  With it, every process of the op (the CLI, the workers it
forks, a server's spawned job workers) wraps the public functions
listed in :data:`LAYERS` as their modules are imported, keeps each
layer's self time (its time minus that of layers it called) and call
count in memory, and writes them to ``PERFBENCH_TRACE_DIR/<pid>.json``
when it ends.  A forked worker also records the layer its parent was in
when it forked, so that layer's wait can be shared out over the
worker's own layers (``benchlib.attribute``).  The program's own code
is left untouched.
"""

import os

#: Layer name -> functions timed as that layer, as (module, attribute).
LAYERS = {
    "timing.build_design": [("repro.timing.design", "build_design")],
    "workloads.characterization_suite": [
        ("repro.workloads.suite", "characterization_suite")],
    "asm.assemble": [("repro.asm.assembler", "assemble")],
    # every caller in the package reaches characterisation through the
    # implementation behind the public ``characterize``
    "flow.characterize": [("repro.flow.characterize", "characterize"),
                          ("repro.flow.characterize", "_characterize_impl")],
    "sim.lockstep.collect_batch": [("repro.sim.lockstep", "collect_batch")],
    "sim.vector": [("repro.sim.vector", "simulate"),
                   ("repro.sim.vector", "reconstruct")],
    "dta.compile": [("repro.dta.compiled", "compile_trace"),
                    ("repro.dta.compiled", "compile_vector_run")],
    "lab.store.trace_save": [
        ("repro.lab.store", "ArtifactStore.save_compiled_trace")],
    "lab.store.trace_load": [
        ("repro.lab.store", "ArtifactStore.load_compiled_trace")],
    "flow.evaluate": [("repro.flow.evaluate", "evaluate_compiled")],
    "lab.runner.shard_pool": [("repro.lab.jobqueue", "ShardPool.run")],
}

#: Modules whose top-level execution (with everything it imports) is
#: timed as the ``cli.import`` layer.
IMPORT_LAYER = "cli.import"
IMPORT_MODULES = ("repro", "repro.cli")


def _install(trace_dir):
    import atexit
    import functools
    import importlib.abc
    import importlib.machinery
    import inspect
    import json
    import sys
    import threading
    import time

    lock = threading.Lock()
    local = threading.local()
    state = {}

    def reset(forked_under=None):
        state.update(
            self_s={}, calls={},
            counters={"lab.store.hits": 0, "lab.store.misses": 0},
            start=time.perf_counter(), start_unix=time.time(),
            forked_under=forked_under, dumped=False,
            predecode_base=predecode_stats(),
        )
        local.__dict__.clear()

    def predecode_stats():
        module = sys.modules.get("repro.sim.predecode")
        return dict(module.stats()) if module is not None else {}

    def enter(name):
        stack = local.__dict__.setdefault("stack", [])
        stack.append([name, time.perf_counter(), 0.0])

    def leave():
        name, start, children = local.stack.pop()
        duration = time.perf_counter() - start
        with lock:
            state["self_s"][name] = (
                state["self_s"].get(name, 0.0) + duration - children
            )
            state["calls"][name] = state["calls"].get(name, 0) + 1
        if local.stack:
            local.stack[-1][2] += duration

    def count_trace_load(result):
        key = "lab.store.misses" if result is None else "lab.store.hits"
        with lock:
            state["counters"][key] += 1

    def wrap(name, fn, on_result=None):
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def generator(*args, **kwargs):
                iterator = fn(*args, **kwargs)
                try:
                    while True:
                        enter(name)
                        try:
                            item = next(iterator)
                        except StopIteration:
                            return
                        finally:
                            leave()
                        yield item
                finally:
                    enter(name)
                    try:
                        iterator.close()
                    finally:
                        leave()
            return generator

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave()
            if on_result is not None:
                on_result(result)
            return result
        return timed

    targets = {}
    for layer, functions in LAYERS.items():
        for module_name, attribute in functions:
            targets.setdefault(module_name, []).append((layer, attribute))

    def patch(module):
        for layer, attribute in targets.get(module.__name__, ()):
            *owner_path, leaf = attribute.split(".")
            owner = module
            for part in owner_path:
                owner = getattr(owner, part)
            on_result = (count_trace_load
                         if layer == "lab.store.trace_load" else None)
            setattr(owner, leaf, wrap(layer, getattr(owner, leaf), on_result))

    class Loader(importlib.abc.Loader):
        def __init__(self, inner):
            self._inner = inner

        def __getattr__(self, name):
            return getattr(self._inner, name)

        def create_module(self, spec):
            return self._inner.create_module(spec)

        def exec_module(self, module):
            if module.__name__ in IMPORT_MODULES:
                enter(IMPORT_LAYER)
                try:
                    self._inner.exec_module(module)
                finally:
                    leave()
            else:
                self._inner.exec_module(module)
            patch(module)

    watched = set(targets) | set(IMPORT_MODULES)

    class Finder(importlib.abc.MetaPathFinder):
        def find_spec(self, name, path, target=None):
            if name not in watched:
                return None
            spec = importlib.machinery.PathFinder.find_spec(name, path)
            if spec is not None and spec.loader is not None:
                spec.loader = Loader(spec.loader)
            return spec

    def dump():
        if state["dumped"]:
            return
        state["dumped"] = True
        predecode = predecode_stats()
        base = state["predecode_base"]
        counters = dict(state["counters"])
        for key in ("decode_seconds", "iss_seconds"):
            if key in predecode:
                counters[f"sim.predecode.{key}"] = (
                    predecode[key] - base.get(key, 0.0)
                )
        document = {
            "pid": os.getpid(),
            "ppid": os.getppid(),
            "forked_under": state["forked_under"],
            "start_unix": state["start_unix"],
            "wall_s": time.perf_counter() - state["start"],
            "layers": {name: {"self_s": seconds,
                              "calls": state["calls"][name]}
                       for name, seconds in state["self_s"].items()},
            "counters": counters,
        }
        path = os.path.join(trace_dir, f"{os.getpid()}.json")
        with open(path + ".tmp", "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        os.replace(path + ".tmp", path)

    finder = Finder()

    def before_fork():
        # the layer that forks a worker is the one waiting for it
        stack = local.__dict__.get("stack")
        state["forking_under"] = stack[-1][0] if stack else None
        # a forked multiprocessing worker leaves through os._exit, which
        # skips atexit, and clears its finalizers as it starts; so the
        # dump is registered from multiprocessing's own after-fork hook
        util = sys.modules.get("multiprocessing.util")
        if util is not None and not state.get("after_fork_hooked"):
            util.register_after_fork(
                finder,
                lambda _: util.Finalize(None, dump, exitpriority=100),
            )
            state["after_fork_hooked"] = True

    reset()
    sys.meta_path.insert(0, finder)
    os.register_at_fork(
        before=before_fork,
        after_in_child=lambda: reset(forked_under=state["forking_under"]),
    )
    atexit.register(dump)


if os.environ.get("PERFBENCH_TRACE_DIR"):
    _install(os.environ["PERFBENCH_TRACE_DIR"])
