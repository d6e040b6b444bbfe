"""Characterisation flow: programs → event logs → DTA → delay LUT.

Mirrors the paper's Fig. 2 right half: gate-level simulation of
characterisation programs, dynamic timing analysis of the resulting event
logs, per-instruction extraction and LUT merge.

Two engines produce bit-identical results:

- ``engine="array"`` (default) — the vectorized path:
  :meth:`~repro.dta.gatesim.GateLevelSimulator.run_dta` replays the
  event-log arithmetic on the compiled delay matrices and
  :func:`~repro.dta.extraction.extract_lut_arrays` reduces the
  attribution with array maxima;
- ``engine="record"`` — the retained reference: materialised event log,
  per-event analysis, per-record extraction.

Characterisation shards: each program's gate-sim batch is independent, so
``jobs > 1`` fans the suite out, one program per task, over a
:class:`~repro.lab.jobqueue.ShardPool` whose workers are the sweep
runner's (:func:`repro.lab.runner.characterize_on_pool`), and
per-program LUTs can be cached in an
:class:`~repro.lab.store.ArtifactStore` (``store=``) so an interrupted
characterisation resumes by recomputing only the missing batches.  The
merge happens in canonical suite order regardless of completion order —
the merged LUT is bit-identical to the serial in-process result.
"""

from dataclasses import dataclass, field

from repro.obs import trace as obs_trace
from repro.obs.trace import span as obs_span
from repro.dta.analyzer import analyze_event_log
from repro.dta.extraction import (
    DEFAULT_MIN_OCCURRENCES,
    extract_lut,
    extract_lut_arrays,
    merge_luts,
)
from repro.dta.gatesim import GateLevelSimulator
from repro.workloads.suite import characterization_suite

#: Valid characterisation engines.
ENGINES = ("array", "record")


@dataclass
class CharacterizationRun:
    """One program's gate-sim + DTA artefacts (kept for the figure benches)."""

    program_name: str
    num_cycles: int
    dta: object           # DtaResult
    trace: object         # PipelineTrace
    lut: object           # per-run DelayLUT


@dataclass
class CharacterizationResult:
    """Merged characterisation of one design."""

    design: object
    lut: object                       # merged DelayLUT
    runs: list = field(default_factory=list)
    total_cycles: int = 0

    @property
    def num_runs(self):
        return len(self.runs)

    def run_named(self, program_name):
        for run in self.runs:
            if run.program_name == program_name:
                return run
        raise KeyError(f"no characterisation run named {program_name!r}")


def characterize_program(program, design,
                         min_occurrences=DEFAULT_MIN_OCCURRENCES,
                         sim_period_ps=None, engine="array",
                         keep_run=False):
    """One characterisation batch: gate-sim + DTA + extraction.

    Returns ``(lut, num_cycles, run)`` — ``run`` is a
    :class:`CharacterizationRun` when ``keep_run`` is set, else ``None``.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown characterisation engine {engine!r}")
    with obs_span("characterize.program", program=program.name,
                  engine=engine):
        return _characterize_program_impl(
            program, design, min_occurrences, sim_period_ps, engine,
            keep_run,
        )


def _characterize_program_impl(program, design, min_occurrences,
                               sim_period_ps, engine, keep_run):
    gatesim = GateLevelSimulator(program, design, sim_period_ps=sim_period_ps)
    if engine == "array":
        dta, compiled = gatesim.run_dta()
        lut = extract_lut_arrays(
            dta, compiled, design.static_period_ps,
            min_occurrences=min_occurrences, source=program.name,
        )
        num_cycles = compiled.num_cycles
        trace = compiled.trace
    else:
        result = gatesim.run()
        dta = analyze_event_log(result.event_log)
        lut = extract_lut(
            dta, result.trace, design.static_period_ps,
            min_occurrences=min_occurrences, source=program.name,
        )
        num_cycles = result.num_cycles
        trace = result.trace
    run = None
    if keep_run:
        run = CharacterizationRun(
            program_name=program.name,
            num_cycles=num_cycles,
            dta=dta,
            trace=trace,
            lut=lut,
        )
    return lut, num_cycles, run


def _cached_program_lut(program, design, min_occurrences, sim_period_ps,
                        engine, store):
    """Per-program LUT through the store's charlut cache (if any)."""
    if store is not None:
        cached = store.load_char_lut(
            design, program, min_occurrences=min_occurrences,
            sim_period_ps=sim_period_ps,
        )
        if cached is not None:
            return cached
    lut, num_cycles, _ = characterize_program(
        program, design, min_occurrences=min_occurrences,
        sim_period_ps=sim_period_ps, engine=engine,
    )
    if store is not None:
        store.save_char_lut(
            lut, num_cycles, design, program,
            min_occurrences=min_occurrences, sim_period_ps=sim_period_ps,
        )
    return lut, num_cycles


def _merge_program_luts(luts, cycle_counts):
    """Merge per-program LUTs given in canonical suite order; returns
    ``(merged, total_cycles)`` — bit-identical however the batches ran."""
    total_cycles = sum(cycle_counts)
    with obs_span("characterize.merge", programs=len(luts)):
        merged = merge_luts(luts)
    merged.source = f"{len(luts)} programs / {total_cycles} cycles"
    return merged, total_cycles


def _characterize_impl(design, programs=None,
                       min_occurrences=DEFAULT_MIN_OCCURRENCES,
                       sim_period_ps=None, keep_runs=True, engine="array",
                       jobs=1, store=None):
    """The characterisation flow engine (see :func:`characterize`).

    :class:`repro.api.Session` runs on this directly; the public
    :func:`characterize` below is the legacy shim over the Session.

    Parameters
    ----------
    design:
        :class:`~repro.timing.design.ProcessorDesign`.
    programs:
        Characterisation programs; defaults to the standard suite (directed
        semi-random generators + hand kernels, paper Sec. II-B.2).
    min_occurrences:
        Extraction threshold below which a class falls back to the static
        period.
    sim_period_ps:
        Gate-sim clock period (defaults to 10 % above STA).
    keep_runs:
        Keep per-run DTA artefacts (needed by the histogram benches).
        Incompatible with ``jobs > 1`` — per-run artefacts stay in their
        worker process.
    engine:
        ``"array"`` (vectorized, default) or ``"record"`` (the retained
        scalar reference); both produce bit-identical LUTs.
    jobs:
        Worker processes to shard the per-program gate-sim batches over.
    store:
        Optional :class:`~repro.lab.store.ArtifactStore`; per-program LUTs
        are read from / written through its ``charlut`` cache, so a killed
        characterisation recomputes only the missing batches.
    """
    if programs is not None:
        programs = list(programs)
    jobs = max(1, int(jobs))
    if jobs > 1 and keep_runs:
        raise ValueError(
            "sharded characterisation (jobs > 1) cannot keep per-run "
            "artefacts; pass keep_runs=False"
        )
    if jobs > 1 and (programs is None or len(programs) > 1):
        from repro.lab.jobqueue import ShardPool
        from repro.lab.runner import _worker_init, characterize_on_pool

        store_root = str(store.root) if store is not None else None
        with ShardPool(jobs, initializer=_worker_init,
                       initargs=(None, store_root, "vector",
                                 obs_trace.is_enabled(), True)) as pool:
            [(luts, cycle_counts)] = characterize_on_pool(
                pool, [design], programs, store=store,
                min_occurrences=min_occurrences,
                sim_period_ps=sim_period_ps, engine=engine,
            )
        merged, total_cycles = _merge_program_luts(luts, cycle_counts)
        return CharacterizationResult(
            design=design, lut=merged, total_cycles=total_cycles
        )

    if programs is None:
        programs = characterization_suite()
    runs = []
    luts = []
    cycle_counts = []
    for program in programs:
        if keep_runs:
            lut, num_cycles, run = characterize_program(
                program, design, min_occurrences=min_occurrences,
                sim_period_ps=sim_period_ps, engine=engine, keep_run=True,
            )
            runs.append(run)
        else:
            lut, num_cycles = _cached_program_lut(
                program, design, min_occurrences, sim_period_ps, engine,
                store,
            )
        luts.append(lut)
        cycle_counts.append(num_cycles)
    merged, total_cycles = _merge_program_luts(luts, cycle_counts)
    return CharacterizationResult(
        design=design, lut=merged, runs=runs, total_cycles=total_cycles
    )


def characterize(design, programs=None,
                 min_occurrences=DEFAULT_MIN_OCCURRENCES,
                 sim_period_ps=None, keep_runs=True, engine="array",
                 jobs=1, store=None):
    """Characterise a design and return its merged delay LUT.

    .. deprecated::
        Legacy shim over :class:`repro.api.Session` (bit-identical,
        including per-program ``charlut`` store traffic); new code
        should use ``Session.characterize``.

    See :func:`_characterize_impl` for the parameters.
    """
    from repro.api import Session

    session = Session.for_design(design, jobs=jobs, store=store)
    return session.characterize(
        programs, min_occurrences=min_occurrences,
        sim_period_ps=sim_period_ps, keep_runs=keep_runs, engine=engine,
        via_store=False,
    )
