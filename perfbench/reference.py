"""Reference results for the benchmark's output checks.

Runs in a fresh process with the package on the path, from the root of
a checkout::

    PYTHONPATH=src python3 perfbench/reference.py SPEC.json OUT.json

``SPEC`` holds ``{"grids": [grid dict, ...], "randgen": {...} | null}``.
With ``randgen`` set (``seed``, ``count``, ``length``, ``repeats``,
``paths``), the seeded characterisation programs are generated first
and written to ``paths`` as assembly text, so the program under test
only ever sees the ``.s`` files.

Each grid is then evaluated in this process by ``Session.evaluate`` per
design point, with no artifact store and no sweep runner: the rows a
store-backed, sharded or served sweep of the same grid must reproduce
exactly.  ``OUT`` receives ``{"rows": [[row, ...] per grid], "host":
{...}, "paper": {...}}``.
"""

import json
import pathlib
import sys


def _write_programs(spec):
    from repro.workloads.randomgen import (
        generate_characterization_source,
        stream_seed,
    )

    for index, path in enumerate(spec["paths"]):
        source = generate_characterization_source(
            seed=stream_seed(spec["seed"], index),
            length=spec["length"],
            repeats=spec["repeats"],
        )
        pathlib.Path(path).write_text(source)


def reference_rows(grid):
    """Rows of ``grid`` in the sweep runner's order (design point,
    config, workload), evaluated without a store."""
    from repro.api import Session
    from repro.dta.compiled import set_trace_store

    previous = set_trace_store(None)
    try:
        programs = grid.programs()
        rows = []
        for point in grid.design_points():
            session = Session.for_design(point.build(),
                                         max_cycles=grid.max_cycles)
            rows.extend(session.evaluate(
                programs, configs=grid.config_specs()
            ).to_rows())
        return rows
    finally:
        set_trace_store(previous)


def main(spec_path, out_path):
    spec = json.loads(pathlib.Path(spec_path).read_text())
    if spec.get("randgen"):
        _write_programs(spec["randgen"])

    from repro import paperdata
    from repro.lab.scenario import ScenarioGrid
    from repro.obs.host import host_metadata

    rows = [reference_rows(ScenarioGrid.from_dict(grid))
            for grid in spec["grids"]]
    document = {
        "rows": rows,
        "host": host_metadata(engine="vector"),
        "paper": {
            "instruction_speedup_pct": paperdata.DYNAMIC_SPEEDUP_PERCENT,
            "genie_speedup_pct": paperdata.GENIE_SPEEDUP_PERCENT,
        },
    }
    pathlib.Path(out_path).write_text(json.dumps(document, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
