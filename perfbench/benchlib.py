"""Accounting used by ``run.py``: percentiles, failure counts,
open-loop lateness and the per-layer time breakdown.

Standard library only, so the load-generating process never imports
the program under test.  ``test_benchlib.py`` beside this file covers
it.
"""

import math

#: Slack allowed when checking that a breakdown adds up (float error
#: only: the remainder is computed, so any larger gap is a bug).
ADD_UP_TOLERANCE_S = 1e-6


def percentile(values, q):
    """The ``q``-th percentile (0..100) of ``values``, interpolating
    linearly between closest ranks; raises ``ValueError`` when empty."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile {q} outside 0..100")
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values):
    return percentile(values, 50)


class Tally:
    """Attempted and failed operations, with the first few reasons."""

    def __init__(self, keep_reasons=5):
        self.attempted = 0
        self.failed = 0
        self.reasons = []
        self._keep = keep_reasons

    def record(self, ok, reason=None):
        """Count one operation; returns ``ok``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < self._keep:
                self.reasons.append(reason or "failed")
        return ok

    @property
    def failed_frac(self):
        return self.failed / self.attempted if self.attempted else 0.0


def miss_frac(latencies, limit, failures=0):
    """Share of requests that missed ``limit``: those slower than it
    plus every failed or refused one (``failures``), over all of them."""
    total = len(latencies) + failures
    if total == 0:
        raise ValueError("no requests")
    slow = sum(1 for latency in latencies if latency > limit)
    return (slow + failures) / total


def schedule(start, interval, duration, offset=0.0):
    """Due times of an open-loop arrival stream: one every ``interval``
    seconds from ``start + offset`` until ``start + duration``."""
    if interval <= 0:
        raise ValueError("interval must be positive")
    times = []
    index = 0
    while True:
        due = start + offset + index * interval
        if due >= start + duration:
            return times
        times.append(due)
        index += 1


def lateness(due, sent):
    """How late the generator sent a request (never negative)."""
    return max(0.0, sent - due)


def effective_layers(process, processes):
    """Wall-clock layer seconds of one traced process.

    ``process`` and the entries of ``processes`` are the hook's records:
    ``pid``, ``ppid``, ``forked_under``, ``wall_s`` (lifetime) and
    ``layers`` (name -> ``{"self_s": ...}``).  A layer that forked
    workers spent its self time waiting for them, so that time is shared
    out over the workers' own layers in proportion to their lifetimes'
    share; the part of a worker's life outside any layer stays with the
    layer that forked it.  The values sum to at most the process's own
    self times, so nothing is counted twice.
    """
    layers = {name: entry["self_s"]
              for name, entry in process["layers"].items()}
    kids = {}
    for child in processes:
        if child["ppid"] == process["pid"] and child["forked_under"]:
            kids.setdefault(child["forked_under"], []).append(child)
    for parent_layer, children in kids.items():
        busy = sum(child["wall_s"] for child in children)
        waited = layers.get(parent_layer, 0.0)
        if busy <= 0 or waited <= 0:
            continue
        scale = waited / busy
        layers[parent_layer] = 0.0
        for child in children:
            inner = effective_layers(child, processes)
            for name, seconds in inner.items():
                layers[name] = layers.get(name, 0.0) + seconds * scale
            outside = max(0.0, child["wall_s"] - sum(inner.values()))
            layers[parent_layer] += outside * scale
    return layers


def attribute(wall_s, roots, processes):
    """Split ``wall_s`` into per-layer seconds plus a remainder.

    ``roots`` are the processes whose lives lie inside the timed
    interval one after another (a sweep's CLI process; a server's job
    workers, summed over the jobs timed); their workers are found in
    ``processes``.  Returns ``(layers, unattributed_s)``, which add up
    to ``wall_s``.
    """
    layers = {}
    for root in roots:
        for name, seconds in effective_layers(root, processes).items():
            layers[name] = layers.get(name, 0.0) + seconds
    return layers, wall_s - sum(layers.values())


def adds_up(wall_s, layers, unattributed_s):
    """True when the breakdown sums to the wall time and no layer time
    was counted twice (a negative remainder)."""
    total = sum(layers.values()) + unattributed_s
    return (abs(total - wall_s) <= ADD_UP_TOLERANCE_S
            and unattributed_s >= -ADD_UP_TOLERANCE_S)


def rows_from_frame(document):
    """Row dicts of a ``ResultFrame.to_dict()`` document (columnar)."""
    names = [name for name, _ in document["schema"]]
    columns = document["columns"]
    count = len(columns[names[0]]) if names else 0
    return [{name: columns[name][index] for name in names}
            for index in range(count)]


def unsafe_rows(rows):
    """Rows with a timing violation: any at all breaks the paper's
    claim that a LUT or genie policy never clocks a cycle faster than
    its worst-case delay."""
    return [row for row in rows if row["num_violations"] != 0]


def mean_speedup(rows, policy, margin=None):
    """Mean ``speedup_percent`` (simulated time) of ``policy`` rows,
    optionally at one margin."""
    values = [row["speedup_percent"] for row in rows
              if row["policy"] == policy
              and (margin is None or row["margin_percent"] == margin)]
    if not values:
        raise ValueError(f"no {policy!r} rows")
    return sum(values) / len(values)
