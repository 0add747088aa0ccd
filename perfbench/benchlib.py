"""Arithmetic of the end-to-end benchmark, kept apart from process handling
so that perfbench/test_benchlib.py can check it without a build.

- Order statistics over run samples (median, percentile).
- The report check: which cells of one `run_suite` run count as failed.
- Self time of traced spans and the per-layer rollup of a traced pass.
"""

import collections
import json
import statistics


# ------------------------------------------------------------ statistics --

def median(values):
    """Median of a non-empty sequence (mean of the middle pair if even)."""
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def percentile(values, p):
    """The p-th percentile (0..100) by linear interpolation between the
    closest ranks, as numpy's default method computes it."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0 <= p <= 100:
        raise ValueError("percentile outside [0, 100]: %r" % p)
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


# ---------------------------------------------------------- report check --

# Cell classes with a usable result. `degenerate_retry` is the study
# driver's designed recovery: a repeat whose data draw gave a non-finite
# score (german's 1,000 rows leave some intersectional test groups empty)
# is recomputed under a deterministic reseed. It is counted and printed,
# not failed.
ACCEPTED_CLASSES = ("pass", "degenerate_retry")


def failed_cells(exit_code, report_bytes, expected_cells, reference=None):
    """(failed, retried) cells of one run.

    A run passes only if the child exited 0, its report lists
    `expected_cells` cells, its `classifier` tally of accepted classes
    equals that count, and (when `reference` is given) the report bytes
    equal the reference bytes. A run failing any of these fails every
    cell; otherwise each cell whose class is not accepted fails.
    """
    if exit_code != 0 or not report_bytes:
        return expected_cells, 0
    if reference is not None and report_bytes != reference:
        return expected_cells, 0
    try:
        report = json.loads(report_bytes)
        classes = [cell["class"] for cell in report["cells"]]
        tally = sum(report["classifier"].get(name, 0)
                    for name in ACCEPTED_CLASSES)
    except (ValueError, KeyError, TypeError, AttributeError):
        return expected_cells, 0
    if len(classes) != expected_cells:
        return expected_cells, 0
    failed = sum(1 for name in classes if name not in ACCEPTED_CLASSES)
    if tally != expected_cells - failed:
        return expected_cells, 0
    return failed, classes.count("degenerate_retry")


def cells_failed_frac(failed, attempted):
    """Failed cells over attempted cells (0 when nothing was attempted)."""
    return failed / attempted if attempted else 0.0


# ----------------------------------------------------------------- spans --

# One traced span; times in seconds. `minus` is time a sibling span
# measured for work this span's call also did internally.
Span = collections.namedtuple(
    "Span", "id parent thread start end minus name group", defaults=("",))


def read_spans(path):
    """Spans written by perfbench_trace: one tab-separated line each
    (id, parent, thread, start_ns, end_ns, minus_ns, name, group); times
    are converted to seconds."""
    spans = []
    with open(path) as handle:
        for line in handle:
            fields = line.rstrip("\n").split("\t")
            span_id, parent, thread, start, end, minus = (
                int(f) for f in fields[:6])
            spans.append(Span(span_id, parent, thread, start * 1e-9,
                              end * 1e-9, minus * 1e-9, fields[6],
                              fields[7] if len(fields) > 7 else ""))
    return spans


def _covered(start, end, intervals):
    """Length of [start, end] covered by the union of `intervals`."""
    clipped = sorted((max(s, start), min(e, end)) for s, e in intervals
                     if min(e, end) > max(s, start))
    covered = 0.0
    run_start = run_end = None
    for s, e in clipped:
        if run_end is None or s > run_end:
            if run_end is not None:
                covered += run_end - run_start
            run_start, run_end = s, e
        else:
            run_end = max(run_end, e)
    if run_end is not None:
        covered += run_end - run_start
    return covered


def self_times(spans):
    """Self time of every span, keyed by span id: its duration minus the
    part of its interval that child spans cover (children on other threads
    included, overlapping children counted once) minus its `minus` share,
    never below zero."""
    children = {}
    for span in spans:
        children.setdefault(span.parent, []).append((span.start, span.end))
    out = {}
    for span in spans:
        covered = _covered(span.start, span.end, children.get(span.id, ()))
        out[span.id] = max(0.0, span.end - span.start - covered - span.minus)
    return out


def layer_metric_name(span_name):
    """Per-layer metric a span's self time counts towards, or None for the
    benchmark's own bookkeeping spans ("bench.*")."""
    if span_name.startswith("bench."):
        return None
    if span_name == "repair":
        return "repair.s"
    return span_name + "_s"


def layer_rollup(spans):
    """Summed self time per layer metric, plus the call counts of the
    detect and repair layers."""
    selfs = self_times(spans)
    seconds = {}
    counts = {"detect.calls": 0, "repair.calls": 0}
    for span in spans:
        name = layer_metric_name(span.name)
        if name is None:
            continue
        seconds[name] = seconds.get(name, 0.0) + selfs[span.id]
        if span.name.startswith("detect."):
            counts["detect.calls"] += 1
        elif span.name == "repair":
            counts["repair.calls"] += 1
    return seconds, counts
