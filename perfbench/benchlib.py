"""Arithmetic and parsing shared by perfbench/run.py and its tools.

Kept free of side effects so tests/test_benchlib.py can pin it down.
"""
import json
import math
import statistics

RESULT_KEYS = ("correct", "attempted", "failed", "metrics")


def median(values):
    """Median of a non-empty sequence."""
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def quartiles(values):
    """First and third quartile, as statistics.quantiles(values, n=4) gives
    them (the 'exclusive' method)."""
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def spread(values):
    """Distance between the first and third quartile as a share of the
    median: the run-to-run noise of one metric over a set of runs."""
    q1, q3 = quartiles(values)
    m = median(values)
    if m == 0:
        raise ValueError("spread of a metric whose median is 0")
    return (q3 - q1) / abs(m)


def worsening(before, after, better):
    """How much `after` is worse than `before`, as a share of `before`
    (negative when it improved). `better` is "lower" or "higher"."""
    if before == 0:
        raise ValueError("worsening against a zero baseline")
    if better == "lower":
        return (after - before) / abs(before)
    if better == "higher":
        return (before - after) / abs(before)
    raise ValueError("better must be 'lower' or 'higher', not %r" % better)


def within_bound(before, after, better, bound):
    """True when `after` is no worse than `before` by more than `bound`."""
    return worsening(before, after, better) <= bound


def parse_result_line(line, expected_metrics):
    """Parses and validates one result line.

    `expected_metrics` maps each metric name the line must carry to its
    unit. Raises ValueError on anything else: missing or extra keys, a
    non-integer count, an unknown metric, a unit mismatch, a non-finite
    value.
    """
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        raise ValueError("result line is not JSON: %s" % e) from None
    if not isinstance(result, dict) or tuple(sorted(result)) != tuple(
            sorted(RESULT_KEYS)):
        raise ValueError("result keys must be exactly %s" % (RESULT_KEYS,))
    if not isinstance(result["correct"], bool):
        raise ValueError("'correct' must be a boolean")
    for key in ("attempted", "failed"):
        value = result[key]
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise ValueError("'%s' must be a non-negative integer" % key)
    if result["attempted"] < 1:
        raise ValueError("'attempted' must be at least 1")
    if result["failed"] > result["attempted"]:
        raise ValueError("more operations failed than were attempted")
    metrics = result["metrics"]
    if not isinstance(metrics, dict):
        raise ValueError("'metrics' must be an object")
    if set(metrics) != set(expected_metrics):
        missing = sorted(set(expected_metrics) - set(metrics))
        extra = sorted(set(metrics) - set(expected_metrics))
        raise ValueError("metric set differs: missing %s, unexpected %s" %
                         (missing, extra))
    for name, entry in metrics.items():
        if not isinstance(entry, dict) or set(entry) != {"value", "unit"}:
            raise ValueError("metric %s must be {value, unit}" % name)
        value = entry["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)) or \
                not math.isfinite(value):
            raise ValueError("metric %s has a non-finite value" % name)
        if entry["unit"] != expected_metrics[name]:
            raise ValueError("metric %s has unit %r, expected %r" %
                             (name, entry["unit"], expected_metrics[name]))
    return result


def expected_metrics(benchmark, trace):
    """Metric name -> unit a run must print: the end-to-end set untraced,
    the per-layer set traced."""
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in benchmark[key]}
