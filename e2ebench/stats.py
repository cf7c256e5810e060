"""Statistics of the end-to-end benchmark.

Timings are reported as a median plus the highest percentile that has at
least ten samples beyond it (none when there are fewer than twenty
samples), with the sample count. Run-to-run spread is the distance between
the first and third quartile as a share of the median, as
``statistics.quantiles(values, n=4)`` gives the quartiles. Self time of a
span is its duration minus the union of its children's intervals.
"""

import statistics

# Percentiles considered for the tail, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values, p):
    """Linear interpolation between closest ranks (p in [0, 100])."""
    ordered = sorted(values)
    pos = p / 100.0 * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail(values):
    """(p, value) for the highest percentile with >= 10 samples beyond it,
    or None when the sample count supports none."""
    n = len(values)
    for p in TAIL_PERCENTILES:
        # In integer tenths of a percent, so 100 samples do support p90.
        if n * (1000 - round(p * 10)) >= MIN_BEYOND * 1000:
            return p, percentile(values, p)
    return None


def summary(values):
    """Median, tail and sample count of one timing."""
    t = tail(values)
    return {
        "median": median(values),
        "tail_percentile": t[0] if t else None,
        "tail": t[1] if t else None,
        "samples": len(values),
    }


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


def worsening(base, new, better):
    """How much worse `new` is than `base`, as a share of `base`
    (negative when it is better)."""
    if better == "lower":
        return (new - base) / base
    if better == "higher":
        return (base - new) / base
    raise ValueError("better must be 'lower' or 'higher', got %r" % (better,))


def check_bound(first_runs, second_runs, bound, better):
    """The acceptance rule for one metric on one workload: each set's
    spread stays within `bound`, and the second set's median is not worse
    than the first's by more than `bound`. Returns (ok, details)."""
    spreads = [spread(first_runs), spread(second_runs)]
    drift = worsening(median(first_runs), median(second_runs), better)
    ok = drift <= bound and all(s <= bound for s in spreads)
    return ok, {"spreads": spreads, "worsening": drift}


def self_times(spans):
    """Self seconds per layer. `spans` are dicts with id, parent, layer,
    start and end (seconds); a parent's self time excludes the union of
    its children's intervals, clipped to the parent."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s["start"]
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start"]):
            lo = max(c["start"], cursor)
            hi = min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s["layer"]] = out.get(s["layer"], 0.0) + (s["end"] - s["start"]) - covered
    return out
