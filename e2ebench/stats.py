"""Raw-sample statistics and span arithmetic for the end-to-end benchmark.

Every statistic here is computed from the raw samples the benchmark
took; nothing is read back from the program's own binned quantiles.
"""

import math

# The repository's modules, used as the layer names of traced spans.
LAYERS = ("workloads", "sim", "lustre", "ipm", "core", "monitor", "campaign", "cli")


def quantile(values, q):
    """Linearly interpolated quantile of raw samples (q in [0, 1])."""
    if not values:
        raise ValueError("quantile of no samples")
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0, 1]")
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values):
    return quantile(values, 0.5)


def tail_percentile(values, beyond=10):
    """The highest percentile with at least `beyond` samples above it, as
    (percent, value), or None when there are too few samples."""
    n = len(values)
    if n < 2 * beyond:
        return None
    q = math.floor(100.0 * (n - beyond) / n) / 100.0
    return round(100.0 * q), quantile(values, q)


def summarize(values):
    """Median, quartiles, extrema and sample count of raw samples."""
    return {
        "n": len(values),
        "median": median(values),
        "p25": quantile(values, 0.25),
        "p75": quantile(values, 0.75),
        "min": min(values),
        "max": max(values),
        "tail": tail_percentile(values),
    }


def covered(intervals):
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Self time of each span: its duration minus the part of its
    interval that its child spans cover. `spans` are dicts with name,
    start, end and parent (index into the list, -1 for a root)."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            children[s["parent"]].append(i)
    out = []
    for i, s in enumerate(spans):
        clipped = []
        for c in children[i]:
            lo = max(spans[c]["start"], s["start"])
            hi = min(spans[c]["end"], s["end"])
            if hi > lo:
                clipped.append((lo, hi))
        out.append((s["end"] - s["start"]) - covered(clipped))
    return out


def layer_of(name):
    head = name.split(".", 1)[0]
    return head if head in LAYERS else None


def ledger(spans):
    """Per-layer self time, the unattributed remainder and the wall time
    of a traced pass. The self times of every span sum to the duration of
    the root spans, so the layer times plus `unattributed_s` equal
    `wall_s` exactly."""
    selfs = self_times(spans)
    layers = {layer: 0.0 for layer in LAYERS}
    unattributed = 0.0
    for s, t in zip(spans, selfs):
        layer = layer_of(s["name"])
        if layer is None:
            unattributed += t
        else:
            layers[layer] += t
    wall = sum(s["end"] - s["start"] for s in spans if s["parent"] < 0)
    return {
        "layers": layers,
        "unattributed_s": unattributed,
        "wall_s": wall,
        "unattributed_frac": unattributed / wall if wall > 0 else 0.0,
    }


def outcome(returncode):
    """Classify a finished process: 'ok' (exit 0), 'error' (a clean
    non-zero exit, the program reporting a failure) or 'crash' (killed by
    a signal)."""
    if returncode == 0:
        return "ok"
    if returncode < 0 or returncode >= 128:
        return "crash"
    return "error"
