"""PaxBench maths and parsers: percentiles, rates, /proc and STATS parsing,
and span self time. Pure functions, unit tested in paxbench/tests."""

import json
import math
import statistics

# Layers with spans, named after the repository's modules; "bench" is the
# benchmark's own root spans, whose self time is the part of a unit that
# no timed call covers.
LAYERS = ("kv", "group", "libpax", "device", "pmem", "bench")


def percentile(values, q):
    """Nearest-rank percentile: the smallest sample with at least q% of
    the samples at or below it. `values` need not be sorted."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError("q must be in (0, 100]")
    ordered = sorted(values)
    rank = math.ceil(q / 100 * len(ordered))
    return ordered[rank - 1]


def median(values):
    return statistics.median(values)


def ratio(num, den):
    """num / den, or 0.0 when nothing was counted in the denominator."""
    return num / den if den else 0.0


def rate(count, nanoseconds):
    """Events per second over a window given in nanoseconds."""
    if nanoseconds <= 0:
        raise ValueError("rate over an empty window")
    return count * 1e9 / nanoseconds


def spread(values):
    """Interquartile distance as a share of the median, the way the
    acceptance check measures run-to-run noise."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def parse_proc_stat(text):
    """utime and stime in clock ticks from /proc/<pid>/stat. The command
    name may hold spaces and parentheses, so fields are counted from the
    last ')'."""
    rest = text[text.rindex(")") + 2:].split()
    # rest[0] is field 3 (state); utime and stime are fields 14 and 15.
    return {"utime": int(rest[11]), "stime": int(rest[12])}


def parse_host_steal(cpu_line):
    """Steal ticks (time the host ran something else on this machine's
    CPUs) from the aggregate "cpu" line of /proc/stat."""
    fields = cpu_line.split()
    if len(fields) < 9 or fields[0] != "cpu":
        raise ValueError("not the aggregate cpu line of /proc/stat")
    # cpu user nice system idle iowait irq softirq steal ...
    return int(fields[8])


def window_steal(cpu_lines):
    """Steal ticks in each window, given the cpu line at every window edge."""
    ticks = [parse_host_steal(line) for line in cpu_lines]
    return [b - a for a, b in zip(ticks, ticks[1:])]


def calm(values, steal, q):
    """The values whose window had at most the q-th percentile of steal:
    the windows other tenants of the host disturbed least."""
    if len(values) != len(steal):
        raise ValueError("one steal count per window")
    cut = percentile(steal, q)
    return [v for v, s in zip(values, steal) if s <= cut]


def parse_vm_hwm_kib(status_text):
    """Peak resident set size (VmHWM) in KiB from /proc/<pid>/status."""
    for line in status_text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise ValueError("no VmHWM line")


def catches_signal(status_text, signum):
    """Whether /proc/<pid>/status shows a handler installed for signum."""
    for line in status_text.splitlines():
        if line.startswith("SigCgt:"):
            return bool(int(line.split()[1], 16) >> (signum - 1) & 1)
    raise ValueError("no SigCgt line")


def parse_stats_doc(text):
    """Flattens a PaxKV STATS document into the counters the benchmark
    uses, summing the per-shard undo-log counters."""
    doc = json.loads(text)
    server = doc["server"]
    group = doc["group_commit"]
    shards = doc["shard_stats"]
    return {
        "requests": server["requests"],
        "protocol_errors": server["protocol_errors"],
        "acked_write_ops": doc["acked_write_ops"],
        "log_flushes_total": doc["log_flushes_total"],
        "waves": group["waves"],
        "wave_ops": group["wave_ops"],
        "persists": sum(s["persists"] for s in shards),
        "log_records": sum(s["log"]["records"] for s in shards),
        "log_flushes": sum(s["log"]["flushes"] for s in shards),
        "ring_full_stalls": sum(s["log"]["ring_full_stalls"] for s in shards),
    }


def delta(before, after):
    return {k: after[k] - before[k] for k in before}


def self_times(spans):
    """Self time per layer in nanoseconds: each span's duration minus the
    union of its children's intervals, summed by the name's layer prefix.

    `spans` are dicts with id, parent, start and end (nanoseconds)."""
    children = {}
    for s in spans:
        if s["parent"]:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {layer: 0 for layer in LAYERS}
    for s in spans:
        layer = s["name"].split(".", 1)[0]
        if layer not in out:
            continue
        covered = 0
        cursor = s["start"]
        for start, end in sorted(children.get(s["id"], ())):
            start = max(start, cursor)
            end = min(end, s["end"])
            if end > start:
                covered += end - start
                cursor = end
        out[layer] += (s["end"] - s["start"]) - covered
    return out


def load_chrome_trace(path):
    """Spans from a Chrome trace-event file written by paxbench."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    spans = []
    for e in events:
        start = round(e["ts"] * 1000)
        spans.append({
            "name": e["name"],
            "id": e["args"]["id"],
            "parent": e["args"]["parent"],
            "op": e["args"]["op"],
            "start": start,
            "end": start + round(e["dur"] * 1000),
        })
    return spans
