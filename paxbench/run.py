#!/usr/bin/env python3
"""PaxBench: one benchmark for PaxKV requests and persist() epochs.

    python3 paxbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the pax library, the real `paxkv`
server and the `paxbench` measuring binary (Release) into .bench_build/,
runs one workload, checks its outputs, and prints every metric by name
and unit.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the end-to-end
metrics; --trace 1 reports the per-layer metrics from a traced run and
writes its spans to .bench_build/traces/. Exits non-zero when a check
fails. See paxbench/README.md for the workloads and metric definitions.
"""

import argparse
import json
import os
import select
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "paxbench")
TRACES = os.path.join(BUILD, "traces")

sys.path.insert(0, HERE)
import stats  # noqa: E402

WORKLOADS = ("kv_write", "kv_read", "persist_sparse", "persist_dense")

# PaxKV's group-commit policy, pinned rather than left to the defaults.
# Two shards, not the default four: fewer busy server threads, each a link
# in every request's chain of hand-offs, leave the run less exposed to
# other tenants of the host (see README.md, "Policy held fixed").
SERVER_ARGS = ["--port", "0", "--shards", "2", "--commit", "group",
               "--group-max-ops", "256", "--group-interval-us", "200"]
SETUPS = 5  # set-ups per run; setup_s is their median

E2E = (
    ("ops_per_s", "1/s"),
    ("durable_p50_us", "us"),
    ("durable_p90_us", "us"),
    ("nondurable_p50_us", "us"),
    ("pm_write_amp", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
)

PER_LAYER = (
    ("kv.store_put_p50_us", "us"),
    ("kv.store_put_p99_us", "us"),
    ("kv.store_get_p50_us", "us"),
    ("kv.store_get_p99_us", "us"),
    ("kv.get_floor_us", "us"),
    ("kv.server_user_us_per_op", "us"),
    ("kv.server_sys_us_per_op", "us"),
    ("kv.self_us_per_unit", "us"),
    ("kv.preload_us_per_key", "us"),
    ("group.wave_p50_us", "us"),
    ("group.wave_p99_us", "us"),
    ("group.ops_per_wave", "count"),
    ("group.log_flushes_per_acked_write", "ratio"),
    ("group.self_us_per_unit", "us"),
    ("libpax.mutate_us_per_epoch", "us"),
    ("libpax.fault_us_per_page", "us"),
    ("libpax.faults_per_epoch", "count"),
    ("libpax.protect_syscalls_per_epoch", "count"),
    ("libpax.sync_us", "us"),
    ("libpax.commit_reprotect_us", "us"),
    ("libpax.lines_diffed_per_line_written", "ratio"),
    ("libpax.device_calls_per_dirty_line", "ratio"),
    ("libpax.self_us_per_unit", "us"),
    ("device.sync_lines_ns_per_line", "ns"),
    ("device.seal_commit_us", "us"),
    ("device.hbm_hit_rate", "ratio"),
    ("device.hbm_evictions_per_epoch", "count"),
    ("device.forced_log_flushes_per_epoch", "count"),
    ("device.stripe_contended_frac", "ratio"),
    ("device.self_us_per_unit", "us"),
    ("wal.records_per_epoch", "count"),
    ("wal.flushes_per_epoch", "count"),
    ("wal.ring_full_stalls", "count"),
    ("pmem.media_bytes_per_epoch", "B"),
    ("pmem.line_flushes_per_epoch", "count"),
    ("pmem.drains_per_epoch", "count"),
    ("pmem.xpline_amp", "ratio"),
    ("pmem.store_flush_drain_ns_per_line", "ns"),
    ("pmem.self_us_per_unit", "us"),
    ("trace.covered_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
)

# The timed calls must cover at least this share of each traced unit
# (epoch or replay wave cycle); a lower share means the per-layer numbers
# miss part of the unit's time.
MIN_COVERED_FRAC = 0.95


class BenchError(Exception):
    pass


def log(msg):
    print(f"paxbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally. Returns binary paths."""
    os.makedirs(BUILD, exist_ok=True)
    build_log = os.path.join(BUILD, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    with open(build_log, "w") as out:
        if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
            steps = [["cmake", "-S", HERE, "-B", CMAKE_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"]]
        else:
            steps = []
        steps.append(["cmake", "--build", CMAKE_DIR, "-j", jobs,
                      "--target", "paxbench", "paxkv"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                if cmd[1] == "-S":  # retry the configure on the next run
                    cache = os.path.join(CMAKE_DIR, "CMakeCache.txt")
                    if os.path.exists(cache):
                        os.remove(cache)
                with open(build_log) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise BenchError(f"build failed: {' '.join(cmd)}")
    return (os.path.join(CMAKE_DIR, "paxbench"),
            os.path.join(CMAKE_DIR, "tools", "paxkv"))


def run_json(cmd, timeout, cpu=None):
    """Runs a paxbench mode, pinned to `cpu` if given, and returns its JSON
    document."""
    pin = None if cpu is None else lambda: os.sched_setaffinity(0, {cpu})
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=timeout,
                          cwd=ROOT, preexec_fn=pin)
    if proc.returncode != 0:
        raise BenchError(f"exit {proc.returncode}: {' '.join(cmd)}")
    return json.loads(proc.stdout)


class Server:
    """A paxkv process, started and stopped around one set-up."""

    def __init__(self, binary):
        self.log = open(os.path.join(BUILD, "paxkv.log"), "a")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen([binary] + SERVER_ARGS, cwd=ROOT,
                                     stdout=subprocess.PIPE, stderr=self.log)
        ready, _, _ = select.select([self.proc.stdout], [], [], 30)
        line = self.proc.stdout.readline().decode() if ready else ""
        if "listening on" not in line:
            self.stop()
            raise BenchError(f"paxkv did not start: {line!r}")
        self.ready_s = time.perf_counter() - t0
        self.port = int(line.split()[-1])

    def wait_for_sigterm_handler(self, timeout=10):
        """paxkv installs its SIGTERM handler only after it announces that
        it listens; a SIGTERM sent before that kills it outright."""
        deadline = time.monotonic() + timeout
        while self.proc.poll() is None and time.monotonic() < deadline:
            try:
                with open(f"/proc/{self.proc.pid}/status") as f:
                    if stats.catches_signal(f.read(), signal.SIGTERM):
                        return
            except OSError:
                return
            time.sleep(0.001)

    def stop(self):
        """SIGTERM, then wait; returns the exit code (None if killed)."""
        code = self.proc.poll()
        if code is None:
            self.wait_for_sigterm_handler()
            self.proc.terminate()
            try:
                code = self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()
        return code


def trace_path(args, part=""):
    return os.path.join(TRACES, f"{args.workload}-seed{args.seed}{part}.json")


def merge_traces(parts, path):
    """Writes one Chrome trace with each part as its own process."""
    events = []
    for pid, part in enumerate(parts, start=1):
        with open(part) as f:
            for e in json.load(f)["traceEvents"]:
                e["pid"] = pid
                events.append(e)
        os.remove(part)
    with open(path, "w") as f:
        json.dump({"displayTimeUnit": "ns", "traceEvents": events}, f)


def self_time_metrics(spans, units):
    selfs = stats.self_times(spans)
    out = {f"{layer}.self_us_per_unit": stats.ratio(selfs[layer], units) / 1e3
           for layer in stats.LAYERS if layer != "bench"}
    total = sum(s["end"] - s["start"] for s in spans
                if s["name"].startswith("bench."))
    out["trace.covered_frac"] = 1 - stats.ratio(selfs["bench"], total)
    return out


def counter_metrics(c, epochs):
    """Per-layer ratios from one counter-delta object (see probes.cpp)."""
    return {
        "device.hbm_hit_rate": stats.ratio(
            c["hbm_hits"], c["hbm_hits"] + c["hbm_misses"]),
        "device.hbm_evictions_per_epoch": stats.ratio(c["hbm_evictions"],
                                                      epochs),
        "device.forced_log_flushes_per_epoch": stats.ratio(
            c["forced_log_flushes"], epochs),
        "device.stripe_contended_frac": stats.ratio(c["lock_contended"],
                                                    c["lock_acquisitions"]),
        "pmem.media_bytes_per_epoch": stats.ratio(c["pm_media_bytes"], epochs),
        "pmem.line_flushes_per_epoch": stats.ratio(c["pm_line_flushes"],
                                                   epochs),
        "pmem.drains_per_epoch": stats.ratio(c["pm_drains"], epochs),
        "pmem.xpline_amp": stats.ratio(c["pm_xpline_blocks"] * 256,
                                       c["pm_media_bytes"]),
        "libpax.faults_per_epoch": stats.ratio(c["faults"], epochs),
        "libpax.protect_syscalls_per_epoch": stats.ratio(
            c["protect_syscalls"], epochs),
        "libpax.lines_diffed_per_line_written": stats.ratio(
            c["lines_diffed"], c["lines_synced"]),
        "libpax.device_calls_per_dirty_line": stats.ratio(
            c["device_calls"], c["lines_dirty_found"]),
    }


def probe_metrics(doc):
    return {
        "device.sync_lines_ns_per_line": stats.ratio(
            sum(doc["device_sync_ns"]), doc["device_lines"]),
        "device.seal_commit_us": stats.median(doc["device_persist_ns"]) / 1e3,
        "pmem.store_flush_drain_ns_per_line": stats.ratio(
            sum(doc["pmem_ns"]), doc["pmem_flushes"]),
    }


def us(ns):
    return ns / 1e3


# --- persist_sparse / persist_dense ------------------------------------------

# A single-threaded run goes as fast as the vCPU it lands on, and on a
# shared host the vCPUs differ: a fixed loop took 0.20-0.32 s on the four
# of them at one moment, and they traded places within a minute. Runs on a
# fast vCPU made 33-35 epochs a second against 23-26 on the others. So an
# untraced persist run splits its time evenly across every CPU, one
# pinned process each, and pools their epochs.
PERSIST_CPUS = sorted(os.sched_getaffinity(0))


def run_persist(args, paxbench):
    cmd = [paxbench, "persist", "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--seconds", str(args.seconds),
                "--trace-out", trace_path(args)]
        if args.corrupt_expected:
            cmd.append("--corrupt-expected")
        docs = [run_json(cmd, timeout=150)]
    else:
        docs = []
        for i, cpu in enumerate(PERSIST_CPUS):
            part = cmd + ["--seconds", str(args.seconds / len(PERSIST_CPUS))]
            if args.corrupt_expected and i == 0:
                part.append("--corrupt-expected")
            docs.append(run_json(part, timeout=150, cpu=cpu))
    mismatches = sum(d["mismatches"] for d in docs)
    if mismatches:
        log(f"{mismatches} recovered words differ from the shadow")
    if args.trace:
        metrics = persist_layers(docs[0],
                                 stats.load_chrome_trace(trace_path(args)))
    else:
        metrics = persist_e2e(docs)
    return (metrics, sum(d["attempted"] for d in docs),
            sum(d["failed"] for d in docs))


def persist_e2e(docs):
    """End-to-end metrics over the untraced epochs of every part."""
    def pooled(key):
        return [v for d in docs for v in d["untraced"][key]]

    media = sum(d["untraced"]["counters"]["pm_media_bytes"] for d in docs)
    stored = sum(d["untraced"]["app_bytes"] for d in docs)
    pooled_setups = [v for d in docs for v in d["setup_ns"]]
    return {
        # Epochs per second at the median epoch time (mutate + persist()).
        "ops_per_s": 1e9 / stats.median(pooled("epoch_ns")),
        "durable_p50_us": us(stats.percentile(pooled("persist_ns"), 50)),
        "durable_p90_us": us(stats.percentile(pooled("persist_ns"), 90)),
        "nondurable_p50_us": us(stats.percentile(pooled("mutate_ns"), 50)),
        "pm_write_amp": stats.ratio(media, stored),
        "setup_s": stats.median(pooled_setups) / 1e9,
        "peak_rss_mib": max(stats.parse_vm_hwm_kib(d["proc_status"])
                            for d in docs) / 1024,
    }


def persist_layers(doc, spans):
    t = doc["traced"]
    c = t["counters"]
    epochs = len(t["epoch_ns"])
    m = {name: 0.0 for name, _ in PER_LAYER}
    m.update(counter_metrics(c, epochs))
    m.update(probe_metrics(t))
    m.update(self_time_metrics(spans, epochs))
    m.update({
        "libpax.mutate_us_per_epoch": us(stats.median(t["mutate_ns"])),
        "libpax.fault_us_per_page": us(stats.ratio(
            sum(t["mutate_ns"]) - sum(t["retouch_ns"]), t["pages_touched"])),
        "libpax.sync_us": us(stats.median(t["sync_step_ns"])),
        "libpax.commit_reprotect_us": us(stats.median(t["persist_ns"])),
        "wal.records_per_epoch": stats.ratio(c["log_records"], epochs),
        "wal.flushes_per_epoch": stats.ratio(c["log_flushes"], epochs),
        "wal.ring_full_stalls": c["ring_full_stalls"],
        "trace.overhead_frac": stats.ratio(
            sum(t["epoch_ns"]) / epochs,
            sum(doc["untraced"]["epoch_ns"]) / len(doc["untraced"]["epoch_ns"])
        ) - 1,
    })
    return m


# --- kv_write / kv_read --------------------------------------------------------

def run_kv(args, paxbench, paxkv):
    """Starts paxkv SETUPS times; the last server is preloaded and driven."""
    setups = []
    failed = 0
    for _ in range(SETUPS - 1):
        server = Server(paxkv)
        setups.append(server.ready_s)
        if server.stop() != 0:
            log("paxkv did not exit cleanly")
            failed += 1

    cmd = [paxbench, "kv", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", trace_path(args, ".client")]
    if args.corrupt_expected:
        cmd.append("--corrupt-expected")
    server = Server(paxkv)
    setups.append(server.ready_s)
    try:
        client = run_json(cmd + ["--port", str(server.port),
                                 "--server-pid", str(server.proc.pid)],
                          timeout=120)
    finally:
        code = server.stop()
    if code != 0:
        log(f"paxkv exited with {code}")
        failed += 1
    attempted = client["attempted"]
    failed += client["failed"]
    if client["failed"]:
        log(f"{client['failed']} of {attempted} requests failed")

    cmd = [paxbench, "kv-replay", "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", trace_path(args, ".replay")]
    if args.corrupt_expected:
        cmd.append("--corrupt-expected")
    replay = run_json(cmd, timeout=60)
    attempted += replay["attempted"]
    failed += replay["failed"]
    if replay["failed"]:
        log(f"{replay['failed']} of {replay['attempted']} replayed ops failed")

    if args.trace:
        spans = stats.load_chrome_trace(trace_path(args, ".replay"))
        merge_traces([trace_path(args, ".client"), trace_path(args, ".replay")],
                     trace_path(args))
        metrics = kv_layers(client, replay, spans)
    else:
        metrics = kv_e2e(client, replay, setups)
    mismatches = client["mismatches"] + replay["mismatches"]
    if mismatches:
        log(f"{mismatches} replies or keys differ from the expected values")
    return metrics, attempted, failed


# Other tenants of the host take its CPUs away (steal) in bursts, and a
# window they hit runs slower. So each kv metric is the median over the
# calm windows: those with at most the CALM_Q-th percentile of the run's
# per-window steal (every window, when the host was calm throughout).
CALM_Q = 25


def calm_latency(client, key, q):
    """Median over the calm windows of each window's q-th percentile."""
    per_window = [stats.percentile(b, q) if b else None for b in client[key]]
    calm = stats.calm(per_window, stats.window_steal(client["host_stat"]),
                      CALM_Q)
    return stats.median([v for v in calm if v is not None])


def window_rates(client):
    """Replies per second in each window; the last may be shorter."""
    n = len(client["window_ops"])
    size = client["window_ns"]
    lengths = [size] * (n - 1) + [client["timed_ns"] - size * (n - 1)]
    return [stats.rate(ops, ns)
            for ops, ns in zip(client["window_ops"], lengths)]


def kv_e2e(client, replay, setups):
    steal = stats.window_steal(client["host_stat"])
    return {
        "ops_per_s": stats.median(
            stats.calm(window_rates(client), steal, CALM_Q)),
        "durable_p50_us": us(calm_latency(client, "put_ns", 50)),
        "durable_p90_us": us(calm_latency(client, "put_ns", 90)),
        "nondurable_p50_us": us(calm_latency(client, "get_ns", 50)),
        "pm_write_amp": stats.ratio(replay["counters"]["pm_media_bytes"],
                                    replay["app_bytes"]),
        "setup_s": stats.median(setups),
        "peak_rss_mib": stats.parse_vm_hwm_kib(client["proc_status"]) / 1024,
    }


def kv_layers(client, replay, spans):
    waves = replay["waves"]
    live = stats.delta(stats.parse_stats_doc(client["stats_before"]),
                       stats.parse_stats_doc(client["stats_after"]))
    cpu = stats.delta(stats.parse_proc_stat(client["proc_stat_before"]),
                      stats.parse_proc_stat(client["proc_stat_after"]))
    tick_us = 1e6 / os.sysconf("SC_CLK_TCK")
    ops = live["requests"]
    m = {name: 0.0 for name, _ in PER_LAYER}
    m.update(counter_metrics(replay["counters"], waves))
    m.update(probe_metrics(replay))
    m.update(self_time_metrics(spans, waves))
    m.update({
        "kv.store_put_p50_us": us(stats.percentile(replay["put_ns"], 50)),
        "kv.store_put_p99_us": us(stats.percentile(replay["put_ns"], 99)),
        "kv.store_get_p50_us": us(stats.percentile(replay["get_ns"], 50)),
        "kv.store_get_p99_us": us(stats.percentile(replay["get_ns"], 99)),
        "kv.get_floor_us": us(client["get_floor_ns"]),
        "kv.preload_us_per_key": us(stats.ratio(client["preload_ns"],
                                                client["keys"])),
        "kv.server_user_us_per_op": stats.ratio(cpu["utime"] * tick_us, ops),
        "kv.server_sys_us_per_op": stats.ratio(cpu["stime"] * tick_us, ops),
        "group.wave_p50_us": us(stats.percentile(replay["wave_ns"], 50)),
        "group.wave_p99_us": us(stats.percentile(replay["wave_ns"], 99)),
        "group.ops_per_wave": stats.ratio(live["wave_ops"], live["waves"]),
        "group.log_flushes_per_acked_write": stats.ratio(
            live["log_flushes_total"], live["acked_write_ops"]),
        "wal.records_per_epoch": stats.ratio(live["log_records"],
                                             live["waves"]),
        "wal.flushes_per_epoch": stats.ratio(live["log_flushes"],
                                             live["waves"]),
        "wal.ring_full_stalls": live["ring_full_stalls"],
        # Spans are recorded in odd windows only.
        "trace.overhead_frac": stats.ratio(
            stats.median(window_rates(client)[0::2]),
            stats.median(window_rates(client)[1::2])) - 1,
    })
    return m


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-expected", action="store_true",
                        help="plant one wrong expected value (gate self-test)")
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # Turn SIGTERM into an exception so running children are stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        paxbench, paxkv = build()
        os.makedirs(TRACES, exist_ok=True)
        if args.workload.startswith("kv_"):
            metrics, attempted, failed = run_kv(args, paxbench, paxkv)
        else:
            metrics, attempted, failed = run_persist(args, paxbench)
    except (BenchError, subprocess.TimeoutExpired, OSError) as e:
        log(str(e))
        return 1

    names = PER_LAYER if args.trace else E2E
    for name, unit in names:
        print(f"{name:<40} {metrics[name]:>16.4f} {unit}")
    print(f"{'attempted':<40} {attempted:>16d}")
    print(f"{'failed':<40} {failed:>16d}")
    if args.trace:
        print(f"trace: {os.path.relpath(trace_path(args), ROOT)}")
        if metrics["trace.covered_frac"] < MIN_COVERED_FRAC:
            log(f"timed calls cover {metrics['trace.covered_frac']:.3f} of "
                f"each unit, below {MIN_COVERED_FRAC}")
    correct = failed == 0
    if not correct:
        log("correctness gate FAILED")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in names},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
