#!/usr/bin/env python3
"""Client-side benchmark of cliffhangerd, the memcached-ASCII daemon.

One run builds cliffhangerd and perfbench_tool from the checkout (Release,
into $CARGO_TARGET_DIR or .bench_build), spawns the daemon with default
flags and --port 0 pinned to one CPU set, and drives it from a load
generator pinned to a disjoint CPU set: one event-loop thread with 4
non-blocking connections, fed by a lookahead thread that prepares each
op's key and payload. Every reply is verified byte for byte.

    python3 perfbench/run.py --workload etc_openloop --seed 1 --seconds 10 --trace 0

--trace 0 prints the end-to-end metrics (tracing off). --trace 1 runs a
shorter daemon window for the client-side counters, then the traced
in-process replay into each layer, and prints the per-layer metrics.

    python3 perfbench/run.py --steadiness 5 [--workload W ...] [--trace 0]

repeats each workload with seeds 1..N and prints every metric's median,
quartiles and spread (quartile distance over median).

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

import argparse
import hashlib
import json
import os
import re
import select
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("etc_openloop", "etc_pipelined", "cliff_tenants")
SETUPS = 5  # set-ups per run; setup_s is their median
TOOL_TIMEOUT_S = 150

# Reported with tracing off, on every workload.
END_TO_END = {
    "setup_s": "s",
    "get_p50_us": "us",
    "set_p50_us": "us",
    "hit_rate": "ratio",
    "ok_rate": "ratio",
    "server_cpu_us_per_op": "us",
    "server_rss_mb": "MiB",
}

# From the traced run. See perfbench/README.md for the end-to-end metric
# and workload each one should move.
PER_LAYER = {
    "client.throughput_ops_s": "ops/s",
    "client.get_p99_us": "us",
    "client.set_p99_us": "us",
    "client.send_lag_p99_us": "us",
    "client.cpu_us_per_op": "us",
    "client.error_rate": "ratio",
    "socket_server.self_us_per_op": "us",
    "socket_server.frames_per_burst": "count",
    "socket_server.handle_calls_per_op": "count",
    "socket_server.ctx_switches_per_op": "count",
    "ascii_protocol.ns_per_frame": "ns",
    "cache_adapter.ns_per_op.burst1": "ns",
    "cache_adapter.ns_per_op.burstN": "ns",
    "cache_adapter.self_ns_per_op": "ns",
    "cache_adapter.protocol_errors": "count",
    "sharded_server.ns_per_op.t1": "ns",
    "sharded_server.ns_per_op.t2": "ns",
    "sharded_server.scaling.t2_over_t1": "ratio",
    "sharded_server.self_ns_per_op": "ns",
    "sharded_server.rebalances": "count",
    "cache_server.ns_per_op": "ns",
    "cache_server.ns_per_get_hit": "ns",
    "cache_server.ns_per_get_miss": "ns",
    "cache_server.ns_per_set": "ns",
    "cache_server.hit_rate": "ratio",
    "cache_server.hill_shadow_hits": "count",
    "cache_server.cliff_shadow_hits": "count",
    "cache_server.shadow_overhead_bytes": "bytes",
    "cache_server.value_bytes": "bytes",
    "trace.overhead_pct": "%",
    "ledger.layer_sum_us": "us",
    "ledger.unexplained_us": "us",
    "ledger.spread_us": "us",
    "ledger.within_spread": "count",
}


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --------------------------------------------------------------------------
# Build
# --------------------------------------------------------------------------
def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build():
    for need in ("CMakeLists.txt", "src/net/cliffhangerd_main.cc"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            raise BenchError(f"repository source {need} not found next to perfbench/")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target",
                    "perfbench_tool", "cliffhangerd"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return (os.path.join(out, "perfbench_tool"),
            os.path.join(out, "cliffhanger", "cliffhangerd"))


def build_type():
    try:
        with open(os.path.join(build_dir(), "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_id():
    """The git commit when the checkout is a repository; otherwise a hash
    of the sources the benchmark builds."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if sha.returncode == 0:
                return "git:" + sha.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


# --------------------------------------------------------------------------
# Processes
# --------------------------------------------------------------------------
def cpu_sets():
    """Two CPUs for the daemon (its two connection workers), the next two
    for the generator: its event loop on the first, its lookahead thread
    on the second. Disjoint whenever the host has 3+."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) >= 3:
        return cpus[:2], cpus[2:4]
    if len(cpus) == 2:
        return [cpus[0]], [cpus[1]]
    return cpus, cpus


def cpu_ticks():
    """(steal, total) jiffies over all CPUs, from /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return fields[7], sum(fields[:8])


def pinned(cpus):
    return lambda: os.sched_setaffinity(0, cpus)


class Daemon:
    """cliffhangerd with default flags, --port 0 and the workload's apps."""

    BANNER = re.compile(r"listening on port (\d+) .*?, (\w+) backend")

    def __init__(self, binary, extra_args, cpus):
        start = time.monotonic()
        self.proc = subprocess.Popen([binary, "--port", "0", *extra_args],
                                     stdin=subprocess.DEVNULL,
                                     stdout=subprocess.DEVNULL,
                                     stderr=subprocess.PIPE,
                                     preexec_fn=pinned(cpus))
        banner = b""
        deadline = start + 10
        match = None
        while not match:
            left = deadline - time.monotonic()
            ready, _, _ = select.select([self.proc.stderr], [], [], max(0, left))
            chunk = os.read(self.proc.stderr.fileno(), 4096) if ready else b""
            if not chunk:
                self.stop()
                raise BenchError("cliffhangerd did not print its banner: "
                                 + banner.decode(errors="replace"))
            banner += chunk
            match = self.BANNER.search(banner.decode(errors="replace"))
        self.ready_s = time.monotonic() - start
        self.port = int(match.group(1))
        self.backend = match.group(2)
        self.pid = self.proc.pid

    def vm_hwm_mb(self):
        with open(f"/proc/{self.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("VmHWM missing from /proc status")

    def stop(self):
        """SIGTERM, wait; True when the daemon exited cleanly."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
                return False
        self.proc.stderr.close()
        return self.proc.returncode == 0


def run_tool(tool, args, cpus):
    proc = subprocess.run([tool, *args], capture_output=True, text=True,
                          timeout=TOOL_TIMEOUT_S, preexec_fn=pinned(cpus))
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"perfbench_tool {args[0]} failed ({proc.returncode})")
    return json.loads(lines[-1])


# --------------------------------------------------------------------------
# Runs
# --------------------------------------------------------------------------
def daemon_window(tool, daemon_bin, workload, seed, seconds, setups):
    """`setups` set-ups (daemon spawn until ready + prefill/warm-up); the
    last one is kept and measured for `seconds`."""
    server_cpus, client_cpus = cpu_sets()
    extra = run_tool(tool, ["daemon-args", "--workload", workload],
                     client_cpus)["args"]
    setup_times, setup_errors, clean = [], 0, True
    for i in range(setups):
        daemon = Daemon(daemon_bin, extra, server_cpus)
        try:
            args = ["load", "--workload", workload, "--seed", str(seed),
                    "--port", str(daemon.port),
                    "--client-cpus", ",".join(map(str, client_cpus))]
            if i < setups - 1:
                out = run_tool(tool, args + ["--setup-only"], client_cpus)
            else:
                steal0, total0 = cpu_ticks()
                out = run_tool(tool, args + ["--pid", str(daemon.pid),
                                             "--seconds", str(seconds),
                                             "--slices", str(slices(seconds))],
                               client_cpus)
                steal1, total1 = cpu_ticks()
                out["steal_pct"] = (100.0 * (steal1 - steal0)
                                    / max(1, total1 - total0))
                out["server_rss_mb"] = daemon.vm_hwm_mb()
                out["backend"] = daemon.backend
        finally:
            clean &= daemon.stop()
        setup_times.append(daemon.ready_s + out["setup_s"])
        setup_errors += out["setup_errors"]
    out["setup_times"] = setup_times
    out["setup_errors"] = setup_errors
    out["daemon_clean_exit"] = clean
    return out


def slices(seconds):
    """One-second slices: throughput, latency percentiles and server CPU
    are medians over them, so a stall of the shared host in one slice does
    not swing a whole run."""
    return max(1, round(seconds))


def end_to_end(tool, daemon_bin, workload, seed, seconds):
    w = daemon_window(tool, daemon_bin, workload, seed, seconds, SETUPS)
    metrics = {name: w[name] for name in (
        "get_p50_us", "set_p50_us", "server_cpu_us_per_op", "server_rss_mb")}
    metrics["setup_s"] = statistics.median(w["setup_times"])
    metrics["hit_rate"] = w["get_hits"] / max(1, w["gets"])
    metrics["ok_rate"] = w["completed"] / max(1, w["attempted"])
    return w, metrics


def traced(tool, daemon_bin, workload, seed, seconds):
    """Client counters from a daemon window, then the in-process replay of
    the same op stream into every layer."""
    w = daemon_window(tool, daemon_bin, workload, seed, seconds / 2, 1)
    ops = max(1, w["completed"])
    server_cpus, client_cpus = cpu_sets()
    spans_dir = os.path.join(os.path.dirname(build_dir()), "spans")
    os.makedirs(spans_dir, exist_ok=True)
    layers = run_tool(tool, ["layers", "--workload", workload,
                             "--seed", str(seed),
                             "--seconds", str(seconds / 2),
                             "--server-cpus", ",".join(map(str, server_cpus)),
                             "--client-cpus", ",".join(map(str, client_cpus)),
                             "--spans", os.path.join(spans_dir,
                                                     workload + ".csv")],
                      sorted(set(server_cpus) | set(client_cpus)))
    metrics = {name: layers[name] for name in PER_LAYER if name in layers}
    # Throughput and tail latency are diagnostics here: on a shared VM they
    # follow the hypervisor's steal and preemptions more than the daemon.
    metrics["client.throughput_ops_s"] = w["throughput_ops_s"]
    metrics["client.get_p99_us"] = w["get_p99_us"]
    metrics["client.set_p99_us"] = w["set_p99_us"]
    metrics["client.send_lag_p99_us"] = w["lag_p99_us"]
    metrics["client.cpu_us_per_op"] = w["client_cpu_s"] * 1e6 / ops
    metrics["client.error_rate"] = w["errors"] / max(1, w["attempted"])
    metrics["socket_server.ctx_switches_per_op"] = w["server_ctx_switches"] / ops
    # Ledger: the daemon's client-observed median op time against the sum
    # of the layer self times, judged by the traced run's own spread.
    unexplained = w["all_p50_us"] - layers["ledger.layer_sum_us"]
    metrics["ledger.unexplained_us"] = unexplained
    metrics["ledger.within_spread"] = float(abs(unexplained)
                                            <= layers["ledger.spread_us"])
    missing = [name for name in PER_LAYER if name not in metrics]
    if missing:
        raise BenchError("layer metrics missing: " + ", ".join(missing))
    w["errors"] += layers["errors"]
    return w, metrics


def run_once(tool, daemon_bin, workload, seed, seconds, trace):
    if trace:
        window, values = traced(tool, daemon_bin, workload, seed, seconds)
        units = PER_LAYER
    else:
        window, values = end_to_end(tool, daemon_bin, workload, seed, seconds)
        units = END_TO_END
    # No workload legalises an error: every reply must verify.
    correct = (window["errors"] == 0 and window["setup_errors"] == 0
               and window["daemon_clean_exit"])
    result = {
        "correct": correct,
        "attempted": int(window["attempted"]),
        "failed": int(window["errors"]),
        "metrics": {name: {"value": float(values[name]), "unit": units[name]}
                    for name in units},
    }
    stamp = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "nproc": os.cpu_count(),
        "server_cpus": cpu_sets()[0],
        "client_cpus": cpu_sets()[1],
        "backend": window["backend"],
        # Stream ops the measured window drew, [first, end).
        "stream_ops": [window["stream_first"], window["stream_end"]],
        # Hypervisor steal over the measured window, all CPUs: the noise
        # floor of a shared VM.
        "steal_pct": round(window["steal_pct"], 2),
        "source": source_id(),
        "build_type": build_type(),
    }
    return stamp, window, result


def print_table(stamp, window, result):
    """Every result metric, plus the client-side figures of the daemon
    window that are diagnostics rather than gated metrics."""
    log(f"run stamp: {json.dumps(stamp)}")
    log(f"  {'error_rate':<38} {window['errors'] / max(1, window['attempted']):.6g} "
        f"({window['errors']} of {window['attempted']} ops: "
        f"{window['mismatch']} mismatch, {window['unexpected']} unexpected, "
        f"{window['timeouts']} timeouts, {window['dropped']} dropped)")
    rows = {name: (m["value"], m["unit"]) for name, m in result["metrics"].items()}
    for name, unit in (("throughput_ops_s", "ops/s"), ("get_p99_us", "us"),
                       ("set_p99_us", "us")):
        rows.setdefault(name, (window[name], unit + " (diagnostic)"))
    for name, (value, unit) in rows.items():
        log(f"  {name:<38} {value:.6g} {unit}")


def steadiness(tool, daemon_bin, workloads, runs, seconds, trace):
    """Prints each metric's median, quartiles and spread over `runs` seeds;
    every run's raw window goes to <build>/steadiness.jsonl."""
    raw_path = os.path.join(os.path.dirname(build_dir()), "steadiness.jsonl")
    for workload in workloads:
        values = {}
        for seed in range(1, runs + 1):
            stamp, window, result = run_once(tool, daemon_bin, workload, seed,
                                             seconds, trace)
            with open(raw_path, "a") as raw:
                raw.write(json.dumps({"stamp": stamp, "window": window,
                                      "result": result}) + "\n")
            print_table(stamp, window, result)
            if not result["correct"]:
                raise BenchError(f"{workload} seed {seed}: replies failed")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"{workload} ({runs} runs, seeds 1..{runs}, {seconds} s)")
        print(f"  {'metric':<38} {'unit':<6} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'spread':>8}")
        units = PER_LAYER if trace else END_TO_END
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"  {name:<38} {units[name]:<6} {med:>12.6g} {q1:>12.6g} "
                  f"{q3:>12.6g} {spread:>8.3f}", flush=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steadiness", type=int, metavar="N", default=0)
    args = ap.parse_args()
    try:
        tool, daemon_bin = build()
        check = run_tool(tool, ["selfcheck"], cpu_sets()[1])
        if not check["ok"]:
            raise BenchError("reply verification self-check failed")
        if args.steadiness:
            steadiness(tool, daemon_bin, args.workload or WORKLOADS,
                       args.steadiness, args.seconds, args.trace)
            return 0
        if not args.workload or len(args.workload) != 1:
            raise BenchError("give exactly one --workload")
        stamp, window, result = run_once(tool, daemon_bin, args.workload[0],
                                         args.seed, args.seconds, args.trace)
    except (BenchError, subprocess.SubprocessError, OSError) as e:
        log(f"perfbench: {e}")
        return 2
    print_table(stamp, window, result)
    print("stamp: " + json.dumps(stamp))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
