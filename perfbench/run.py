#!/usr/bin/env python3
"""perfbench: end-to-end and per-layer benchmark of the shipped crsm_node.

    python3 perfbench/run.py --workload put_5k --seed 1 --seconds 30 --trace 0

Builds crsm_node and perfbench_loadgen from source into .bench_build/, starts
three Clock-RSM replicas on loopback (in-memory log, one core each, node
logs under .bench_run/), drives them from the open-loop load generator
pinned to a fourth core, checks the outputs and prints one JSON object as
the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (tracing off, no metrics port).
--trace 1 is a separate run with --metrics-port and --trace-sample 16 that
reports the per-layer metrics. See perfbench/README.md.
"""

import argparse
import ctypes
import json
import os
import random
import selectors
import shutil
import signal
import socket
import subprocess
import sys
import time
import urllib.request

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUNS = os.path.join(ROOT, ".bench_run")

NODE_COUNT = 3
KEYS = 1000
WARMUP_S = 3.0
TRACE_SAMPLE = 16

# name -> (ops/s over all replicas, share of gets)
WORKLOADS = {
    "put_5k": (5000, 0.0),
    "get_heavy_20k": (20000, 0.9),
}

STAGES = ["queue", "broadcast", "wal", "ack", "stability", "execute", "reply"]

# Per-op counter ratios from /metrics.json, summed over replicas:
# metric name -> (series, unit).
PER_OP_SERIES = {
    "runtime.loop_passes_per_op": ("crsm_loop_passes_total", "count"),
    "runtime.io_dispatch_us_per_op": ("crsm_loop_io_dispatch_us_sum_us", "us"),
    "runtime.protocol_us_per_op": ("crsm_loop_protocol_us_sum_us", "us"),
    "runtime.wire_flush_us_per_op": ("crsm_loop_wire_flush_us_sum_us", "us"),
    "transport.msgs_per_op": ("crsm_transport_messages_sent_total", "count"),
    "transport.bytes_per_op": ("crsm_transport_bytes_sent_total", "bytes"),
    "transport.flushes_per_op": ("crsm_transport_wire_flushes_total", "count"),
    "transport.encodes_per_op": ("crsm_transport_encode_calls_total", "count"),
    "storage.syncs_per_op": ("crsm_storage_syncs_total", "count"),
    "storage.appends_per_op": ("crsm_storage_appends_total", "count"),
    "clockrsm.clocktimes_per_op": ("crsm_proto_clocktimes_sent_total", "count"),
    "clockrsm.clock_waits_per_op": ("crsm_proto_clock_waits_total", "count"),
}

# Timed by perfbench_loadgen --micro: metric name -> (RESULT key, unit).
MICRO = {
    "common.encode_ns_per_frame": ("encode_ns_per_frame", "ns"),
    "common.decode_ns_per_frame": ("decode_ns_per_frame", "ns"),
    "common.batch_make_ns_per_cmd": ("batch_make_ns_per_cmd", "ns"),
    "common.batch_split_ns_per_cmd": ("batch_split_ns_per_cmd", "ns"),
    "kv.apply_ns_per_put": ("apply_ns_per_put", "ns"),
    "kv.apply_read_ns_per_get": ("apply_read_ns_per_get", "ns"),
    "storage.append_us_per_record": ("append_us_per_record", "us"),
    "storage.fdatasync_us": ("fdatasync_us", "us"),
}


class BenchError(Exception):
    pass


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def on_signal(signum, _frame):
    raise SystemExit(128 + signum)


# --- build ------------------------------------------------------------------

def build():
    for need in ("CMakeLists.txt", "src", os.path.join("tools", "crsm_node.cc")):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise BenchError("no %s next to perfbench/: not a source checkout" % need)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 2),
                    "--target", "crsm_node", "perfbench_loadgen"],
                   stdout=sys.stderr, check=True)
    return (os.path.join(BUILD, "tools", "crsm_node"),
            os.path.join(BUILD, "perfbench_loadgen"))


# --- processes --------------------------------------------------------------

_libc = ctypes.CDLL(None, use_errno=True)
PR_SET_PDEATHSIG = 1


def pinned(core):
    """preexec_fn: pin the child (and every thread it starts) to `core`, and
    have the kernel kill it if this process dies without cleaning up."""
    def setup():
        if core is not None:
            os.sched_setaffinity(0, {core})
        _libc.prctl(PR_SET_PDEATHSIG, signal.SIGKILL)
    return setup


def stop(procs, grace_s=10.0):
    for p in procs:
        if p.poll() is None:
            p.send_signal(signal.SIGTERM)
    deadline = time.monotonic() + grace_s
    for p in procs:
        try:
            p.wait(timeout=max(0.1, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            p.kill()
            p.wait()


def free_ports(n, rng):
    """n distinct loopback ports that are bindable right now, below the
    kernel's ephemeral range so outgoing connections do not take them."""
    ports = []
    while len(ports) < n:
        port = rng.randrange(20000, 32000)
        if port in ports:
            continue
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as s:
            try:
                s.bind(("127.0.0.1", port))
            except OSError:
                continue
        ports.append(port)
    return ports


def listening(port):
    """True once a socket listens on loopback `port` (from /proc/net/tcp)."""
    want = ":%04X" % port
    with open("/proc/net/tcp") as f:
        for line in f:
            fields = line.split()
            if fields[1].endswith(want) and fields[3] == "0A":
                return True
    return False


def wait_listening(node, port, i, timeout_s=30):
    deadline = time.monotonic() + timeout_s
    while not listening(port):
        if node.poll() is not None:
            raise NodeExited("replica %d exited with %s" % (i, node.returncode))
        if time.monotonic() > deadline:
            raise BenchError("replica %d did not listen within %d s" % (i, timeout_s))
        time.sleep(0.0002)


def http_get(port, path):
    with urllib.request.urlopen("http://127.0.0.1:%d%s" % (port, path),
                                timeout=10) as r:
        return r.read().decode()


def parse_buckets(text):
    """Cumulative histogram buckets from the Prometheus exposition:
    {series: [(le_us, cumulative_count), ...]} (le = inf for +Inf)."""
    out = {}
    for line in text.splitlines():
        if "_bucket{" not in line:
            continue
        name, rest = line.split("_bucket{", 1)
        le = rest.split('le="', 1)[1].split('"', 1)[0]
        count = float(rest.rsplit(" ", 1)[1])
        out.setdefault(name, []).append(
            (float("inf") if le == "+Inf" else float(le), count))
    return out


def scrape(ports):
    return [{"json": json.loads(http_get(port, "/metrics.json")),
             "buckets": parse_buckets(http_get(port, "/metrics"))}
            for port in ports]


class Lines:
    """Line reader over the load generator's stdout with a deadline, failing
    fast if the generator or any node exits."""

    def __init__(self, gen, nodes):
        self.gen, self.nodes = gen, nodes
        self.buf = b""
        self.sel = selectors.DefaultSelector()
        self.sel.register(gen.stdout, selectors.EVENT_READ)

    def expect(self, prefix, timeout_s):
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            while b"\n" in self.buf:
                line, self.buf = self.buf.split(b"\n", 1)
                line = line.decode()
                if line.startswith(prefix):
                    return line[len(prefix):].strip()
            for i, n in enumerate(self.nodes):
                if n.poll() is not None:
                    raise NodeExited("replica %d exited with %s" % (i, n.returncode))
            if self.sel.select(timeout=0.05):
                chunk = os.read(self.gen.stdout.fileno(), 1 << 16)
                if not chunk:
                    raise BenchError("load generator exited with %s"
                                     % self.gen.wait())
                self.buf += chunk
        raise BenchError("timed out waiting for %s" % prefix.strip())


class NodeExited(BenchError):
    pass


# --- metrics ----------------------------------------------------------------

def bucket_p50(buckets):
    """Median of a cumulative log2-bucket histogram, interpolated linearly
    inside the landing bucket; 0 with no samples."""
    total = buckets[-1][1] if buckets else 0
    if total <= 0:
        return 0.0
    want = total / 2.0
    lo_edge, lo_count = 0.0, 0.0
    for le, cum in buckets:
        if cum >= want:
            hi = le if le != float("inf") else lo_edge * 2
            return lo_edge + (hi - lo_edge) * (want - lo_count) / max(cum - lo_count, 1)
        lo_edge, lo_count = le, cum
    return lo_edge


def merged_delta(before, after, series):
    """Bucket counts of `series` gained over the window, merged over
    replicas."""
    merged = None
    for b, a in zip(before, after):
        now = a["buckets"].get(series, [])
        prev = b["buckets"].get(series) or [(le, 0) for le, _ in now]
        rows = [(le, cum - was) for (le, cum), (_, was) in zip(now, prev)]
        merged = rows if merged is None else [
            (le, c + m) for (le, c), (_, m) in zip(rows, merged)]
    return merged or []


def layer_metrics(before, after, gen_result, micro):
    def delta(series):
        return sum(a["json"].get(series, 0) - b["json"].get(series, 0)
                   for b, a in zip(before, after))

    ops = (after[0]["json"]["crsm_kv_puts_total"]
           - before[0]["json"]["crsm_kv_puts_total"]
           + delta("crsm_kv_gets_total"))
    if ops <= 0:
        raise BenchError("no operations inside the traced window")
    m = {}
    for name, (series, unit) in PER_OP_SERIES.items():
        m[name] = (delta(series) / ops, unit)
    subs = delta("crsm_batch_submissions_total")
    m["runtime.cmds_per_prepare"] = (
        delta("crsm_batch_cmds_total") / subs if subs else 0.0, "count")
    # The replicas keep their log in memory, so the loop's busy time is all
    # CPU (no fdatasync wait in it).
    cpu = gen_result["server_cpu_us"]
    m["runtime.profiled_share_of_cpu"] = (
        delta("crsm_loop_busy_us_sum_us") / cpu if cpu else 0.0, "ratio")

    # Stage medians over the window; 0 for a stage off the workload's path
    # (the read stages on a put-only workload).
    for stage, series in ([(s, "crsm_stage_%s_us" % s) for s in STAGES]
                          + [("read_wait", "crsm_read_wait_us"),
                             ("commit_total", "crsm_commit_total_us"),
                             ("read_total", "crsm_read_total_us")]):
        m["stage.%s_p50_us" % stage] = (
            bucket_p50(merged_delta(before, after, series)), "us")

    for name, (key, unit) in MICRO.items():
        m[name] = (micro[key], unit)
    m["client.send_lag_p99_ms"] = (gen_result["send_lag_p99_ms"], "ms")
    m["client.cpu_us_per_op"] = (gen_result["client_cpu_us_per_op"], "us")
    return m


# --- one run ----------------------------------------------------------------

def run(args):
    rate, read_fraction = WORKLOADS[args.workload]
    node_bin, gen_bin = build()

    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) >= NODE_COUNT + 1:
        node_cores, gen_core = cpus[:NODE_COUNT], cpus[NODE_COUNT]
    else:
        log("only %d cpus: running unpinned" % len(cpus))
        node_cores, gen_core = [None] * NODE_COUNT, None
    if gen_core is not None:
        os.sched_setaffinity(0, {gen_core})

    run_dir = os.path.join(RUNS, str(os.getpid()))
    port_rng = random.Random()
    procs = []
    try:
        for attempt in range(3):
            shutil.rmtree(run_dir, ignore_errors=True)
            os.makedirs(run_dir)
            ports = free_ports(2 * NODE_COUNT if args.trace else NODE_COUNT,
                               port_rng)
            peers = ",".join("127.0.0.1:%d" % p for p in ports[:NODE_COUNT])
            metrics_ports = ports[NODE_COUNT:]
            # The generator starts first and waits, so its own start-up is
            # not in setup_s.
            gen = subprocess.Popen(
                [gen_bin, "--peers", peers, "--rate", str(rate),
                 "--read-fraction", str(read_fraction), "--keys", str(KEYS),
                 "--warmup-s", str(WARMUP_S), "--seconds", str(args.seconds),
                 "--seed", str(args.seed)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                preexec_fn=pinned(gen_core))
            procs.append(gen)
            nodes = []  # by id
            lines = Lines(gen, nodes)
            try:
                lines.expect("STARTED", 60)
                # Replicas start highest id first, each once the one before
                # it listens. The lower id dials the higher, so no dial fails
                # and no reconnect backoff (10 ms, doubling) lands in setup_s.
                t_spawn = time.monotonic()
                for i in reversed(range(NODE_COUNT)):
                    cmd = [node_bin, "--id", str(i), "--peers", peers,
                           "--stats-every", "0"]
                    if args.trace:
                        cmd += ["--metrics-port", str(metrics_ports[i]),
                                "--trace-sample", str(TRACE_SAMPLE)]
                    else:
                        cmd += ["--trace-sample", "0"]
                    with open(os.path.join(run_dir, "node-%d.log" % i), "w") as err:
                        node = subprocess.Popen(
                            cmd, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, stderr=err,
                            preexec_fn=pinned(node_cores[i]))
                    procs.append(node)
                    nodes.insert(0, node)
                    wait_listening(node, ports[i], i)
                gen.stdin.write(("GO %s\n" % ",".join(
                    str(n.pid) for n in nodes)).encode())
                gen.stdin.close()
                ready_ns = int(lines.expect("READY ", 60))
                break
            except NodeExited as e:
                # Most likely a port taken between the probe and the bind.
                log("attempt %d: %s; retrying on fresh ports" % (attempt + 1, e))
                stop(procs)
                procs.clear()
        else:
            raise BenchError("cluster did not come up in 3 attempts")
        setup_s = ready_ns / 1e9 - t_spawn

        before = after = final = None
        lines.expect("WINDOW_START", 60)
        if args.trace:
            before = scrape(metrics_ports)
        lines.expect("WINDOW_END", args.seconds + 60)
        if args.trace:
            after = scrape(metrics_ports)
        result = json.loads(lines.expect("RESULT ", 120))
        if gen.wait(timeout=30) != 0:
            raise BenchError("load generator failed")
        if args.trace:
            final = scrape(metrics_ports)
        stop(nodes)
        for i, n in enumerate(nodes):
            if n.returncode != 0:
                raise BenchError("replica %d exited with %s" % (i, n.returncode))

        micro = None
        if args.trace:
            out = subprocess.run(
                [gen_bin, "--micro", run_dir, "--rate", str(rate),
                 "--read-fraction", str(read_fraction), "--keys", str(KEYS),
                 "--seconds", str(args.seconds), "--seed", str(args.seed)],
                stdin=subprocess.DEVNULL, capture_output=True, text=True,
                check=True, preexec_fn=pinned(gen_core)).stdout
            micro = json.loads(out.strip().splitlines()[-1].split(" ", 1)[1])
    finally:
        stop(procs)
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(RUNS)
        except OSError:
            pass

    # Checks. Conservation needs the metrics endpoint, so only traced runs
    # have it: every replica applied exactly the puts that were acknowledged.
    problems = []
    if result["bad_replies"]:
        problems.append("%d malformed or foreign replies" % result["bad_replies"])
    if result["read_violations"]:
        problems.append("%d gets outside their read bound" % result["read_violations"])
    if result["final_mismatches"]:
        problems.append("%d replicas' final state differs from the model"
                        % result["final_mismatches"])
    if not result["control_caught"]:
        problems.append("positive control (one model write dropped) passed")
    if result["keys_written"] == 0:
        problems.append("no key was written")
    if args.trace:
        for i, snap in enumerate(final):
            applied = snap["json"]["crsm_kv_puts_total"]
            if applied != result["puts_acked"]:
                problems.append("replica %d applied %d puts, %d acknowledged"
                                % (i, applied, result["puts_acked"]))
    for p in problems:
        log("CHECK FAILED: " + p)

    log("%s seed %d: %d ops (%d gets), %d failed, setup %.3f s, p50 %.3f ms, "
        "p90 %.3f ms, p99 %.3f ms, send lag p99 %.3f ms, server %.1f us/op"
        % (args.workload, args.seed, result["attempted"], result["gets"],
           result["failed"], setup_s, result["op_p50_ms"], result["op_p90_ms"],
           result["op_p99_ms"], result["send_lag_p99_ms"],
           result["server_cpu_us_per_op"]))

    if args.trace:
        metrics = layer_metrics(before, after, result, micro)
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "op_p50_ms": (result["op_p50_ms"], "ms"),
            "server_cpu_us_per_op": (result["server_cpu_us_per_op"], "us"),
        }
    return {
        "correct": not problems,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    for s in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(s, on_signal)
    try:
        out = run(args)
    except (BenchError, subprocess.CalledProcessError, OSError) as e:
        log("error: %s" % e)
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
