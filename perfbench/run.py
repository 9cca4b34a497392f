#!/usr/bin/env python3
"""The repository's benchmark: one command per workload run.

    python3 perfbench/run.py --workload sim_knee --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  Builds the rbft library, rbft_noded and
the perfbench driver from source into .bench_build/ (Release), runs the
workload, checks its outputs and prints a summary table followed, as the
last line of standard output, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics named in BENCHMARK.json, from
untraced runs; --trace 1 reports the per-layer metrics from a separate
traced run and writes spans and recorder exports under .bench_out/.
Workloads, metrics and their meaning are described in perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
PERFBENCH = os.path.join(BUILD, "perfbench")
NODED = os.path.join(BUILD, "rbft_noded")

SIM_WORKLOADS = ("sim_knee", "sim_overload", "sim_attack")
REAL_WORKLOAD = "real_loopback"

# real_loopback: set-ups per untraced run, and the client-id range each
# cluster's driver gets (well above its client count, real_driver.cpp).
REAL_SETUPS = 3
REAL_CLIENT_ID_STRIDE = 1000


class BenchError(Exception):
    """A failure that ends the run without a result line."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec


def build():
    """Configures (once) and builds the benchmark package; quiet on success."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("rbft sources (src/) not found next to the benchmark")
    os.makedirs(OUT, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(OUT, "build.log"), "w") as out:
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j", jobs])
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT) != 0:
                raise BenchError(f"build failed: {' '.join(cmd)} (see .bench_out/build.log)")


def last_json_line(text):
    for line in reversed(text.strip().splitlines()):
        line = line.strip()
        if line.startswith("{"):
            return json.loads(line)
    raise BenchError("driver printed no report")


# ---------------------------------------------------------------------------
# Simulated workloads: one perfbench process does everything.

def run_sim(workload, seed, seconds, trace):
    cmd = [PERFBENCH, "sim", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        tag = f"{workload}-seed{seed}"
        cmd += ["--spans", os.path.join(OUT, tag + "-spans.json"),
                "--obs-dir", os.path.join(OUT, tag + "-obs")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=170)
    if proc.returncode not in (0, 1):
        raise BenchError(f"{workload}: driver exited {proc.returncode}: {proc.stderr.strip()}")
    return last_json_line(proc.stdout)


# ---------------------------------------------------------------------------
# real_loopback: run.py owns the node processes, the driver owns the load.

def free_ports(count):
    socks, ports = [], []
    for _ in range(count):
        s = socket.socket()
        s.bind(("127.0.0.1", 0))
        socks.append(s)
        ports.append(s.getsockname()[1])
    for s in socks:
        s.close()
    return ports


def write_config(path, ports, seed):
    """The cluster shape of tools/real_smoke.py, with this run's seed."""
    nodes = ",\n".join(f'    {{ "host": "127.0.0.1", "port": {p} }}' for p in ports)
    with open(path, "w") as f:
        f.write("{\n"
                '  "f": 1,\n'
                f'  "seed": {seed},\n'
                '  "batch_max": 8,\n'
                '  "checkpoint_interval": 16,\n'
                '  "engine_retry_ms": 40,\n'
                '  "cost_model": "zero",\n'
                '  "nodes": [\n' + nodes + "\n  ]\n}\n")


class Cluster:
    """Four rbft_noded processes on fresh ports, in a fresh directory."""

    def __init__(self, workdir, seed):
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        self.workdir = workdir
        self.config = os.path.join(workdir, "cluster.json")
        write_config(self.config, free_ports(4), seed)
        self.logs = [os.path.join(workdir, f"node{i}.log") for i in range(4)]
        self.procs = []
        self.outs = []

    def start(self):
        for i in range(4):
            out = open(os.path.join(self.workdir, f"node{i}.out"), "w")
            self.outs.append(out)
            self.procs.append(subprocess.Popen(
                [NODED, "--config", self.config, "--node", str(i), "--commitlog", self.logs[i]],
                stdout=out, stderr=subprocess.STDOUT))
        deadline = time.monotonic() + 15.0
        for i, proc in enumerate(self.procs):
            path = os.path.join(self.workdir, f"node{i}.out")
            while True:
                with open(path) as f:
                    if "listening" in f.read():
                        break
                if proc.poll() is not None or time.monotonic() > deadline:
                    raise BenchError(f"node {i} did not start (see {path})")
                time.sleep(0.002)

    def pids(self):
        return [p.pid for p in self.procs]

    def stop(self):
        for p in self.procs:
            if p.poll() is None:
                p.send_signal(signal.SIGTERM)
        for p in self.procs:
            try:
                p.wait(timeout=5)
            except subprocess.TimeoutExpired:
                p.kill()
                p.wait()
        for out in self.outs:
            out.close()

    def check_logs(self):
        """Commit logs agree on every shared sequence number and increase
        strictly.  Returns (problems, longest log length)."""
        problems, merged, longest = [], {}, 0
        for i, path in enumerate(self.logs):
            last, count = 0, 0
            try:
                with open(path) as f:
                    lines = f.read().splitlines()
            except FileNotFoundError:
                lines = []
            for line in lines:
                parts = line.split()
                if len(parts) != 2:
                    continue
                seq, fp = int(parts[0]), parts[1]
                if seq <= last:
                    problems.append(f"node {i}: commit log not strictly increasing at seq {seq}")
                last = seq
                count += 1
                if merged.setdefault(seq, fp) != fp:
                    problems.append(f"node {i}: seq {seq} committed {fp}, another node {merged[seq]}")
            longest = max(longest, count)
        return problems[:10], longest


def driver_cmd(cluster, seed, seconds, client_base, gate_only, trace, tag):
    cmd = [PERFBENCH, "real", "--config", cluster.config, "--seed", str(seed),
           "--seconds", str(seconds), "--client-base", str(client_base),
           "--pids", ",".join(str(p) for p in cluster.pids()),
           "--trace", "1" if trace else "0"]
    if gate_only:
        cmd.append("--gate-only")
    if trace:
        cmd += ["--spans", os.path.join(OUT, tag + "-driver-spans.json")]
    return cmd


def real_cluster_run(index, seed, seconds, gate_only, trace, tag):
    """One fresh cluster: start nodes, run the driver through the readiness
    gate (and the steps unless gate_only), stop.  Returns (setup seconds,
    driver report or None, commit-log problems, longest log)."""
    cluster = Cluster(os.path.join(OUT, f"{tag}-cluster{index}"), seed * 1000 + index)
    started = time.monotonic()
    driver = None
    try:
        cluster.start()
        # Fresh client ids per cluster: a reused (client, rid) pair would be
        # answered from the reply cache as already executed.
        cmd = driver_cmd(cluster, seed, seconds, REAL_CLIENT_ID_STRIDE * index, gate_only,
                         trace, tag)
        with open(os.path.join(cluster.workdir, "driver.err"), "w") as err:
            driver = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, text=True)
            first = driver.stdout.readline().strip()
            if first != "ready":
                driver.wait(timeout=30)
                raise BenchError(f"readiness gate not passed (see {cluster.workdir}/driver.err)")
            setup_s = time.monotonic() - started
            rest, _ = driver.communicate(timeout=seconds + 60)
            if driver.returncode not in (0, 1):
                raise BenchError(f"driver exited {driver.returncode}")
        report = None if gate_only else last_json_line(rest)
    finally:
        if driver is not None and driver.poll() is None:
            driver.kill()
            driver.wait()
        cluster.stop()
    problems, longest = cluster.check_logs()
    return setup_s, report, problems, longest


def real_report(report, problems, longest):
    """Adds run.py's own checks and commit-log metrics to a driver report."""
    for p in problems:
        report["correct"] = False
        report["problems"].append(p)
    completed = report["metrics"]["driver.completed"]["value"]
    per_commit = completed / longest if longest else 0.0
    report["metrics"]["runtime.reqs_per_commit"] = {"value": per_commit, "unit": "count", "samples": longest}
    report["metrics"]["bft.reqs_per_batch"] = {"value": per_commit, "unit": "count", "samples": longest}
    if longest == 0:
        report["correct"] = False
        report["problems"].append("no node committed anything")
    return report


def run_real(seed, seconds, trace):
    tag = f"{REAL_WORKLOAD}-seed{seed}"
    if not trace:
        setups = []
        for index in range(REAL_SETUPS - 1):
            setup_s, _, problems, _ = real_cluster_run(index, seed, seconds, True, False, tag)
            setups.append(setup_s)
            if problems:
                raise BenchError("; ".join(problems))
        setup_s, report, problems, longest = real_cluster_run(
            REAL_SETUPS - 1, seed, seconds, False, False, tag)
        setups.append(setup_s)
        report = real_report(report, problems, longest)
        setups.sort()
        report["metrics"]["setup_s"] = {"value": setups[len(setups) // 2], "unit": "s",
                                        "samples": len(setups)}
        return report
    # Traced: the same schedule once untraced (the overhead baseline) and
    # once traced, each on its own fresh cluster.
    _, plain, problems, longest = real_cluster_run(0, seed, seconds, False, False, tag)
    plain = real_report(plain, problems, longest)
    _, traced, problems, longest = real_cluster_run(1, seed, seconds, False, True, tag)
    traced = real_report(traced, problems, longest)
    base = plain["metrics"]["driver.cpu_ms_per_kreq"]["value"]
    now = traced["metrics"]["driver.cpu_ms_per_kreq"]["value"]
    traced["metrics"]["bench.trace_overhead_pct"] = {
        "value": 100.0 * (now - base) / base if base else 0.0, "unit": "%", "samples": 2}
    if not plain["correct"]:
        traced["correct"] = False
        traced["problems"] += ["untraced run: " + p for p in plain["problems"]]
    return traced


# ---------------------------------------------------------------------------

def finish(report, spec, trace):
    """Prints the summary table and the result line; returns the exit code."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics, absent = {}, []
    for m in wanted:
        got = report["metrics"].get(m["name"])
        if got is None:
            if not trace:
                report["correct"] = False
                report["problems"].append(f"metric {m['name']} was not measured")
                continue
            absent.append(m["name"])  # layer not exercised by this workload
            got = {"value": 0.0, "samples": 0}
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
        shown = "n/a" if m["name"] in absent else f"{got['value']:.6g} {m['unit']}"
        print(f"  {m['name']:28s} {shown:>24s}   samples={got['samples']}")
    shown = {m["name"] for m in wanted}
    for name, got in sorted(report["metrics"].items()):
        if name not in shown and not name.startswith("driver."):
            print(f"  also measured: {name} = {got['value']:.6g} {got['unit']}")
    for note in report.get("notes", []):
        print(f"  note: {note}")
    for problem in report.get("problems", []):
        print(f"  CHECK FAILED: {problem}")
    if absent:
        print(f"  reported as 0 (layer not exercised here): {', '.join(absent)}")
    result = {"correct": bool(report["correct"]), "attempted": int(report["attempted"]),
              "failed": int(report["failed"]), "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        spec = load_spec()
        names = SIM_WORKLOADS + (REAL_WORKLOAD,)
        if args.workload not in names:
            raise BenchError(f"unknown workload {args.workload}; choose from {names}")
        build()
        if args.workload in SIM_WORKLOADS:
            report = run_sim(args.workload, args.seed, args.seconds, bool(args.trace))
        else:
            report = run_real(args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, subprocess.TimeoutExpired, ValueError, KeyError) as e:
        log(f"perfbench: {e}")
        return 1
    print(f"{args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    return finish(report, spec, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
