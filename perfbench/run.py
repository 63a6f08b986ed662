#!/usr/bin/env python3
"""End-to-end benchmark of ReSim (workloads and metrics: perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--trace 0|1]     # every workload, seed 1

Builds resim_cli and the harness from this checkout's sources, generates
the workload's inputs from the seed, measures for --seconds, checks every
output, and prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. A human-readable summary goes to stderr. The build goes
to $CARGO_TARGET_DIR (default .bench_build), scratch files to .bench_run
(removed at exit), span logs to .bench_out.
"""
import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep_cache", "sampled_sweep", "serve_openloop")
# Set-up repeats at least SETUP_MIN_REPS times and for SETUP_MIN_S
# seconds; setup_s is the median.
SETUP_MIN_REPS = 5
SETUP_MIN_S = 3.0
DIGESTS = os.path.join(HERE, "digests.json")


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build():
    """Configure and build perfbench/CMakeLists.txt; returns the binary dir."""
    for need in ("src/resim/resim.hpp", "tools/resim_cli.cpp", "configs/paper_4wide_perfect.cfg"):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise BenchError("no ReSim sources in this checkout (missing %s)" % need)
    bdir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", bdir, "-j", str(min(4, cpus()))],
                   stdout=sys.stderr, check=True)
    return bdir


def quantile(values, q):
    """Nearest-rank quantile, as the harness computes it."""
    v = sorted(values)
    return v[min(len(v), max(1, math.ceil(q * len(v)))) - 1]


def tail(values):
    """p99, or with fewer than 1000 samples the highest percentile that
    still has ten samples beyond it, and never below the median."""
    return quantile(values, min(0.99, max(0.5, 1 - 10 / len(values))))


class Run:
    """One workload run in its own scratch directory under .bench_run."""

    def __init__(self, bdir, workload, seed, seconds, trace):
        self.bdir, self.workload, self.seed = bdir, workload, seed
        self.seconds, self.trace = seconds, trace
        self.dir = os.path.join(ROOT, ".bench_run", "%s-%d-%d" % (workload, seed, os.getpid()))
        self.env = dict(os.environ, TMPDIR=os.path.join(self.dir, "tmp"))
        self.spans = os.path.join(ROOT, ".bench_out", "spans-%s-%d.json" % (workload, seed))
        self.deadline = time.monotonic() + 170

    def common(self):
        return ["--dir", self.dir, "--root", ROOT, "--seed", str(self.seed)]

    def harness(self, args):
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("out of time")
        p = subprocess.run([os.path.join(self.bdir, "resim_bench")] + args, cwd=self.dir,
                           env=self.env, stdout=subprocess.PIPE, text=True, timeout=left)
        if p.returncode != 0:
            raise BenchError("resim_bench %s exited with %d" % (args[0], p.returncode))
        return json.loads(p.stdout.strip().splitlines()[-1])

    def setup(self, once, undo=None):
        """Times `once`, one whole set-up returning the harness's setup
        output, at least SETUP_MIN_REPS times and for SETUP_MIN_S; `undo`
        runs untimed between repeats."""
        times, gen, save = [], [], []
        start = time.perf_counter()
        while len(times) < SETUP_MIN_REPS or time.perf_counter() - start < SETUP_MIN_S:
            if times and undo is not None:
                undo()
            t0 = time.perf_counter()
            s = once()
            times.append(time.perf_counter() - t0)
            gen.append(s["gen_s"])
            save.append(s["save_s"])
        return times, gen, save

    def make_inputs(self):
        return self.harness(["setup", self.workload] + self.common())

    def execute(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(os.path.join(self.dir, "tmp"))
        os.makedirs(os.path.dirname(self.spans), exist_ok=True)
        try:
            if self.workload == "serve_openloop":
                return self.serve()
            times, gen, save = self.setup(self.make_inputs)
            args = ["run", self.workload] + self.common() + [
                "--seconds", str(self.seconds), "--threads", str(min(4, cpus())),
                "--trace", "1" if self.trace else "0"]
            if self.trace:
                args += ["--spans", self.spans]
            res = self.harness(args)
            rates = [i / w / 1e6 for i, w in zip(res["insts"], res["wall_s"])]
            return {
                "setup": times, "gen": gen, "save": save, "res": res,
                "correctness_failed": res["failed"],
                "e2e": None if self.trace else {
                    "sim_minsts_per_s": statistics.median(rates),
                    "latency_p50_ms": 1e3 * quantile(res["wall_s"], 0.5),
                    "latency_p99_ms": 1e3 * tail(res["wall_s"]),
                    "peak_rss_mb": statistics.median(res["rss_mb"]),
                    "samples": len(res["wall_s"]),
                },
            }
        finally:
            shutil.rmtree(self.dir, ignore_errors=True)

    # --- serve_openloop: a resim_cli serve daemon under open-loop load ----

    def client(self, *args):
        """Runs `resim_cli client` against the daemon; True if it succeeded."""
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("out of time")
        p = subprocess.run([os.path.join(self.bdir, "resim_cli"), "client", "--socket", "serve.sock"]
                           + list(args), cwd=self.dir, stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL, timeout=left)
        return p.returncode == 0

    def start_daemon(self):
        """Starts `resim_cli serve` and waits until it answers a ping."""
        daemon = subprocess.Popen(
            [os.path.join(self.bdir, "resim_cli"), "serve", "--socket", "serve.sock", "-j", "1"],
            cwd=self.dir, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        end = time.monotonic() + 20
        while not self.client("--ping"):
            if daemon.poll() is not None:
                raise BenchError("serve daemon exited with %d" % daemon.returncode)
            if time.monotonic() > end:
                self.stop_daemon(daemon)
                raise BenchError("serve daemon did not start")
            time.sleep(0.002)
        return daemon

    def stop_daemon(self, daemon):
        try:
            if self.client("--shutdown"):
                daemon.wait(timeout=20)
                return
        except (BenchError, subprocess.SubprocessError):
            pass
        daemon.kill()
        daemon.wait()

    def serve(self):
        cfg = os.path.join(ROOT, "configs", "paper_4wide_perfect.cfg")
        daemon = None

        def once():
            nonlocal daemon
            s = self.make_inputs()
            daemon = self.start_daemon()
            if not self.client("--sim", "--trace", "serve.rsim", "--config", cfg):
                raise BenchError("the daemon failed the warm-up sim")
            return s

        def undo():
            nonlocal daemon
            self.stop_daemon(daemon)
            daemon = None

        try:
            times, gen, save = self.setup(once, undo)
            args = ["loadgen"] + self.common() + [
                "--seconds", str(self.seconds), "--socket", "serve.sock",
                "--trace", "1" if self.trace else "0"]
            if self.trace:
                args += ["--spans", self.spans]
            res = self.harness(args)
            rss = vm_hwm_mb(daemon.pid)
        finally:
            if daemon is not None:
                self.stop_daemon(daemon)
        lat = res["lat_ms"] or [0.0]
        return {
            "setup": times, "gen": gen, "save": save, "res": res,
            "correctness_failed": res["failed"] - res["busy"] - res["late"],
            "e2e": None if self.trace else {
                "sim_minsts_per_s": res["work_insts"] / res["work_s"] / 1e6,
                "latency_p50_ms": quantile(lat, 0.5),
                "latency_p99_ms": tail(lat),
                "peak_rss_mb": rss,
                "samples": len(res["lat_ms"]),
            },
        }


def vm_hwm_mb(pid):
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("no VmHWM for the daemon")


# --- reporting ---------------------------------------------------------------

def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        raise BenchError("no BENCHMARK.json at the checkout root")
    with open(path) as f:
        return json.load(f)


def pinned_digest(workload, seed):
    if not os.path.exists(DIGESTS):
        return None
    with open(DIGESTS) as f:
        return json.load(f).get(workload, {}).get(str(seed))


def pin_digest(workload, seed, digest):
    table = {}
    if os.path.exists(DIGESTS):
        with open(DIGESTS) as f:
            table = json.load(f)
    table.setdefault(workload, {})[str(seed)] = digest
    with open(DIGESTS, "w") as f:
        json.dump(table, f, indent=2, sort_keys=True)
        f.write("\n")


def measure(bdir, spec, workload, seed, seconds, trace, pin=False):
    out = Run(bdir, workload, seed, seconds, trace).execute()
    res = out["res"]
    attempted, failed = int(res["attempted"]), int(res["failed"])
    bad = int(out["correctness_failed"])
    errors = list(res["errors"])
    want = pinned_digest(workload, seed)
    if pin:
        pin_digest(workload, seed, res["digest"])
    elif want is not None and want != res["digest"]:
        errors.append("output digest %s differs from the pinned %s" % (res["digest"], want))
        bad, failed = bad + attempted, attempted
    values = {"failed_frac": failed / attempted}
    if trace:
        values.update(res["layers"])
        values["trace.gen_s"] = statistics.median(out["gen"])
        values["trace.save_s"] = statistics.median(out["save"])
        metrics = spec["per_layer"]
    else:
        values.update(out["e2e"])
        values["setup_s"] = statistics.median(out["setup"])
        metrics = spec["end_to_end"]
    for e in errors:
        log("%s: error: %s" % (workload, e))
    log("%s seed %d (%s): attempted %d, failed %d (failed_frac %.4g)" % (
        workload, seed, "traced" if trace else "%d timed samples" % values["samples"],
        attempted, failed, values["failed_frac"]))
    report = {}
    for m in metrics:
        v = float(values.get(m["name"], 0.0))
        report[m["name"]] = {"value": v, "unit": m["unit"]}
        log("  %-28s %14.6g %s" % (m["name"], v, m["unit"]))
    return {"correct": bad == 0, "attempted": attempted, "failed": failed, "metrics": report}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true", help="run every workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin", action="store_true",
                    help="record this seed's output digest in perfbench/digests.json")
    args = ap.parse_args()
    if not args.all and args.workload is None:
        ap.error("give --workload NAME or --all")
    try:
        spec = load_spec()
        bdir = build()
        names = WORKLOADS if args.all else (args.workload,)
        seconds = args.seconds or spec["run_seconds"]
        results = {w: measure(bdir, spec, w, args.seed, seconds, bool(args.trace), args.pin)
                   for w in names}
    except (BenchError, OSError, ValueError, KeyError, subprocess.SubprocessError) as e:
        log("perfbench: %s" % e)
        return 1
    print(json.dumps(results if args.all else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
