#!/usr/bin/env python3
"""The repo benchmark: end-to-end and per-layer speed of the simulator.

Two ways to run it, both from the repository root:

  python3 perfbench/run.py [--seed S] [--smoke]
      One *set*: every workload three times in fresh processes,
      interleaved (w1 w2 w3 w4 w1 ...), then one traced pass per
      workload. Prints every end-to-end and per-layer metric by name
      with its unit, and writes .bench_build/benchmark_set.json.
      --smoke runs everything at 1/50 length (the ctest registered in
      perfbench/CMakeLists.txt).

  python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1
      One run of one workload. With --trace 0 it repeats the workload in
      fresh processes until T host seconds were measured (at least three
      repetitions) and reports the end-to-end metrics as medians; with
      --trace 1 it runs the traced pass and reports the per-layer
      metrics. The last line of stdout is one JSON object with the keys
      correct, attempted, failed and metrics; the full record, host
      included, goes to .bench_build/results/.

Metric and workload names come from BENCHMARK.json at the repository
root. The program is built from source into .bench_build first (the
CMake package in this directory). Outputs are checked: the stat-tree
digests of all repetitions, of the traced run and of the parallel
workload's multi-worker twin must agree and must equal
perfbench/digests.json for its seed, and every failure counter (oracle
read failures, checker violations, aborted or undrained transactions,
past-tick schedules) must be zero. A digest mismatch marks every op of
the workload as failed; any failure exits non-zero.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
DIGESTS = os.path.join(HERE, "digests.json")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

SMOKE_SCALE = 1.0 / 50
MIN_REPS = 3
# A single run must finish within 180 s; no repetition starts after this.
REP_DEADLINE_S = 120.0
LAYER_SECONDS = 0.5
SMOKE_LAYER_SECONDS = 0.02


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def host_threads():
    return len(os.sched_getaffinity(0))


def twin_workers():
    """Engine workers of the parallel workload's traced twin."""
    return max(1, min(4, host_threads()))


def build():
    """Configure and build the benchmark package (both no-ops when up
    to date); exit 1 on failure without printing a result."""
    for cmd in (["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", BUILD, "-j", str(twin_workers())]):
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("run.py: build failed: " + " ".join(cmd))
            sys.exit(1)


def run_json(cmd):
    """Run @p cmd and parse the JSON object on its last stdout line;
    None if it failed."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=170)
    except subprocess.TimeoutExpired:
        log("run.py: timed out: " + " ".join(cmd))
        return None
    if proc.stderr:
        log(proc.stderr.rstrip())
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("run.py: failed (exit %d): %s" % (proc.returncode,
                                              " ".join(cmd)))
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        log("run.py: unparsable output of " + " ".join(cmd))
        return None


def run_rep(workload, seed, scale, trace=False, workers=1):
    cmd = [os.path.join(BUILD, "bench_e2e"), "--workload", workload,
           "--seed", str(seed), "--scale", repr(scale),
           "--workers", str(workers)]
    if trace:
        cmd.append("--trace")
    return run_json(cmd)


def run_layers(n, reject_frac, seconds):
    return run_json([os.path.join(BUILD, "bench_layers"), "--n", str(n),
                     "--reject-frac", repr(reject_frac),
                     "--min-seconds", repr(seconds)])


def nearest_rank(values, q):
    """Nearest-rank percentile: with 200 chunks, p90 leaves 20 samples
    beyond it."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def ratio(a, b):
    return a / b if b else 0.0


def end_to_end(reps):
    """End-to-end metrics of a workload: medians over its repetitions."""
    def med(f):
        return statistics.median(f(r) for r in reps)
    return {
        "sim_proc_us_per_s": med(lambda r: r["n"] ** 2 * r["measure_ticks"]
                                 / 1e3 / r["measure_s"]),
        "chunk_ms_p50": med(lambda r: nearest_rank(r["chunk_ms"], 0.50)),
        "chunk_ms_p90": med(lambda r: nearest_rank(r["chunk_ms"], 0.90)),
        "setup_s": med(lambda r: r["setup_s"]),
        "peak_rss_mb": med(lambda r: r["peak_rss_kb"] / 1024.0),
    }


def attributed_ns(u, layers, mlt_calls):
    """Measured-interval host ns the isolated layer costs account for:
    each layer's op count times its isolated ns/op."""
    c = u["counts"]
    n = u["n"]
    taps = 1 if c["checker_ops"] else 0  # the checker taps every bus
    deliveries = c["row_ops"] * (n + taps) + c["col_ops"] * (n + 1 + taps)
    queries = c["filter_hits"] + c["filter_rejects"]
    finds = c["filter_hits"] + c["hits"] + c["misses"]
    return (c["events"] * layers["eventq_ns_per_event"]
            + deliveries * layers["bus_ns_per_agent_delivery"]
            + queries * layers["filter_ns_per_query_512"]
            + finds * layers["cache_ns_per_find"]
            + c["misses"] * layers["cache_ns_per_fill"]
            + mlt_calls * layers["mlt_ns_per_op"]
            + c["col_ops"] * layers["mem_ns_per_snoop"])


def per_layer(u, t, twin, layers):
    """Per-layer metrics from the untraced rep @p u, the traced rep
    @p t, the multi-worker twin (parallel workload only) and the
    isolated layer costs @p layers."""
    c = u["counts"]
    kinds = t["prof_kinds"]

    def self_ns(kind):
        return kinds.get(kind, {}).get("self_ns", 0)

    def count(kind):
        return kinds.get(kind, {}).get("count", 0)

    def frac(kind):
        return ratio(self_ns(kind), t["prof_wall_ns"])

    bus_ticks = u["n"] * u["measure_ticks"]
    queries = c["filter_hits"] + c["filter_rejects"]
    m = {
        "eventq.events": c["events"],
        "eventq.events_per_txn": ratio(c["events"], c["misses"]),
        "eventq.ns_per_event": layers["eventq_ns_per_event"],
        "eventq.self_frac": frac("event"),
        "bus.ops_per_txn": ratio(c["row_ops"] + c["col_ops"], c["misses"]),
        "bus.row_util": ratio(c["row_busy_ticks"], bus_ticks),
        "bus.col_util": ratio(c["col_busy_ticks"], bus_ticks),
        "bus.queue_delay_ns_p50": u["queue_delay_ns_p50"],
        "bus.queue_delay_ns_p95": u["queue_delay_ns_p95"],
        "bus.ns_per_agent_delivery": layers["bus_ns_per_agent_delivery"],
        "bus.arb_self_frac": frac("bus_arb"),
        "bus.deliver_self_frac": frac("bus_deliver"),
        "filter.queries": queries,
        "filter.reject_frac": ratio(c["filter_rejects"], queries),
        "cache.hit_rate": ratio(c["hits"], c["hits"] + c["misses"]),
        "l1.hit_rate": ratio(c["l1_hits"], c["l1_refs"]),
        "cache.ns_per_find": layers["cache_ns_per_find"],
        "cache.ns_per_fill": layers["cache_ns_per_fill"],
        "mlt.calls": count("mlt"),
        "mlt.overflows": c["mlt_overflows"],
        "mlt.ns_per_op": layers["mlt_ns_per_op"],
        "mlt.self_frac": frac("mlt"),
        "ctrl.snoops_delivered": c["filter_hits"],
        "ctrl.reissues": c["reissues"],
        "ctrl.invalidations": c["invalidations"],
        "ctrl.sync_joins": c["sync_joins"],
        "ctrl.miss_latency_ns_mean": u["miss_latency_ns_mean"],
        "ctrl.miss_latency_ns_p99": u["miss_latency_ns_p99"],
        "ctrl.snoop_self_frac": frac("ctrl_snoop"),
        "ctrl.ns_per_snoop": ratio(self_ns("ctrl_snoop"),
                                   count("ctrl_snoop")),
        "mem.reads_served": c["mem_reads"],
        "mem.bounce_frac": ratio(c["mem_bounces"],
                                 c["mem_reads"] + c["mem_bounces"]),
        "mem.ns_per_snoop": layers["mem_ns_per_snoop"],
        "mem.self_frac": frac("memory"),
        "checker.ops_observed": c["checker_ops"],
        "checker.self_frac": frac("checker"),
        "checker.ns_per_op": ratio(self_ns("checker"), count("checker")),
        "span.construct_s": u["construct_s"],
        "span.warmup_s": u["warmup_s"],
        "span.drain_s": u["drain_s"],
        "span.teardown_s": u["teardown_s"],
        "trace.overhead_ratio": ratio(t["measure_s"], u["measure_s"]),
        "attrib.unexplained_frac": 1.0 - ratio(
            attributed_ns(u, layers, count("mlt")), u["measure_s"] * 1e9),
        "model.efficiency": u["efficiency"],
        "model.mva_gap": abs(u["efficiency"] - u["mva_efficiency"])
                         if "mva_efficiency" in u else 0.0,
    }
    for size in ("64", "512", "4096"):
        m["filter.ns_per_query_" + size] = \
            layers["filter_ns_per_query_" + size]
    for size in ("1k", "1m"):
        m["flatmap.ns_per_probe_" + size] = \
            layers["flatmap_ns_per_probe_" + size]
    # Parallel-engine telemetry of the multi-worker twin; 0 means "not
    # applicable" (sequential engine).
    m.update(dict.fromkeys((k for k in PER_LAYER if k.startswith("par.")),
                           0.0))
    if twin:
        p = twin["par"]
        m.update({
            "par.windows": p["windows"],
            "par.events_per_phase": ratio(p["par_events"],
                                          p["parallel_phases"]),
            "par.phase_us": ratio(p["phase_ns"],
                                  p["parallel_phases"]) / 1e3,
            "par.barrier_wait_frac": ratio(p["barrier_wait_ns"],
                                           p["wall_ns"]),
            "par.serial_frac_events": p["serial_frac_events"],
            "par.serial_frac_ns": p["serial_frac_ns"],
            "par.cross_lane_ops_per_event": ratio(p["cross_lane_ops"],
                                                  p["events"]),
            "par.imbalance": p["imbalance"],
            "par.projected_speedup": p["projected_speedup"],
            "par.speedup_vs_1worker": ratio(u["measure_s"],
                                            twin["measure_s"]),
        })
    assert set(m) == set(PER_LAYER), set(m) ^ set(PER_LAYER)
    return m


def load_golden(seed, scale):
    """Recorded digests for (@p seed, @p scale), or {} if none."""
    with open(DIGESTS) as f:
        golden = json.load(f)
    if seed != golden["seed"]:
        return {}
    return golden.get({SMOKE_SCALE: "smoke", 1.0: "full"}[scale], {})


class Ledger:
    """Ops attempted/failed and output checks for one workload."""

    def __init__(self, workload, golden):
        self.workload = workload
        self.expect = golden.get(workload)
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.digest = None
        self.all_failed = False  # a digest mismatch or a missing run

    def fail_all(self, error):
        self.errors.append("%s: %s" % (self.workload, error))
        self.all_failed = True

    def add(self, rep, what):
        if rep is None:
            self.fail_all(what + " did not produce a result")
            return
        self.attempted += rep["ops_total"]
        bad = sum(rep["failures"].values())
        if bad:
            self.failed += bad
            self.errors.append("%s: %s failures %s"
                               % (self.workload, what, rep["failures"]))
        d = rep["digest"]
        if self.digest is None:
            self.digest = d
            if self.expect and d != self.expect:
                self.fail_all("%s digest %s != recorded %s"
                              % (what, d, self.expect))
        elif d != self.digest:
            self.fail_all("%s digest %s != first run's %s"
                          % (what, d, self.digest))

    @property
    def correct(self):
        return not self.errors

    def failed_ops(self):
        return max(1, self.attempted) if self.all_failed else self.failed


def traced_pass(workload, seed, scale, ledger, untraced=None):
    """(per-layer metrics, untraced rep, layer costs) of one workload,
    or None if a run failed."""
    if untraced is None:
        untraced = run_rep(workload, seed, scale)
        ledger.add(untraced, "untraced run")
        if untraced is None:
            return None
    traced = run_rep(workload, seed, scale, trace=True)
    ledger.add(traced, "traced run")
    twin = None
    if untraced["workers"]:  # the workload runs the parallel engine
        twin = run_rep(workload, seed, scale, workers=twin_workers())
        ledger.add(twin, "%d-worker twin" % twin_workers())
    if traced is None or (untraced["workers"] and twin is None):
        return None
    c = untraced["counts"]
    reject = ratio(c["filter_rejects"], c["filter_hits"]
                   + c["filter_rejects"])
    layers = run_layers(untraced["n"], reject,
                        SMOKE_LAYER_SECONDS if scale == SMOKE_SCALE
                        else LAYER_SECONDS)
    if layers is None:
        ledger.fail_all("bench_layers did not produce a result")
        return None
    return per_layer(untraced, traced, twin, layers), untraced, layers


def host_record(reps):
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    calib = [r["calibration_ns"] for r in reps]
    # The parallel workload's end-to-end runs use one engine worker; its
    # traced twin uses sim_threads_twin.
    return {
        "nproc": host_threads(),
        "cpu_model": model,
        "sim_threads_twin": twin_workers(),
        "calibration_ns": statistics.median(calib) if calib else None,
    }


def write_json(name, record):
    path = os.path.join(BUILD, name)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path + ".tmp", "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    os.replace(path + ".tmp", path)
    return path


def single_run(args, scale):
    """One run of one workload (see the module docstring)."""
    ledger = Ledger(args.workload, load_golden(args.seed, scale))
    reps = []
    metrics = {}
    if args.trace:
        out = traced_pass(args.workload, args.seed, scale, ledger)
        if out:
            metrics = {k: (v, PER_LAYER[k]) for k, v in out[0].items()}
            reps.append(out[1])
    else:
        start = time.monotonic()
        measured = longest = 0.0
        while len(reps) < MIN_REPS or measured < args.seconds:
            if reps and time.monotonic() - start + longest > REP_DEADLINE_S:
                break
            t0 = time.monotonic()
            rep = run_rep(args.workload, args.seed, scale)
            longest = max(longest, time.monotonic() - t0)
            ledger.add(rep, "repetition %d" % (len(reps) + 1))
            if not ledger.correct:
                break
            reps.append(rep)
            measured += rep["measure_s"]
        if ledger.correct:
            metrics = {k: (v, END_TO_END[k])
                       for k, v in end_to_end(reps).items()}
    for k, (v, _) in metrics.items():
        # A wrapped unsigned difference or a 0/0 must not pass as a
        # measurement.
        if not (math.isfinite(v) and abs(v) < 2.0 ** 53):
            ledger.errors.append("%s: metric %s = %r is out of range"
                                 % (args.workload, k, v))
    for e in ledger.errors:
        log("run.py: FAIL " + e)
    write_json(os.path.join("results", "%s-seed%d-trace%d.json"
                            % (args.workload, args.seed, args.trace)),
               {"workload": args.workload, "seed": args.seed,
                "trace": args.trace, "host": host_record(reps),
                "errors": ledger.errors,
                "metrics": {k: v for k, (v, _) in metrics.items()},
                "repetitions": reps})
    print(json.dumps({"correct": ledger.correct,
                      "attempted": max(1, ledger.attempted),
                      "failed": ledger.failed_ops(),
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}),
          flush=True)
    return 0 if ledger.correct else 1


def set_run(args, scale):
    """One set: every workload three times interleaved, then the traced
    passes (see the module docstring)."""
    golden = load_golden(args.seed, scale)
    ledgers = {w: Ledger(w, golden) for w in WORKLOADS}
    reps = {w: [] for w in WORKLOADS}
    for i in range(MIN_REPS):
        for w in WORKLOADS:
            log("run.py: %s repetition %d" % (w, i + 1))
            rep = run_rep(w, args.seed, scale)
            ledgers[w].add(rep, "repetition %d" % (i + 1))
            if rep:
                reps[w].append(rep)
    record = {"seed": args.seed, "scale": scale,
              "host": host_record([r for w in WORKLOADS for r in reps[w]]),
              "workloads": {}}
    for w in WORKLOADS:
        rec = {}
        if len(reps[w]) == MIN_REPS:
            log("run.py: %s traced pass" % w)
            rec["end_to_end"] = end_to_end(reps[w])
            mid = sorted(reps[w], key=lambda r: r["measure_s"])[1]
            out = traced_pass(w, args.seed, scale, ledgers[w],
                              untraced=mid)
            if out:
                rec["per_layer"], _, rec["layers"] = out
        rec.update(digest=ledgers[w].digest, errors=ledgers[w].errors,
                   attempted=ledgers[w].attempted,
                   failed=ledgers[w].failed_ops())
        record["workloads"][w] = rec

    print("host: %(cpu_model)s, nproc %(nproc)d, twin sim threads "
          "%(sim_threads_twin)d, calibration %(calibration_ns).3f ns"
          % record["host"])
    for w, rec in record["workloads"].items():
        print("\n%s  (digest %s, %d ops, %d failed)"
              % (w, rec["digest"], rec["attempted"], rec["failed"]))
        for table, units in (("end_to_end", END_TO_END),
                             ("per_layer", PER_LAYER)):
            for k, v in sorted(rec.get(table, {}).items()):
                print("  %-30s %16.6g %s" % (k, v, units[k]))
        for e in rec["errors"]:
            print("  FAIL " + e)
    path = write_json("benchmark_set.json", record)
    ok = all(ledgers[w].correct for w in WORKLOADS)
    print("\nwrote %s; %s" % (os.path.relpath(path, ROOT),
                              "all outputs correct" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run at 1/50 length")
    args = ap.parse_args()
    build()
    scale = SMOKE_SCALE if args.smoke else 1.0
    return (single_run if args.workload else set_run)(args, scale)


if __name__ == "__main__":
    sys.exit(main())
