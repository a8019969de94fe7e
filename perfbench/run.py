#!/usr/bin/env python3
"""OrderlessChain benchmark: one command per workload, every metric by name.

    python3 perfbench/run.py --workload fanout16 --seed 1 --seconds 30 --trace 0

Run from the repository root. The first call configures and builds
perfbench/ (which compiles ../src) into .bench_build/perfbench. Then:

  * the self-tests of the benchmark's own arithmetic run (percentiles here,
    span self time and shard merging in `perfbench --selftest`);
  * simulation runs ("reps") of the workload follow, one process each, rep i
    with seed derive(seed, i), until --seconds have passed and at least the
    workload's SIM_REPS have run;
  * --trace 1 adds one traced rep (tracer, profiler and layer spans on) with
    the seed of rep 0, whose simulated outputs must equal rep 0's.

Simulated metrics pool the samples of the first SIM_REPS reps, so they are a
function of --seed alone. Host metrics are medians over all untraced reps.
The last line of stdout is the result:
{"correct": ..., "attempted": <reps>, "failed": <reps failing a gate>,
 "metrics": {<name>: {"value": ..., "unit": ...}}}.
The exit code is 0 only when every gate passed. See README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")

# Reps whose samples make up the simulated metrics (fixed per workload, so
# those metrics depend on the seed only).
SIM_REPS = {"fanout16": 16, "reads8_byz": 6, "soak_ckpt16": 7}

MODIFY_ON_TIME_MS = 1000.0
READ_ON_TIME_MS = 500.0

END_TO_END = [
    ("host_us_per_tx", "us"),
    ("cpu_us_per_tx", "us"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("commit_tps", "tx/s"),
    ("modify_p50_ms", "ms"),
    ("modify_p99_ms", "ms"),
    ("read_p50_ms", "ms"),
    ("read_p99_ms", "ms"),
    ("on_time_frac", "frac"),
]

SEGMENTS = [
    "endorse_fanout", "endorse_net_out", "endorse_exec", "endorse_net_back",
    "match_gap", "commit_fanout", "commit_net_out", "commit_queue",
    "commit_validate", "commit_apply", "commit_net_back", "finalize",
]

PER_LAYER = [
    ("sim.events_per_tx", "1/tx"),
    ("sim.msgs_per_tx", "1/tx"),
    ("sim.bytes_per_tx", "B/tx"),
    ("sim.send_ns_per_tx", "ns/tx"),
    ("sim.other_ns_per_tx", "ns/tx"),
    ("sim.utilization", "frac"),
    ("sim.barrier_wait_frac", "frac"),
    ("sim.serial_frac", "frac"),
    ("crypto.verify_sigs_per_tx", "1/tx"),
    ("crypto.verify_ns_per_tx", "ns/tx"),
    ("crypto.sign_ns_per_tx", "ns/tx"),
    ("crypto.hash_ns_per_tx", "ns/tx"),
    ("codec.encode_ns_per_tx", "ns/tx"),
    ("codec.decode_ns_per_tx", "ns/tx"),
    ("crdt.apply_ns_per_tx", "ns/tx"),
    ("crdt.dup_apply_frac", "frac"),
    ("crdt.read_ns_per_tx", "ns/tx"),
    ("crdt.state_ns_per_tx", "ns/tx"),
    ("ledger.commit_ns_per_tx", "ns/tx"),
    ("ledger.body_put_ns_per_tx", "ns/tx"),
    ("ledger.read_ns_per_tx", "ns/tx"),
    ("ledger.prune_ns_per_tx", "ns/tx"),
    ("core.validate_ns_per_tx", "ns/tx"),
    ("core.memo_hit_frac", "frac"),
    ("core.pipeline_steal_frac", "frac"),
    ("core.client_submit_ns_per_tx", "ns/tx"),
    ("core.retries_per_tx", "1/tx"),
    ("core.sync_txs_per_tx", "1/tx"),
    ("core.pruned_per_tx", "1/tx"),
    ("core.ckpt_ns_per_tx", "ns/tx"),
    ("core.sec_missing_frac", "frac"),
    ("failed_frac", "frac"),
    ("trace.overhead_frac", "frac"),
] + [("timeline.%s.%s" % (seg, q), "ms")
     for seg in SEGMENTS for q in ("p50_ms", "p99_ms")]


# ------------------------------------------------------------ arithmetic

def nearest_rank(sorted_values, p):
    """Smallest sample with at least p% of the samples at or below it."""
    n = len(sorted_values)
    rank = min(max((p * n + 99) // 100, 1), n)
    return sorted_values[rank - 1]


def beyond_rank(n, p):
    """Samples strictly above the p-th nearest-rank percentile."""
    return n - min((p * n + 99) // 100, n)


def reportable(n, p):
    """A percentile is reported only with at least ten samples beyond it."""
    return beyond_rank(n, p) >= 10


def count_at_most(sorted_values, limit):
    lo, hi = 0, len(sorted_values)
    while lo < hi:
        mid = (lo + hi) // 2
        if sorted_values[mid] <= limit:
            lo = mid + 1
        else:
            hi = mid
    return lo


def derive_seed(seed, rep):
    return (seed * 1000003 + rep) % (1 << 63)


def self_test():
    """Checks this file's arithmetic; returns a list of failures."""
    bad = []

    def check(ok, what):
        if not ok:
            bad.append(what)

    v = list(range(1, 1001))
    check(nearest_rank(v, 50) == 500, "p50 of 1..1000 is 500")
    check(nearest_rank(v, 99) == 990, "p99 of 1..1000 is 990")
    check(nearest_rank([7], 99) == 7, "p99 of one sample")
    check(nearest_rank([1, 2, 3, 4], 50) == 2, "p50 of 1..4 is 2")
    check(beyond_rank(1000, 99) == 10 and reportable(1000, 99),
          "1000 samples leave 10 beyond p99")
    check(beyond_rank(999, 99) == 9 and not reportable(999, 99),
          "999 samples: p99 not reportable")
    check(reportable(20, 50) and not reportable(19, 50),
          "p50 needs 20 samples")
    check(count_at_most([1, 5, 5, 9], 5) == 3, "on-time count at the limit")
    check(count_at_most([], 5) == 0, "on-time count of nothing")
    check(pooled([{"modify_us": [3, 9], "read_us": [1], "counts": {
        "submitted": 4, "failed": 1, "committed_modify": 2,
        "committed_read": 1, "commit_window_us": 1000000}},
                  {"modify_us": [2000000], "read_us": [], "counts": {
                      "submitted": 1, "failed": 0, "committed_modify": 1,
                      "committed_read": 0, "commit_window_us": 1000000}}]
                 )["commit_tps"] == 2.0, "pooled commit rate")
    declared = os.path.join(os.getcwd(), "BENCHMARK.json")
    if os.path.exists(declared):
        with open(declared) as f:
            spec = json.load(f)
        check([(m["name"], m["unit"]) for m in spec["end_to_end"]] ==
              END_TO_END, "BENCHMARK.json end_to_end matches run.py")
        check([(m["name"], m["unit"]) for m in spec["per_layer"]] ==
              PER_LAYER, "BENCHMARK.json per_layer matches run.py")
        check(sorted(w["name"] for w in spec["workloads"]) ==
              sorted(SIM_REPS), "BENCHMARK.json workloads match run.py")
    return bad


# ----------------------------------------------------------------- runs

def build():
    def step(cmd):
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=880).returncode == 0
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        if not step(["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]):
            return False
    return step(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                 "-j", "2"])


def rep(workload, seed, trace):
    """One simulation process; returns its parsed result line."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [BINARY, "--workload", workload, "--seed", str(seed),
         "--trace", "1" if trace else "0"],
        stdout=subprocess.PIPE, stderr=sys.stderr, text=True, timeout=150)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("%s seed %d: no output (exit %d)" %
                           (workload, seed, proc.returncode))
    result = json.loads(lines[-1])
    result["exit"] = proc.returncode
    result["wall_s"] = time.monotonic() - t0
    return result


def sim_of(r):
    """Per-rep simulated outputs used by the determinism gate."""
    return (r["counts"], r["modify_us"], r["read_us"])


def pooled(reps):
    """Simulated end-to-end metrics over the pooled samples of `reps`."""
    modify = sorted(x for r in reps for x in r["modify_us"])
    read = sorted(x for r in reps for x in r["read_us"])
    c = {k: sum(r["counts"][k] for r in reps) for k in (
        "submitted", "failed", "committed_modify", "committed_read",
        "commit_window_us")}
    committed = c["committed_modify"] + c["committed_read"]
    on_time = (count_at_most(modify, MODIFY_ON_TIME_MS * 1000) +
               count_at_most(read, READ_ON_TIME_MS * 1000))
    out = {
        "commit_tps": committed / (c["commit_window_us"] / 1e6),
        "on_time_frac": on_time / c["submitted"],
        "failed_frac": c["failed"] / c["submitted"],
        "modify_samples": len(modify),
        "read_samples": len(read),
    }
    for name, samples in (("modify", modify), ("read", read)):
        for p in (50, 99):
            out["%s_p%d_ms" % (name, p)] = (
                nearest_rank(samples, p) / 1000.0 if samples else 0.0)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIM_REPS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    failures = ["self-test: " + f for f in self_test()]
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if subprocess.run([BINARY, "--selftest"], stdout=sys.stderr,
                      timeout=60).returncode != 0:
        failures.append("self-test: perfbench --selftest")

    start = time.monotonic()
    traced = rep(args.workload, derive_seed(args.seed, 0), True) \
        if args.trace else None
    reps = []
    while len(reps) < SIM_REPS[args.workload] or (
            time.monotonic() - start + reps[-1]["wall_s"] <= args.seconds):
        reps.append(rep(args.workload, derive_seed(args.seed, len(reps)),
                        False))

    # ---- gates
    for r in reps + ([traced] if traced else []):
        if r["exit"] != 0 or r["failures"]:
            failures.append("%s seed %d: exit %d: %s" % (
                args.workload, r["seed"], r["exit"], r["failures"]))
    if traced and sim_of(traced) != sim_of(reps[0]):
        failures.append("traced run's simulated outputs differ from rep 0")
    sim = pooled(reps[:SIM_REPS[args.workload]])
    for cls in ("modify", "read"):
        n = sim[cls + "_samples"]
        if n < 1000 or not reportable(n, 99):
            failures.append("%s: %d samples, too few for p99" % (cls, n))

    host = {k: statistics.median(r["host"][k] for r in reps)
            for k in reps[0]["host"]}
    values = dict(host)
    values.update(sim)
    names = END_TO_END
    if traced:
        values.update(traced["layer"])
        values["trace.overhead_frac"] = (
            traced["host"]["host_us_per_tx"] / host["host_us_per_tx"] - 1.0)
        names = PER_LAYER

    # ---- report
    print("record: %s" % json.dumps(reps[0]["record"], sort_keys=True))
    print("reps: %d (simulated metrics pool the first %d), %.1f s" % (
        len(reps), SIM_REPS[args.workload], time.monotonic() - start))
    print("samples: modify %d, read %d" % (sim["modify_samples"],
                                           sim["read_samples"]))
    if traced:
        print("tiling: %s" % json.dumps(traced["tiling"], sort_keys=True))
        print("trace counts: %s" % json.dumps(traced["counts"],
                                               sort_keys=True))
        print("%-30s %10s %12s %12s" % ("span", "calls", "total_ms",
                                        "self_ms"))
        for fn, st in traced["spans"].items():
            print("%-30s %10d %12.3f %12.3f" % (
                fn, st["calls"], st["total_ns"] / 1e6, st["self_ns"] / 1e6))
    for name, unit in END_TO_END + (PER_LAYER if traced else []):
        print("%-34s %16.6g %s" % (name, values[name], unit))
    for f in failures:
        print("FAILED: " + f)
    result = {
        "correct": not failures,
        "attempted": len(reps) + (1 if traced else 0),
        "failed": sum(1 for r in reps + ([traced] if traced else [])
                      if r["exit"] != 0 or r["failures"]),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in names},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
