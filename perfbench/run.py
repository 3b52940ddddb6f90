#!/usr/bin/env python3
"""Benchmark runner for ppatc.

Builds the harness (perfbench/CMakeLists.txt) from this source tree, runs one
named workload and prints every metric by name and unit. The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json, with
--trace 1 the per-layer metrics. Usage, from the root of the source tree:

    python3 perfbench/run.py --workload paper --seed 1 --seconds 10 --trace 0

Artifacts (result.json, and for a traced run the Chrome trace, the self-time
table and the unit-cost probe table) go to .bench_out/<workload>-seed<n>-trace<t>/.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper", "sweep", "uncertainty")
# Fresh processes that each set up and run one op. Eighteen covers the sweep
# workload's six-input cycle three times, so the cold median sees every kernel.
# Half run before the timed process and half after it, so the cold median
# spans the same stretch of host conditions as the timed ops.
COLD_RUNS = 18
# Every process this script starts must end within --seconds plus this many
# seconds of the end of the build: the margin covers the cold processes, the
# timed process's set-up, warm-up, checks and 1-thread recompute. At
# --seconds 30 a run ends well inside a 180 s allowance.
RUN_MARGIN_S = 135.0


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(jobs):
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    # Compiler temporaries stay inside the build tree too.
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = [["cmake", "-S", str(HERE), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(build_dir), "--target", "ppatc_perfbench", "-j", str(jobs)]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))
    return build_dir / "ppatc_perfbench"


def provenance(env, seed, nproc, threads):
    git_env = dict(env, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args):
        try:
            p = subprocess.run(["git", "-C", str(ROOT), *args], env=git_env,
                               capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return p.stdout.strip() if p.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    if sha is None:
        sha = "unknown (not a git checkout)"
    elif git("status", "--porcelain", "--untracked-files=no"):
        sha += "-dirty"
    return {"git_sha": sha, "nproc": nproc, "threads": threads, "seed": seed,
            "loadavg_at_start": os.getloadavg()[0]}


class Harness:
    def __init__(self, binary, args, env, out_dir, deadline):
        self.binary, self.args = binary, args
        self.env, self.out_dir, self.deadline = env, out_dir, deadline

    def spawn(self, mode, **extra):
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before the %s process" % mode)
        cmd = [str(self.binary), "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--mode", mode, "--seconds", str(self.args.seconds),
               "--root", str(ROOT), "--out", str(self.out_dir)]
        for key, value in extra.items():
            cmd += ["--" + key.replace("_", "-"), str(value)]
        cmd += ["--t0-ns", str(time.monotonic_ns())]
        try:
            p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, env=self.env,
                               text=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError("the %s process ran out of time" % mode)
        lines = p.stdout.strip().splitlines()
        if p.returncode != 0 or not lines:
            raise BenchError("the %s process failed with exit code %d" % (mode, p.returncode))
        return json.loads(lines[-1])


def tail(values):
    """Highest whole percentile with at least ten values beyond it (nearest rank)."""
    v = sorted(values)
    n = len(v)
    if n <= 10:
        return v[-1], 100, n
    pct = (100 * (n - 10)) // n
    return v[max(math.ceil(pct * n / 100) - 1, 0)], pct, n


def end_to_end(h):
    colds = [h.spawn("cold", op_index=j) for j in range(COLD_RUNS // 2)]
    main = h.spawn("run")
    colds += [h.spawn("cold", op_index=j) for j in range(COLD_RUNS // 2, COLD_RUNS)]
    cycle = len(main["fingerprints"])
    mismatched = [j for j, c in enumerate(colds)
                  if c["fingerprint"] != main["fingerprints"][str(j % cycle)]]
    for j in mismatched:
        log("check failed: cold op %d differs from the same op in the timed run" % j)
    op_ms = main["op_ms"]
    tail_ms, tail_pct, n = tail(op_ms)
    values = {
        "op_ms_p50": statistics.median(op_ms),
        "op_ms_tail": tail_ms,
        "ops_per_s": len(op_ms) / main["phase_s"],
        "cpu_ms_per_op": main["phase_cpu_ms"] / len(op_ms),
        "cold_op_ms": statistics.median(c["cold_op_ms"] for c in colds),
        "setup_s": statistics.median([c["setup_s"] for c in colds] + [main["setup_s"]]),
        "peak_rss_mib": main["peak_rss_mib"],
        "paper_max_rel_dev": main["paper_max_rel_dev"],
    }
    runs = colds + [main]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs) + len(mismatched)
    extra = {"op_ms_tail_percentile": tail_pct, "op_count": n,
             "failed_frac": failed / attempted, "runs": runs}
    return values, attempted, failed, extra


def per_layer(h):
    main = h.spawn("trace")
    return main["per_layer"], main["attempted"], main["failed"], {"runs": [main]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = contract["per_layer" if args.trace else "end_to_end"]
    nproc = len(os.sched_getaffinity(0))
    threads = min(nproc, 4)
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PPATC_") and not k.startswith("BENCH_")}
    env["PPATC_THREADS"] = str(threads)
    prov = provenance(env, args.seed, nproc, threads)

    binary = build(threads)
    out_dir = ROOT / ".bench_out" / ("%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    out_dir.mkdir(parents=True, exist_ok=True)
    h = Harness(binary, args, env, out_dir, time.monotonic() + args.seconds + RUN_MARGIN_S)
    values, attempted, failed, extra = (per_layer if args.trace else end_to_end)(h)

    timed = extra["runs"][-1]
    prov.update(build_type=timed["build_type"], compiler=timed["compiler"])
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError("the harness did not report: " + ", ".join(missing))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    correct = failed == 0 and all(not r["errors"] for r in extra["runs"])

    print("ppatc benchmark: workload %s, seed %d, %s" % (
        args.workload, args.seed, "per-layer (traced)" if args.trace else "end-to-end"))
    print("provenance: " + json.dumps(prov, sort_keys=True))
    print("inputs: " + json.dumps(timed["inputs"], sort_keys=True))
    for name, m in metrics.items():
        print("  %-36s %16.6g %s" % (name, m["value"], m["unit"]))
    if not args.trace:
        print("  op_ms_tail is p%d of %d ops; failed_frac %g (%d of %d ops)" % (
            extra["op_ms_tail_percentile"], extra["op_count"], extra["failed_frac"], failed,
            attempted))
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    (out_dir / "result.json").write_text(json.dumps(
        dict(result, provenance=prov, extra=extra), indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, ValueError, KeyError) as e:
        log("perfbench: %s" % e)
        sys.exit(2)
