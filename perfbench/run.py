#!/usr/bin/env python3
"""Per-layer benchmark of the graph-processing harness.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--self-check]

Run from the root of a checkout. The script builds the perfbench binary
from source (CMake, into .bench_build/perfbench), runs one workload, checks
its outputs, prints every metric by name and unit, and ends with one JSON
line: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json, with --trace 1 the
per-layer ones. A full record of each run, with the host and build
fingerprint, goes to .bench_run/results/.

Workloads (see BENCHMARK.json for why each was chosen):
  sweep-traversal  Figs 2/3 sweep: scale-16 Kronecker, 6 systems x {BFS, SSSP},
                   16 roots, rebuilt before every trial
  sweep-pagerank   Fig 4 sweep: scale-16 Kronecker, 6 systems x PageRank,
                   4 trials on one build per system
  serve-mix        in-process `epg serve`, 3 closed-loop clients sending
                   1-thread requests over three scale-14 graphs, residency
                   budget below the working set; a fresh request order per
                   pass, figures are medians over passes

--self-check runs every workload on scale-10 graphs, so the benchmark's
own tests (perfbench/test_perfbench.py) cover every metric, the correctness
gate and the trace path in seconds.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = Path(".bench_build") / "perfbench"
RUN_DIR = Path(".bench_run")
WORKLOADS = ("sweep-traversal", "sweep-pagerank", "serve-mix")
# Leaves the 180 s a run may take room for start-up and the no-op build.
RUN_TIMEOUT_S = 170


# The end-to-end metrics are defined for every workload; these are the
# names they go by on one workload.
ALIASES = {
    "sweep-traversal": {"sweep_s": ("latency_p50_ms", 1e-3, "s")},
    "sweep-pagerank": {"sweep_s": ("latency_p50_ms", 1e-3, "s")},
    "serve-mix": {"serve_qps": ("work_per_s", 1, "1/s"),
                  "serve_p50_ms": ("latency_p50_ms", 1, "ms"),
                  "serve_p95_ms": ("latency_p95_ms", 1, "ms")},
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then (re)build only the benchmark and its layers."""
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not (ROOT / BUILD_DIR / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE.relative_to(ROOT)), "-B", str(BUILD_DIR),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            cwd=ROOT, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                    "--target", "perfbench"],
                   cwd=ROOT, stdout=sys.stderr, check=True)
    return ROOT / BUILD_DIR / "perfbench"


def host_fingerprint():
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True)
        if out.returncode == 0:
            commit = out.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "omp_env": {k: v for k, v in os.environ.items()
                    if k.startswith("OMP_")},
        "git_commit": commit,
    }


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in rows}


def check_metrics(metrics, trace):
    """The binary must report exactly BENCHMARK.json's metrics, finite;
    end-to-end values are never 0."""
    want = expected_metrics(trace)
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong_unit = sorted(n for n in set(want) & set(got)
                            if want[n] != got[n])
        raise SystemExit(f"perfbench: metric set differs from BENCHMARK.json:"
                         f" missing {missing}, extra {extra},"
                         f" unit mismatch {wrong_unit}")
    for name, m in metrics.items():
        v = m["value"]
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            raise SystemExit(f"perfbench: {name} is not a finite number: {v}")
        if not trace and v <= 0:
            raise SystemExit(f"perfbench: end-to-end {name} is {v}")


def print_report(args, record):
    res, host, build_fp = record["result"], record["host"], record["build"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}"
          f"{' self-check' if args.self_check else ''}")
    print(f"  host: {host['affinity_cpus']}/{host['nproc']} cpus,"
          f" {host['cpu_model']}; OMP env {host['omp_env'] or 'none'};"
          f" commit {host['git_commit']}")
    flags = build_fp["cxx_flags"].strip()
    print(f"  build: {build_fp['build_type']} ({flags}),"
          f" {build_fp['compiler']}; {res['threads']} threads")
    for name, m in res["metrics"].items():
        print(f"  {name:<44} {m['value']:.6g} {m['unit']}")
    details = res["details"]
    metrics = res["metrics"]
    for alias, (name, scale, unit) in ALIASES.get(args.workload, {}).items():
        if name in metrics:
            print(f"  {alias:<44} {metrics[name]['value'] * scale:.6g} {unit}"
                  f"  (= {name})")
    attempted, failed = res["attempted"], res["failed"]
    print(f"  {'fail_ratio':<44} {failed / attempted if attempted else 1:.6g}"
          f" ({failed} failed of {attempted} attempted)")
    if "latency_samples" in details:
        print(f"  latency samples: {details['latency_samples']:.0f}"
              f" over {details['passes']:.0f} passes")
    for name, v in sorted(details.items()):
        if name not in ("latency_samples", "passes"):
            print(f"  detail {name} = {v:.6g}")
    for p in res["problems"]:
        print(f"  problem: {p}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"perfbench: build failed: {e}")
        return 2
    build_fp = json.loads(subprocess.run(
        [str(binary), "--fingerprint"], capture_output=True, text=True,
        check=True).stdout)
    if build_fp["refusal"]:
        log(f"perfbench: refusing to record a {build_fp['refusal']}")
        return 3

    work = RUN_DIR / args.workload
    shutil.rmtree(ROOT / work, ignore_errors=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work)]
    if args.self_check:
        cmd.append("--self-check")
    started = time.time()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {args.workload} did not finish in {RUN_TIMEOUT_S} s")
        return 1
    if proc.returncode != 0:
        log(f"perfbench: {args.workload} exited {proc.returncode}")
        return 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    check_metrics(result["metrics"], args.trace)

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "self_check": args.self_check,
              "wall_s": time.time() - started, "host": host_fingerprint(),
              "build": build_fp, "result": result}
    results = ROOT / RUN_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if (ROOT / work / "trace.json").exists():
        shutil.copy(ROOT / work / "trace.json", results / f"{stem}.trace.json")
    shutil.rmtree(ROOT / work, ignore_errors=True)

    print_report(args, record)
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
