#!/usr/bin/env python3
"""The ladder benchmark: one command for every workload.

    python3 perfbench/run.py --workload chain|served|fanout --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The first run builds the library and the
workload program from source into $CARGO_TARGET_DIR (default .bench_build).
Each workload runs in its own process. The last line of stdout is one JSON
object with `correct`, `attempted`, `failed` and `metrics`: with --trace 0
the end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer
metrics. Every end-to-end number comes from an untraced run.

A traced run first runs the workload untraced, then traced (spans written
as a Chrome trace under the build directory), and reports
obs.trace_overhead_ratio from the two. Each per-layer metric comes only
from the workload perfbench/catalog.json names as its source: the traced
run when that is the traced workload, otherwise a short traced run of the
source workload.

The command exits non-zero when any output check fails.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("chain", "served", "fanout")
DEADLINE_S = 170.0  # one command must end within 180 s
FILL_SECONDS = 2.0  # a fill-in run is as short as its minimum sample count


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build(target):
    """Configure once, then bring `target` up to date. Output goes to a log."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no mcmcpar sources at {ROOT}: run from a full checkout")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", target, "-j4"])
    with open(log, "w") as sink:
        for step in steps:
            if subprocess.run(step, stdout=sink, stderr=subprocess.STDOUT).returncode:
                tail = log.read_text().splitlines()[-30:]
                fail("build failed:\n" + "\n".join(tail))
    return out / target


def run_workload(binary, workload, seed, seconds, trace, deadline):
    """One workload process; returns its parsed result line."""
    command = [str(binary), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        traces = build_dir() / "traces"
        traces.mkdir(exist_ok=True)
        path = traces / f"{workload}-{seed}.json"
        command += ["--trace-out", str(path)]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        fail("out of time before the " + workload + " run")
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        fail(f"{workload} run did not finish in time")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        fail(f"{workload} run exited with {done.returncode}")
    for line in lines[:-1]:
        print(f"[{workload}{' traced' if trace else ''}] {line}")
    result = json.loads(lines[-1])
    if trace:
        print(f"[{workload} traced] spans: {path}")
    return result


def print_table(result):
    """Every end-to-end metric of the run by name, with its unit."""
    workload = result["workload"]
    host = result["host"]
    print(f"[{workload}] host probe: {host['threads']} threads, scaling "
          f"{host['scaling_start']:.2f} at start, {host['scaling_end']:.2f} at end")
    print(f"[{workload}] tail percentile p{result['tail_percentile']:g} "
          f"over {result['latency_samples']} samples, {result['wall_s']:.1f} s measured")
    rows = dict(result["e2e"])
    attempted = max(result["attempted"], 1)
    rows["error_share"] = {"value": result["failed"] / attempted, "unit": "ratio"}
    for name in sorted(rows):
        print(f"[{workload}] {name:<20} {rows[name]['value']:<14.6g} {rows[name]['unit']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own unit tests")
    args = parser.parse_args()

    if args.self_test:
        sys.exit(subprocess.run([str(build("perfbench_tests"))]).returncode)
    if args.workload is None:
        fail("--workload is required")
    spec_path = ROOT / "BENCHMARK.json"
    catalog_path = HERE / "catalog.json"
    if not spec_path.is_file() or not catalog_path.is_file():
        fail("BENCHMARK.json or perfbench/catalog.json is missing")
    spec = json.loads(spec_path.read_text())
    catalog = json.loads(catalog_path.read_text())
    sources = catalog["metrics"]
    binary = build("perfbench_ladder")
    deadline = time.monotonic() + DEADLINE_S  # the first run's build is extra

    plain = run_workload(binary, args.workload, args.seed, args.seconds, False, deadline)
    print_table(plain)
    fixed = catalog["workloads"][args.workload]["tail_percentile"]
    if plain["tail_percentile"] != fixed:
        fail(f"the run used tail percentile p{plain['tail_percentile']:g}, "
             f"catalog.json fixes p{fixed:g}")
    runs = [plain]
    if args.trace:
        traced = run_workload(binary, args.workload, args.seed, args.seconds, True, deadline)
        runs.append(traced)
        traced["layers"]["obs.trace_overhead_ratio"] = {
            "value": traced["e2e"]["latency_p50_s"]["value"]
            / plain["e2e"]["latency_p50_s"]["value"],
            "unit": "ratio"}
        # Each per-layer metric comes only from the workload catalog.json
        # names as its source ('own': the traced workload), so a name means
        # the same quantity whichever workload was traced.
        wanted = [m["name"] for m in spec["per_layer"]]

        def source(name):
            named = sources[name]["source"]
            return args.workload if named == "own" else named

        by_source = {args.workload: traced}
        for other in sorted({source(name) for name in wanted} - {args.workload}):
            by_source[other] = run_workload(binary, other, args.seed, FILL_SECONDS,
                                            True, deadline)
            runs.append(by_source[other])
            taken = [name for name in wanted if source(name) == other]
            print(f"[{args.workload} traced] {len(taken)} per-layer metrics "
                  f"from the {other} workload: {' '.join(taken)}")
        layers = {name: by_source[source(name)]["layers"][name] for name in wanted
                  if name in by_source[source(name)]["layers"]}
        chosen, names = layers, wanted
    else:
        chosen, names = plain["e2e"], [m["name"] for m in spec["end_to_end"]]

    metrics = {}
    for name in names:
        if name not in chosen:
            fail(f"the {args.workload} run did not report {name}")
        metrics[name] = {"value": chosen[name]["value"], "unit": chosen[name]["unit"]}
    checks = [check for run in runs for check in run["checks"]]
    for check in checks:
        print(f"[{args.workload}] output check failed: {check}")
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    correct = failed == 0 and not checks
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
