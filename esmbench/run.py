#!/usr/bin/env python3
"""Benchmark entry point: builds esm_benchmark from source, then runs it.

Run from the root of a source checkout; the build goes to .bench_build/.

  python3 esmbench/run.py --workload paper_mix --seed 2007 --seconds 10 --trace 0
  python3 esmbench/run.py --compare A/ B/
  python3 esmbench/run.py --smoke [--binary PATH]

A run's last stdout line is its JSON result. --compare reads two
directories of saved run outputs, one file per run named
<workload>.<anything>, and gives a verdict per workload and end-to-end
metric; it exits 1 on a regression or on a run that failed its checks.
--smoke runs every workload shrunk to one small op, traced and
untraced, and checks the printed metric names against BENCHMARK.json.
"""
import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = HERE.parent / "BENCHMARK.json"
BUILD = Path(".bench_build")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build():
    """Configures once, then builds incrementally; output goes to stderr."""
    if not (BUILD / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "--target",
                    "esm_benchmark", "-j", "2"],
                   stdout=sys.stderr, check=True)
    return BUILD / "esm_benchmark"


def last_json(text):
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("no output")
    return json.loads(lines[-1])


def run(args):
    binary = build()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        spans = BUILD / "spans"
        spans.mkdir(exist_ok=True)
        cmd += ["--spans", str(spans / f"{args.workload}.{args.seed}.json")]
    return subprocess.run(cmd).returncode


def smoke(binary):
    spec = json.loads(SPEC.read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [binary, "--workload", workload, "--smoke", "--trace",
                 str(trace)],
                capture_output=True, text=True)
            where = f"{workload} --trace {trace}"
            try:
                result = last_json(proc.stdout)
            except ValueError as e:
                problems.append(f"{where}: no JSON result ({e}); "
                                f"stderr: {proc.stderr.strip()}")
                continue
            if proc.returncode != 0 or set(result) != RESULT_KEYS:
                problems.append(f"{where}: exit {proc.returncode}, "
                                f"keys {sorted(result)}")
                continue
            if not result["correct"] or result["failed"] != 0 \
                    or result["attempted"] < 1:
                problems.append(f"{where}: checks failed: "
                                f"{proc.stderr.strip()}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if want != got:
                problems.append(f"{where}: metric names/units differ from "
                                f"BENCHMARK.json: missing "
                                f"{sorted(set(want) - set(got))}, extra "
                                f"{sorted(set(got) - set(want))}")
            print(f"smoke {where}: {len(got)} metrics, "
                  f"{result['attempted']} ops")
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    return 1 if problems else 0


def load_set(directory):
    """workload -> metric -> list of values, from saved run outputs, and
    the names of the runs that failed a check."""
    values, failed = {}, []
    for path in sorted(Path(directory).iterdir()):
        if not path.is_file():
            continue
        result = last_json(path.read_text())
        if not result["correct"] or result["failed"] != 0:
            failed.append(path.name)
        per_metric = values.setdefault(path.name.split(".")[0], {})
        for name, metric in result["metrics"].items():
            per_metric.setdefault(name, []).append(metric["value"])
    return values, failed


def summary(values):
    """Median, first and third quartile (min and max when n < 4)."""
    med = statistics.median(values)
    if len(values) < 4:
        return med, min(values), max(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def verdict(va, vb, better, bound):
    """within, regressed or unresolved, and how much worse B's median is.

    A spread wider than the bound leaves the comparison unresolved, unless
    B is worse by more than the bound plus that spread, or every B run is
    worse than every A run."""
    (ma, la, ha), (mb, lb, hb) = summary(va), summary(vb)
    if better == "lower":
        worse, apart = (mb - ma) / ma, min(vb) > max(va)
    else:
        worse, apart = (ma - mb) / ma, max(vb) < min(va)
    spread = max((ha - la) / ma, (hb - lb) / mb)
    if worse > bound and (spread <= bound or worse > bound + spread or apart):
        return "regressed", worse
    return ("unresolved" if spread > bound else "within"), worse


def compare(dir_a, dir_b):
    spec = json.loads(SPEC.read_text())
    (a, failed_a), (b, failed_b) = load_set(dir_a), load_set(dir_b)
    problems = [f"{d}/{name}: the run failed its checks"
                for d, failed in ((dir_a, failed_a), (dir_b, failed_b))
                for name in failed]
    for workload in sorted(set(a) ^ set(b)):
        print(f"warning: {workload} is only in "
              f"{dir_a if workload in a else dir_b}; not compared",
              file=sys.stderr)
    regressed = False
    print(f"{'workload':<18} {'metric':<16} {'A median [q1, q3]':<34} "
          f"{'B median [q1, q3]':<34} {'worse by':>8}  verdict")
    for workload in sorted(set(a) & set(b)):
        for m in spec["end_to_end"]:
            va, vb = a[workload].get(m["name"]), b[workload].get(m["name"])
            if not va or not vb:
                print(f"warning: {workload} {m['name']} is missing from "
                      f"{dir_b if va else dir_a}; not compared",
                      file=sys.stderr)
                continue
            (ma, la, ha), (mb, lb, hb) = summary(va), summary(vb)
            result, worse = verdict(va, vb, m["better"], m["bound"])
            regressed |= result == "regressed"
            print(f"{workload:<18} {m['name']:<16} "
                  f"{f'{ma:.5g} [{la:.5g}, {ha:.5g}]':<34} "
                  f"{f'{mb:.5g} [{lb:.5g}, {hb:.5g}]':<34} "
                  f"{100 * worse:+7.2f}%  {result} "
                  f"(bound {100 * m['bound']:g}%, n={len(va)}/{len(vb)})")
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    return 1 if regressed or problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=2007)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--binary", help="prebuilt esm_benchmark (--smoke)")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if not args.smoke and not args.workload:
        parser.error("--workload is required")
    try:
        if args.smoke:
            return smoke(args.binary or str(build()))
        return run(args)
    except subprocess.CalledProcessError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
