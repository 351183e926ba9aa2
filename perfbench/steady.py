#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs each workload several times, each with another seed, and prints for
every end-to-end metric its median and its spread: the distance between
the first and third quartile (statistics.quantiles, n=4) as a share of the
median. Before each benchmark run it times a CPU-only control loop, whose
spread shows how much of the benchmark's spread is host noise. It also
reads the raw host wall time and the median probe time that each run
logs to standard error, so the scaled wall_ref_s can be compared with
the host time behind it. Run from the repository root:

    python3 perfbench/steady.py --runs 10 --workloads detail,sampled,suite
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
import time


def control_loop():
    """Times a fixed amount of pure-Python integer work (about 1 s)."""
    t0 = time.perf_counter()
    x = 0
    for i in range(12_000_000):
        x = (x * 31 + i) & 0xFFFFFFFF
    return time.perf_counter() - t0


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="detail,sampled,suite")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None,
                    help="defaults to run_seconds from BENCHMARK.json")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    report = {}
    for w in args.workloads.split(","):
        values, control = {}, []
        for i in range(args.runs):
            seed = args.first_seed + i
            control.append(control_loop())
            t0 = time.time()
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(seconds), "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True)
            took = time.time() - t0
            if out.returncode != 0:
                sys.exit(f"{w} seed {seed}: exit {out.returncode}\n{out.stderr}")
            res = json.loads(out.stdout.strip().splitlines()[-1])
            if not res["correct"] or res["failed"]:
                sys.exit(f"{w} seed {seed}: incorrect result {res}")
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            raw = re.search(r"wall ([0-9.]+) s at probe ([0-9.]+) ms", out.stderr)
            if raw:
                values.setdefault("raw_wall_s", []).append(float(raw.group(1)))
                values.setdefault("probe_ms", []).append(float(raw.group(2)))
            print(f"{w} seed {seed}: {took:.1f} s " + " ".join(
                f"{n}={m['value']:.4g}" for n, m in sorted(res["metrics"].items())), flush=True)
        rows = {}
        for name, vs in sorted(values.items()):
            med, sp = spread(vs)
            rows[name] = {"median": med, "spread": sp, "bound": bounds.get(name), "values": vs}
            print(f"  {w:8s} {name:14s} median {med:10.4f} spread {sp:6.3f} bound {bounds.get(name)}")
        med, sp = spread(control)
        rows["control_loop_s"] = {"median": med, "spread": sp, "values": control}
        print(f"  {w:8s} {'control_loop_s':14s} median {med:10.4f} spread {sp:6.3f}", flush=True)
        report[w] = rows
    print(json.dumps(report))


if __name__ == "__main__":
    main()
