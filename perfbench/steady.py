#!/usr/bin/env python3
"""Steadiness runs and A/B comparison for the perfbench benchmark.

Run from the repository root:

  python3 perfbench/steady.py run --seeds 1-10 --out runs.json [--workloads a,b]
  python3 perfbench/steady.py run --seeds 3,3,3,3,3 --workloads x --out fixed.json
  python3 perfbench/steady.py report runs.json
  python3 perfbench/steady.py compare base.json candidate.json

`run` runs the benchmark once per workload and seed (untraced) and stores
every end-to-end value, the raw figures they were scaled from, the run's
reference time and the host steal the run saw. Repeating one seed
separates host drift from input variation. `report` prints, per workload
and metric, the median, the quartiles and the spread (interquartile
distance as a share of the median) next to the metric's bound from
BENCHMARK.json, then the same for the raw figures. `compare` flags every metric whose candidate median is
worse than the base median by more than its bound. It exits 1 if any
metric is flagged.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

BENCH = "BENCHMARK.json"


def load_bench():
    with open(BENCH) as f:
        return json.load(f)


def seeds_of(spec):
    """Seeds from a list of ranges: "1-10", or "3,3,3" to repeat one seed."""
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def cmd_run(args):
    bench = load_bench()
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    out = {"seconds": seconds, "runs": []}
    for seed in seeds_of(args.seeds):
        for name in names:
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(seconds), "--trace", "0"]
            start = time.time()
            proc = subprocess.run(cmd, capture_output=True, text=True)
            wall = time.time() - start
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
                sys.exit("run failed: %s seed %d (exit %d)" % (name, seed, proc.returncode))
            res = json.loads(lines[-1])
            steal = next((float(l.split(":")[1]) for l in lines if l.startswith("# host_steal_s:")), None)
            ref_ms = next((float(l.split()[3]) for l in lines if l.startswith("# reference: median")), None)
            raw = {l.split()[2]: float(l.split()[3]) for l in lines if l.startswith("# raw ")}
            out["runs"].append({"workload": name, "seed": seed, "wall_s": round(wall, 2),
                                "steal_s": steal, "ref_ms": ref_ms, "raw": raw, "result": res})
            print("%-15s seed %-3d %6.1fs steal %s %s" % (name, seed, wall, steal, " ".join(
                "%s=%.4g" % (k, v["value"]) for k, v in sorted(res["metrics"].items()))), flush=True)
            with open(args.out, "w") as f:
                json.dump(out, f, indent=1)


def values_of(path):
    with open(path) as f:
        data = json.load(f)
    vals = {}
    for r in data["runs"]:
        for k, v in r["result"]["metrics"].items():
            vals.setdefault(r["workload"], {}).setdefault(k, []).append(v["value"])
    return vals


def per_run(path, key):
    """A per-run figure (steal_s, ref_ms, wall_s) by workload."""
    with open(path) as f:
        data = json.load(f)
    out = {}
    for r in data["runs"]:
        if r.get(key) is not None:
            out.setdefault(r["workload"], []).append(r[key])
    return out


def raw_of(path):
    """The raw figures the normalised metrics were scaled from."""
    with open(path) as f:
        data = json.load(f)
    vals = {}
    for r in data["runs"]:
        for k, v in r.get("raw", {}).items():
            vals.setdefault(r["workload"], {}).setdefault(k, []).append(v)
    return vals


def cmd_report(args):
    bench = load_bench()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    vals = values_of(args.runs)
    print("| workload | metric | n | q1 | median | q3 | spread | bound |")
    print("|---|---|---|---|---|---|---|---|")
    worst = 0.0
    for w in sorted(vals):
        for k in sorted(vals[w]):
            v = vals[w][k]
            q1, med, q3 = quartiles(v)
            spread = (q3 - q1) / med if med else float("inf")
            b = bounds.get(k)
            flag = ""
            if b is not None and k != "setup_s":
                worst = max(worst, spread / b)
                flag = " !" if spread > b / 3 else ""
            print("| %s | %s | %d | %.4g | %.4g | %.4g | %.3f%s | %s |" % (
                w, k, len(v), q1, med, q3, spread, flag, b))
    print("\nworst spread as a share of its bound (setup_s excluded): %.2f" % worst)
    raw = raw_of(args.runs)
    if raw:
        print("\nRaw figures, before scaling to the reference speed:\n")
        print("| workload | figure | n | q1 | median | q3 | spread |")
        print("|---|---|---|---|---|---|---|")
        for w in sorted(raw):
            for k in sorted(raw[w]):
                q1, med, q3 = quartiles(raw[w][k])
                print("| %s | %s | %d | %.4g | %.4g | %.4g | %.3f |" % (
                    w, k, len(raw[w][k]), q1, med, q3, (q3 - q1) / med if med else float("inf")))
    for key, what in (("ref_ms", "reference time, ms"), ("steal_s", "host steal while measuring, s"),
                      ("wall_s", "wall time of a run, s")):
        v = per_run(args.runs, key)
        if v:
            print("\n%s per run: " % what + ", ".join(
                "%s median %.2f min %.2f max %.2f" % (w, statistics.median(x), min(x), max(x))
                for w, x in sorted(v.items())))


def cmd_compare(args):
    bench = load_bench()
    meta = {m["name"]: m for m in bench["end_to_end"]}
    base, cand = values_of(args.base), values_of(args.candidate)
    flagged = 0
    print("| workload | metric | base median | candidate median | change | bound | verdict |")
    print("|---|---|---|---|---|---|---|")
    for w in sorted(base):
        for k in sorted(base[w]):
            if k not in meta or k not in cand.get(w, {}):
                continue
            b, c = statistics.median(base[w][k]), statistics.median(cand[w][k])
            lower = meta[k]["better"] == "lower"
            worse = (c - b) / b if lower else (b - c) / b
            bad = worse > meta[k]["bound"]
            flagged += bad
            print("| %s | %s | %.4g | %.4g | %+.1f%% | %.2f | %s |" % (
                w, k, b, c, 100 * (c - b) / b, meta[k]["bound"], "WORSE" if bad else "ok"))
    sys.exit(1 if flagged else 0)


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--seeds", default="1-10")
    r.add_argument("--workloads", default="")
    r.add_argument("--seconds", type=int, default=0)
    r.add_argument("--out", required=True)
    r.set_defaults(fn=cmd_run)
    s = sub.add_parser("report")
    s.add_argument("runs")
    s.set_defaults(fn=cmd_report)
    c = sub.add_parser("compare")
    c.add_argument("base")
    c.add_argument("candidate")
    c.set_defaults(fn=cmd_compare)
    args = p.parse_args()
    args.fn(args)


if __name__ == "__main__":
    main()
