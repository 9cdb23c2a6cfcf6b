#!/usr/bin/env python3
"""Runs the benchmark once per seed and reports each metric's spread.

    python3 perfbench/spread.py --workloads pm-dashboards,risk-explore --seeds 1-10 --save a
    python3 perfbench/spread.py --workloads pm-dashboards,risk-explore --seeds 11-20 --against a

For every workload and metric it prints the median of the runs, the
distance between the first and third quartile as a share of the median
(statistics.quantiles(values, n=4)), and the bound from BENCHMARK.json.
A spread above a third of its bound is flagged. The raw (unscaled)
times and the p99 diagnostics are reported too, the p99s against a
tenth, the rule for keeping a p99 gated.

--save NAME keeps the set's medians in .bench_build/set-NAME.json;
--against NAME compares this set's medians with a saved set's and flags
every metric whose median is worse than the saved one by more than its
bound. The exit status is 1 if anything is flagged. Every run's result
line is appended to .bench_build/spread.jsonl.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--save", help="keep this set's medians under this name")
    ap.add_argument("--against", help="compare medians with a saved set")
    args = ap.parse_args()
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out_dir = os.path.join(ROOT, ".bench_build")
    os.makedirs(out_dir, exist_ok=True)
    log = open(os.path.join(out_dir, "spread.jsonl"), "a")
    saved = {}
    if args.against:
        saved = json.load(open(os.path.join(out_dir, f"set-{args.against}.json")))
    medians = {}
    bad = False
    for wl in args.workloads.split(","):
        vals, diags = {}, {}
        for s in seeds(args.seeds):
            cmd = bench["command"] + ["--workload", wl, "--seed", str(s),
                                      "--seconds", str(seconds), "--trace", str(args.trace)]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                print(f"{wl} seed {s}: exit {out.returncode}\n{out.stderr}{out.stdout}", file=sys.stderr)
                sys.exit(1)
            res = json.loads(lines[-1])
            rec = json.load(open(os.path.join(
                ROOT, ".bench_build", "runs", f"{wl}-seed{s}-trace{args.trace}.json")))
            log.write(json.dumps({"workload": wl, "seed": s, "result": res,
                                  "stamp": rec["stamp"]}) + "\n")
            log.flush()
            for k, m in res["metrics"].items():
                vals.setdefault(k, []).append(m["value"])
            for k, v in rec["diagnostics"].items():
                if k.startswith("raw.") or (k.endswith("_ms") and not k.endswith("_p90_ms")):
                    diags.setdefault(k, []).append(v)
            print(f"{wl} seed {s}: correct={res['correct']} failed={res['failed']} "
                  f"steal={rec['stamp']['steal_pct']:.1f}%", flush=True)
        for k in sorted(vals):
            med, sp = spread(vals[k])
            medians.setdefault(wl, {})[k] = med
            b = bounds.get(k)
            flag = ""
            if b is not None and sp > b / 3:
                flag, bad = "  SPREAD > bound/3", True
            prev = saved.get(wl, {}).get(k)
            if prev is not None and b is not None:
                # Every gated metric is better lower.
                shift = med / prev - 1
                flag += f"  vs {args.against} {shift:+.4f}"
                if shift > b:
                    flag, bad = flag + " WORSE > bound", True
            print(f"  {wl:18s} {k:28s} median {med:12.4f} spread {sp:7.4f} bound {b}{flag}")
        for k in sorted(diags):
            med, sp = spread(diags[k])
            print(f"  {wl:18s} {k:28s} median {med:12.4f} spread {sp:7.4f} (diag)")
    if args.save:
        path = os.path.join(out_dir, f"set-{args.save}.json")
        old = json.load(open(path)) if os.path.exists(path) else {}
        old.update(medians)
        with open(path, "w") as f:
            json.dump(old, f, indent=1)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
