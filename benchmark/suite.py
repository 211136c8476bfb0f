#!/usr/bin/env python3
"""Run the benchmark the way the driver does, and compare two sets of runs.

    python3 benchmark/suite.py run OUT.json [--runs 10] [--seed 1] [--same-seed]
                                            [--trace 0|1] [--workload NAME ...]
                                            [--bin BUILT_BINARY]
    python3 benchmark/suite.py compare A.json B.json

`run` reads BENCHMARK.json in the current directory (the root of the
checkout), runs its command `--runs` times per workload, each time with
another seed (`--same-seed` repeats one seed), checks every result line
against the contract, and writes all values to OUT.json. It prints, per
(workload, metric), the median, the quartiles and the spread — the
distance between the first and third quartile as a share of the median —
next to the metric's bound. It exits non-zero, naming the workload, as
soon as one run exits abnormally or prints a result that fails a check.
`--bin` runs an already built copy of the benchmark in place of the
command, which is how a parent's and a change's builds are alternated.

`compare` prints one row per (workload, end-to-end metric) with both
medians and quartiles, the bound, and a verdict: `ok`, `worse` (B's median
is worse than A's by more than the bound) or `unresolved` (either side's
spread is wider than the bound, so the comparison cannot tell). It exits
non-zero when any row is `worse`.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def run_once(spec, workload, seed, trace, binary=None):
    cmd = ([binary] if binary else spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    t0 = time.time()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    took = time.time() - t0
    if proc.returncode != 0:
        sys.exit(f"{workload}: seed {seed} exited with {proc.returncode}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.exit(f"{workload}: seed {seed} printed no result line")
    want = spec["per_layer"] if trace else spec["end_to_end"]
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        sys.exit(f"{workload}: result keys {sorted(result)}")
    if sorted(result["metrics"]) != sorted(m["name"] for m in want):
        sys.exit(f"{workload}: metric names differ from BENCHMARK.json")
    for m in want:
        got = result["metrics"][m["name"]]
        if got["unit"] != m["unit"] or not isinstance(got["value"], (int, float)):
            sys.exit(f"{workload}: {m['name']} is {got}")
        if not trace and got["value"] <= 0:
            sys.exit(f"{workload}: end-to-end metric {m['name']} is {got['value']}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        sys.exit(f"{workload}: seed {seed}: {result['failed']} of {result['attempted']} failed")
    return result, took


def cmd_run(args):
    spec = load_spec()
    names = args.workload or [w["name"] for w in spec["workloads"]]
    table = spec["per_layer"] if args.trace else spec["end_to_end"]
    out = {"trace": args.trace, "workloads": {}}
    for name in names:
        values = {m["name"]: [] for m in table}
        took = []
        for i in range(args.runs):
            seed = args.seed if args.same_seed else args.seed + i
            result, secs = run_once(spec, name, seed, args.trace, args.bin)
            took.append(secs)
            for k, v in result["metrics"].items():
                values[k].append(v["value"])
        out["workloads"][name] = values
        print(f"{name}: {args.runs} runs, {max(took):.1f} s the longest")
        for m in table:
            v = values[m["name"]]
            q1, q2, q3 = quartiles(v)
            bound = m.get("bound")
            flag = ""
            if bound is not None and m["name"] != "setup_s":
                flag = "  WIDE" if spread(v) > bound else ("  (over a third)" if spread(v) > bound / 3 else "")
            print(f"  {m['name']:32} median {q2:14.6g}  q1 {q1:14.6g}  q3 {q3:14.6g}"
                  f"  spread {100 * spread(v):6.2f}%"
                  + (f"  bound {100 * bound:.0f}%{flag}" if bound is not None else ""))
        sys.stdout.flush()
    with open(args.out, "w") as f:
        json.dump(out, f, indent=1)


def cmd_compare(args):
    spec = load_spec()
    with open(args.a) as f:
        a = json.load(f)["workloads"]
    with open(args.b) as f:
        b = json.load(f)["workloads"]
    worse = 0
    print(f"{'workload':20} {'metric':12} {'A median [q1, q3]':>42} {'B median [q1, q3]':>42} {'bound':>6}  verdict")
    for w in spec["workloads"]:
        name = w["name"]
        if name not in a or name not in b:
            continue
        for m in spec["end_to_end"]:
            va, vb = a[name][m["name"]], b[name][m["name"]]
            (a1, a2, a3), (b1, b2, b3) = quartiles(va), quartiles(vb)
            change = (b2 - a2) / a2
            if m["better"] == "higher":
                change = -change
            if change > m["bound"]:
                verdict = "worse"
                worse += 1
            elif max(spread(va), spread(vb)) > m["bound"]:
                verdict = "unresolved"
            else:
                verdict = "ok"
            cell = lambda q1, q2, q3: f"{q2:.6g} [{q1:.6g}, {q3:.6g}]"
            print(f"{name:20} {m['name']:12} {cell(a1, a2, a3):>42} {cell(b1, b2, b3):>42}"
                  f" {100 * m['bound']:5.0f}%  {verdict} ({100 * change:+.1f}%)")
    sys.exit(1 if worse else 0)


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("out")
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--seed", type=int, default=1)
    r.add_argument("--same-seed", action="store_true")
    r.add_argument("--trace", type=int, choices=[0, 1], default=0)
    r.add_argument("--workload", action="append")
    r.add_argument("--bin")
    r.set_defaults(fn=cmd_run)
    c = sub.add_parser("compare")
    c.add_argument("a")
    c.add_argument("b")
    c.set_defaults(fn=cmd_compare)
    args = p.parse_args()
    args.fn(args)


if __name__ == "__main__":
    main()
