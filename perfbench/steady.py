"""Steadiness check: run each workload under several seeds, print quartiles.

    python3 perfbench/steady.py --seeds 10 --trace both --out steady.json

For every workload and metric this prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median.  End-to-end
metrics are compared with their bound in BENCHMARK.json: a spread at or
above a third of the bound is flagged ``WIDE``.  Seeds run interleaved
across workloads (seed 1 of every workload, then seed 2, ...), one run at
a time.  ``--trace both`` adds a traced run after each untraced one and
reports the tracing overhead as the traced ``trace.host_ms_per_q`` over
the untraced ``host_ms_per_q``.

    python3 perfbench/steady.py --compare first.json second.json

compares two such sets instead: for every workload and end-to-end metric
it prints both medians and how much worse the second is, as a share of
the first, and flags ``OVER`` where that exceeds the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
import typing as t

import common
from run import WORKLOADS


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict[str, t.Any]:
    cmd = [
        sys.executable, str(common.ROOT / "perfbench" / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=common.ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2]) if len(lines) > 1 else {}
    result["wall_s"] = wall
    # Metrics not listed in BENCHMARK.json (serve-poisson's layers) come
    # in the detail line; summarise them too.
    for name, value in result["detail"].get("metrics", {}).items():
        result["metrics"].setdefault(name, {"value": value, "unit": "-"})
    return result


def summarise(values: t.Sequence[float]) -> dict[str, float]:
    q1, med, q3 = common.quartiles(values)
    return {
        "median": med, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
    }


def compare(first_path: str, second_path: str, spec: dict[str, t.Any]) -> int:
    """Print how far the second set's untraced medians moved from the first's."""
    sets = []
    for path in (first_path, second_path):
        with open(path, encoding="utf-8") as fh:
            sets.append(json.load(fh)["workloads"])
    first, second = sets
    over = 0
    for workload in first:
        print(f"\n{workload}")
        for m in spec["end_to_end"]:
            a = first[workload][m["name"]]["trace0"]["median"]
            b = second[workload][m["name"]]["trace0"]["median"]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            flag = "  OVER" if worse > m["bound"] else ""
            over += bool(flag)
            print(f"    {m['name']:38s} {a:14.5g} {b:14.5g} worse by {worse:+.3f} "
                  f"(bound {m['bound']}){flag}")
    return 1 if over else 0


def main(argv: list[str] | None = None) -> int:
    spec = common.load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", type=int, default=10, help="seeds 1..N")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", choices=("0", "1", "both"), default="0")
    parser.add_argument("--out", help="also write every run's result here (JSON)")
    parser.add_argument("--compare", nargs=2, metavar="JSON",
                        help="compare two --out files instead of running")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare, spec)
    workloads = args.workloads.split(",")
    traces = {"0": [0], "1": [1], "both": [0, 1]}[args.trace]
    seeds = range(args.first_seed, args.first_seed + args.seeds)

    runs: dict[str, dict[int, list[dict[str, t.Any]]]] = {
        w: {tr: [] for tr in traces} for w in workloads
    }
    for seed in seeds:
        for workload in workloads:
            for tr in traces:
                res = run_once(workload, seed, args.seconds, tr)
                runs[workload][tr].append(res)
                print(f"# {workload} seed={seed} trace={tr} correct={res['correct']} "
                      f"attempted={res['attempted']} failed={res['failed']} "
                      f"wall={res['wall_s']:.1f}s", file=sys.stderr, flush=True)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report: dict[str, t.Any] = {"env": common.env_stamp(), "workloads": {}}
    for workload in workloads:
        print(f"\n{workload}")
        out: dict[str, t.Any] = {}
        for tr in traces:
            results = runs[workload][tr]
            shares = sorted({r["failed"] / r["attempted"] for r in results})
            correct = all(r["correct"] for r in results)
            print(f"  trace={tr}: {len(results)} runs, all correct={correct}, "
                  f"failed shares={shares}, "
                  f"run wall median={common.median([r['wall_s'] for r in results]):.1f}s")
            for name in results[0]["metrics"]:
                values = [r["metrics"][name]["value"] for r in results]
                s = summarise(values)
                unit = results[0]["metrics"][name]["unit"]
                flag = ""
                if name in bounds:
                    s["bound"] = bounds[name]
                    if name != "setup_s" and s["spread"] >= bounds[name] / 3:
                        flag = "  WIDE"
                print(f"    {name:38s} {s['median']:14.5g} {unit:6s} "
                      f"[{s['q1']:.5g}, {s['q3']:.5g}] spread {s['spread']:.3f}{flag}")
                out.setdefault(name, {})[f"trace{tr}"] = {**s, "values": values}
        if 0 in traces and 1 in traces and "trace.host_ms_per_q" in out:
            untraced = out["host_ms_per_q"]["trace0"]["median"]
            traced = out["trace.host_ms_per_q"]["trace1"]["median"]
            out["tracing_overhead"] = traced / untraced - 1.0
            print(f"  tracing overhead (traced/untraced host ms per q - 1): "
                  f"{out['tracing_overhead']:+.3f}")
        report["workloads"][workload] = out
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
