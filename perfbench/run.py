"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload qa-zipf --seed 1 --seconds 8 --trace 0

Run from the root of a checkout; the program is imported from ``src``.
The last stdout line is the result: ``correct``, ``attempted``,
``failed`` and ``metrics`` (every end-to-end metric of BENCHMARK.json,
or with ``--trace 1`` every per-layer one).  The line before it carries
the environment stamp and workload detail.  Exit status 0 means the run
finished; ``correct`` says whether its outputs checked out.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

import common

WORKLOADS = ("qa-zipf", "qa-distinct", "serve-poisson", "sim-dqa64")


def run_workload(
    workload: str, seed: int, seconds: float, trace: bool, small: bool = False
) -> common.Report:
    """Run ``workload`` inside its own cache sandbox and return its report."""
    with common.CacheSandbox() as sandbox:
        if workload in ("qa-zipf", "qa-distinct"):
            import qa_workloads

            return qa_workloads.run(workload, seed, seconds, trace, small)
        if workload == "serve-poisson":
            import serve_workload

            return serve_workload.run(seed, seconds, trace, small, sandbox)
        import sim_workload

        return sim_workload.run(seed, seconds, trace, small)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        common.import_program()
        spec = common.load_spec()
    except (ImportError, OSError) as exc:
        print(f"perfbench: cannot load the program or BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    # On SIGTERM unwind normally, so servers stop their workers and the
    # cache sandbox is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    env = common.env_stamp()
    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    line = common.result_line(report, bool(args.trace), spec)
    detail = {"workload": args.workload, "seed": args.seed, "env": env, **report.info}
    listed = {m["name"] for m in spec["per_layer"] + spec["end_to_end"]}
    unlisted = {k: v for k, v in report.metrics.items() if k not in listed}
    if unlisted:  # serve-poisson's layers: measured, not in BENCHMARK.json
        detail["metrics"] = unlisted
    if report.problems:
        detail["problems"] = report.problems
    print(json.dumps(detail))
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
