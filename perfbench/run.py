"""Run one benchmark workload against the GAE in this checkout.

Usage, from the root of the checkout::

    python3 perfbench/run.py --workload read-hot --seed 1 --seconds 25 --trace 0

Prints a report and, as its last line, the JSON result; exits 1 when a
correctness or regime check fails.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

from measure import OUT_DIR

ROOT = OUT_DIR.parent


def _workloads():
    from rpc_workloads import run_read_hot, run_steer_mixed
    from sim_workloads import run_drain, run_recover

    return {
        "read-hot": run_read_hot,
        "steer-mixed": run_steer_mixed,
        "drain": run_drain,
        "recover": run_recover,
    }


def _metric_value(name: str, outcome, totals) -> float:
    """A per-layer metric: span totals for ``<span>.calls``/``.self_ms``, else counters."""
    if name in outcome.metrics:
        return float(outcome.metrics[name])
    if name == "error_rate":
        return outcome.ledger.error_rate()
    span, _, field = name.rpartition(".")
    if field in ("calls", "self_ms"):
        return float(totals.get(span, {}).get(field, 0.0))
    return 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["read-hot", "steer-mixed", "drain", "recover"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no GAE source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    sys.path.insert(0, str(ROOT / "src"))
    # One core for every thread: the speed probe then sees the same core
    # the workload runs on, and threads never migrate mid-call.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    from measure import CheckFailed
    try:
        outcome = _workloads()[args.workload](args.seed, args.seconds, bool(args.trace))
    except CheckFailed as exc:
        print(f"perfbench: {args.workload}: CHECK FAILED: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        print(f"perfbench: {args.workload}: run failed", file=sys.stderr)
        return 1

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    for line in outcome.report:
        print(line)
    for line in outcome.ledger.rows():
        print(line)
    print(f"  error_rate {outcome.ledger.error_rate():.6f} "
          f"({outcome.ledger.failed}/{outcome.ledger.attempted})")

    totals = {}
    if outcome.recorder is not None:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
        count = outcome.recorder.write_jsonl(str(path))
        totals = outcome.recorder.layer_totals()
        outcome.recorder.uninstall()
        print(f"  {count} spans written to {path.relative_to(ROOT)}")

    metrics = {}
    for entry in wanted:
        name = entry["name"]
        if args.trace:
            value = _metric_value(name, outcome, totals)
        else:
            value = float(outcome.metrics[name])
        metrics[name] = {"value": value, "unit": entry["unit"]}
        print(f"  {name:<52} {value:>14.4f} {entry['unit']}")
    print(json.dumps({
        "correct": True,
        "attempted": outcome.ledger.attempted,
        "failed": outcome.ledger.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
