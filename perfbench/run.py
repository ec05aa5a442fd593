"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload seeded-open --seed 1 --seconds 15 --trace 0

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (each ``{"value", "unit"}``).
``--trace 0`` reports the end-to-end metrics of an untraced pass;
``--trace 1`` makes an untraced and a traced pass and reports the per-layer
metrics of the traced one, with the tracing overhead as traced minus
untraced.  A fuller record (environment, seed, both passes) goes to
``.perfbench-out/results/``, and a traced pass writes its spans next to it.
``--corrupt N`` replaces the first N answers with wrong ones before they
are checked: the run must then report N more failures and ``correct:
false``.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys

from common import OUT, Checker, MissingProgram, bootstrap, environment

WORKLOADS = {
    "seeded-open": "seeded_open",
    "explicit-http": "explicit_http",
    "library-diagnose": "library_diagnose",
}

#: End-to-end metrics whose traced-minus-untraced difference is reported.
OVERHEAD = ("throughput_rps", "latency_p50_ms", "latency_p90_ms")


def _metric_block(metrics: dict) -> dict:
    return {name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", type=int, default=0, metavar="N")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        bootstrap()
    except MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    workload = importlib.import_module(WORKLOADS[args.workload])
    checker = Checker(args.corrupt)

    untraced = workload.measure(args.seed, args.seconds, checker)
    passes = [untraced]
    results = OUT / "results"
    results.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "environment": environment(args.seed, OUT),
        "seconds": args.seconds,
        "untraced": _metric_block(untraced.end_to_end()),
    }
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        traced = workload.measure(args.seed, args.seconds, checker, tracer=tracer, setups=1)
        passes.append(traced)
        reported = workload.layer_metrics(traced, tracer)
        reported["core.native.active"] = (
            float(record["environment"]["native_kernel_active"]), "bool")
        before, after = untraced.end_to_end(), traced.end_to_end()
        for name in OVERHEAD:
            reported[f"trace_overhead.{name}"] = (after[name][0] - before[name][0],
                                                  before[name][1])
        record["traced"] = _metric_block(after)
        record["per_layer"] = _metric_block(reported)
        tracer.dump(results / f"{args.workload}-seed{args.seed}.spans.jsonl")
    else:
        reported = untraced.end_to_end()

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    correct = failed == 0 and all(p.self_check for p in passes)
    record.update(correct=correct, attempted=attempted, failed=failed)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True))

    env = record["environment"]
    print(f"{args.workload}: seed {args.seed}, {attempted} operations timed, "
          f"{failed} failed; nproc {env['nproc']}, native kernel "
          f"{'on' if env['native_kernel_active'] else 'off'}, store on "
          f"{env['store_filesystem']}")
    for name, (value, unit) in reported.items():
        print(f"  {name:44s} {value:14.4f} {unit}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": _metric_block(reported),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
