"""Where a Q_14 seeded request's time goes, from a traced ``seeded-open`` pass.

    python3 perfbench/reanchor.py [--seed 1] [--seconds 15]

Runs one traced ``seeded-open`` pass and prints, for the Q_14 requests the
service computed (not those answered from the store or by joining an
in-flight twin), the mean time per request in each stage and its share of
the mean end-to-end latency (from the due time).  Batch-level stages are
divided by batch width.  The exact counts below the table repeat for a
given seed.
"""

from __future__ import annotations

import argparse
import sys

from common import Checker, MissingProgram, bootstrap

TOPOLOGY = "hypercube[dimension=14]"
STAGES = (
    ("build", "`ArraySyndrome.from_faults`"),
    ("final", "final `Set_Builder` (`set_builder_many`)"),
    ("digest", "`syndrome_digest`"),
    ("root_search", "probe search (`find_healthy_root`)"),
    ("boundary", "boundary (`boundary_many`)"),
    ("queue_wait", "queue wait (store probe done to batch start)"),
)


def table(result, tracer) -> str:
    from spans import END, INFO, MEMBERS, NAME, START, SpanIndex

    index = SpanIndex(tracer.spans)
    lo, hi = result.extra["window"]
    batches = [s for s in tracer.spans if s[NAME] == "batch" and lo <= s[START] <= hi
               and s[INFO]["topology"] == TOPOLOGY]
    stage_ms = {name: 0.0 for name, _ in STAGES}
    counts = {"entries": 0, "lookups": 0}
    requests = sum(len(b[MEMBERS]) for b in batches)
    for batch in batches:
        stage_ms["queue_wait"] += 1e3 * sum(index.queue_waits(batch))
        stack = list(index.children.get(batch[0], ()))
        while stack:
            span = stack.pop()
            if span[NAME] in stage_ms:
                stage_ms[span[NAME]] += 1e3 * (span[END] - span[START])
            if span[NAME] == "build":
                counts["entries"] += span[INFO]["entries"]
            if span[NAME] == "diagnose_many":
                counts["lookups"] += span[INFO]["lookups"]
            stack.extend(index.children.get(span[0], ()))

    latencies = [done - start
                 for (start, done, _), request, (response, _) in zip(
                     result.extra["ops"], result.extra["requests"], result.extra["finished"])
                 if request.topology_key == TOPOLOGY
                 and getattr(response, "source", None) == "computed"]
    if not latencies or not requests:
        raise RuntimeError("the pass computed no Q_14 request")
    total = 1e3 * sum(latencies) / len(latencies)
    lines = [f"| Q_14 seeded request, computed: {total:.1f} ms end to end "
             f"(mean of {len(latencies)}, from due time) | ms | share |",
             "|---|---|---|"]
    rest = total
    for name, label in STAGES:
        ms = stage_ms[name] / requests
        rest -= ms
        lines.append(f"| {label} | {ms:.2f} | {100 * ms / total:.0f}% |")
    lines.append(f"| the rest (store, executor hand-off, event loop, generator lag) | {rest:.2f} "
                 f"| {100 * rest / total:.0f}% |")
    lines.append("")
    lines.append(f"- entries built per request: {counts['entries'] // requests:,}")
    lines.append(f"- entries consulted per request: {counts['lookups'] / requests:,.0f}")
    lines.append(f"- computed Q_14 requests in {len(batches)} batches: {requests}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    args = parser.parse_args(argv)
    try:
        bootstrap()
    except MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import seeded_open
    from spans import Tracer

    tracer = Tracer()
    result = seeded_open.measure(args.seed, args.seconds, Checker(), tracer=tracer, setups=1)
    if result.failed:
        print(f"{result.failed} of {result.attempted} requests failed", file=sys.stderr)
        return 1
    print(table(result, tracer))
    return 0


if __name__ == "__main__":
    sys.exit(main())
