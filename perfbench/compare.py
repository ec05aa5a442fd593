"""Compare two sets of benchmark results, refusing unlike environments.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds result records as ``run.py`` writes them to
``.perfbench-out/results/`` (copy them away between the two checkouts).
For every workload in both sets it prints each end-to-end metric's median
on each side and the change.  It refuses (exit 3) when the native kernel was
on in one set and off in the other, since the numpy fallback is several
times slower and every latency would move for that reason alone; other
environment differences are printed as warnings.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def load(directory: Path) -> list[dict]:
    records = []
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        if "untraced" in record and "environment" in record:
            records.append(record)
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    sides = {"base": load(args.base), "new": load(args.new)}
    for name, records in sides.items():
        if not records:
            print(f"no result records in {getattr(args, name)}", file=sys.stderr)
            return 2

    native = {name: {r["environment"]["native_kernel_active"] for r in records}
              for name, records in sides.items()}
    if len(native["base"] | native["new"]) > 1:
        print(f"refusing to compare: native kernel state differs "
              f"(base {sorted(native['base'])}, new {sorted(native['new'])})",
              file=sys.stderr)
        return 3
    for key in ("nproc", "python", "numpy", "store_filesystem"):
        seen = {name: {r["environment"][key] for r in records}
                for name, records in sides.items()}
        if seen["base"] != seen["new"]:
            print(f"warning: {key} differs: base {sorted(seen['base'])}, "
                  f"new {sorted(seen['new'])}")

    medians: dict = defaultdict(dict)
    for name, records in sides.items():
        values = defaultdict(list)
        for record in records:
            for metric, entry in record["untraced"].items():
                values[(record["workload"], metric, entry["unit"])].append(entry["value"])
        for key, series in values.items():
            medians[key][name] = (statistics.median(series), len(series))
    print(f"{'workload':18s} {'metric':20s} {'base':>12s} {'new':>12s} {'change':>8s}")
    for (workload, metric, unit), side in sorted(medians.items()):
        if len(side) < 2:
            continue
        (base, n_base), (new, n_new) = side["base"], side["new"]
        change = f"{100 * (new - base) / base:+.1f}%" if base else "n/a"
        print(f"{workload:18s} {metric:20s} {base:12.4f} {new:12.4f} {change:>8s}  "
              f"{unit} (runs {n_base}/{n_new})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
