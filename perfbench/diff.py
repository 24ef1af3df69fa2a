"""Compare two sets of benchmark runs, workload by workload.

Usage, from the root of a checkout::

    python3 perfbench/diff.py before.jsonl after.jsonl

Each file holds the lines ``perfbench/run.py --record FILE`` appended,
one per run, usually several seeds of every workload with ``--trace 0``
and a few with ``--trace 1``.  For each workload and each end-to-end
metric, one row gives the median and quartiles over the untraced runs
of both files and the change of the median.  Below it, one row per
per-layer time (unit ``s``: self times and spans) gives the median over
the traced runs and its change, which shows the layer a change in
wall time came from.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict


def load(path):
    """``{(workload, trace): {metric: ([values], unit)}}`` from a file."""
    runs = defaultdict(lambda: defaultdict(lambda: ([], None)))
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            group = runs[(record["workload"], record["trace"])]
            for name, entry in record["metrics"].items():
                values, _ = group[name]
                values.append(entry["value"])
                group[name] = (values, entry["unit"])
    return runs


def quartiles(values):
    """(q1, median, q3) of *values*; a single value repeats."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def change(before, after):
    if not before:
        return "      n/a"
    return f"{100.0 * (after - before) / before:+8.1f}%"


def describe(values):
    q1, median, q3 = quartiles(values)
    return f"{median:11.5g} [{q1:.4g}, {q3:.4g}] n={len(values):<2}"


def diff(before, after, out=sys.stdout):
    workloads = sorted({w for w, _ in before} & {w for w, _ in after})
    for workload in workloads:
        for trace in (0, 1):
            old = before.get((workload, trace), {})
            new = after.get((workload, trace), {})
            for name in old:
                if name not in new:
                    continue
                (old_values, unit), (new_values, _) = old[name], new[name]
                if trace and unit != "s":
                    continue
                delta = change(
                    quartiles(old_values)[1], quartiles(new_values)[1]
                )
                print(
                    f"{workload:<14} {name:<28} {unit:<5} "
                    f"{describe(old_values)}  ->  "
                    f"{describe(new_values)} {delta}",
                    file=out,
                )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("before")
    parser.add_argument("after")
    args = parser.parse_args(argv)
    diff(load(args.before), load(args.after))
    return 0


if __name__ == "__main__":
    sys.exit(main())
