"""Compare two sets of benchmark records, metric by metric.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the `<workload>-seed<n>-trace0.json` records that
perfbench/run.py writes to perfbench/out/. For every workload and every
end-to-end metric in BENCHMARK.json this prints the median of each side
and the change as a share of the base median, and marks changes worse
than the metric's bound. Records taken on different kernel backends are
never compared: the compiled kernels run 25-55x faster than the pure
ones, so such a comparison says nothing about a change.

Exit status: 0 if no metric got worse beyond its bound, 1 if one did,
2 if the records cannot be compared.
"""

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory):
    """{workload: [record, ...]} for the untraced records in a directory."""
    records = {}
    for path in sorted(Path(directory).glob("*-trace0.json")):
        record = json.loads(path.read_text())
        records.setdefault(record["workload"], []).append(record)
    return records


def main(argv):
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    base, new = load(argv[0]), load(argv[1])
    backends = {r["backend"] for side in (base, new) for rs in side.values() for r in rs}
    if len(backends) != 1:
        sys.stderr.write(f"refusing to compare records from different backends: {sorted(backends)}\n")
        return 2
    spec = json.loads(BENCHMARK.read_text())["end_to_end"]
    worse = False
    print(f"{'workload':<15} {'metric':<13} {'base':>12} {'new':>12} {'change':>8}  runs")
    for workload in sorted(set(base) & set(new)):
        for metric in spec:
            name, bound = metric["name"], metric["bound"]
            b = statistics.median(r["metrics"][name]["value"] for r in base[workload])
            n = statistics.median(r["metrics"][name]["value"] for r in new[workload])
            change = (n - b) / b
            regressed = (change if metric["better"] == "lower" else -change) > bound
            worse = worse or regressed
            runs = f"{len(base[workload])}/{len(new[workload])}"
            flag = f"  WORSE than bound {bound}" if regressed else ""
            print(f"{workload:<15} {name:<13} {b:>12.6g} {n:>12.6g} {change:>+8.1%}  {runs}{flag}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
