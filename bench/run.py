"""sparserec benchmark: one workload, one process, one thread.

Usage:
  python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 it prints the end-to-end metrics of the workload, with
--trace 1 the per-layer metrics of a separate traced run.  Every metric
is printed by name with its unit; the last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
The full result, with run metadata, is also written to bench/out/, and a
traced run writes its spans there too.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import sys

from checkout import BENCH_DIR, pin_threads, require_sparserec


def parse_args(argv, names):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    pin_threads()  # before anything imports numpy
    from workloads import WORKLOADS, find

    args = parse_args(argv, sorted(WORKLOADS))
    require_sparserec()
    import harness

    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = harness.run_workload(
        find(args.workload), args.seed, args.seconds, bool(args.trace),
        spans_path=out_dir / f"{stem}.spans.jsonl" if args.trace else None)
    with open(out_dir / f"{stem}.json", "w") as fh:
        json.dump(result, fh, indent=2)

    meta = result["meta"]
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print("meta " + json.dumps(meta, sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"{name:34s} {m['value']!r} {m['unit']}")
    print(f"correct {result['correct']} attempted {result['attempted']} "
          f"failed {result['failed']}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed",
                                             "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
