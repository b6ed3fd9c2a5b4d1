#!/usr/bin/env python
"""Standalone benchmark regression gate.

Compares two benchmark JSON records of the same kind and exits 1 when
the newer one regresses beyond the threshold, 2 when the two records
cannot be judged against each other (different kinds, or a kind with no
gate)::

    python benchmarks/compare.py BENCH_inference.json new.json
    python benchmarks/compare.py BENCH_distributed.json new.json

The gate is :func:`repro.bench.compare_records`; its table
(:data:`repro.bench.GATES`) says per record kind which cells are raw
throughput (same host), machine-independent ratios (across hosts) and
seeded quality values (whenever the params match).  Records with
different benchmark parameters (quick vs full sweep) are incomparable
and pass with a note.  ``repro bench SUITE --compare BASELINE`` runs the
same gate in-process right after a suite finishes.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.bench import compare_records, print_report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="reference benchmark record")
    parser.add_argument("current", help="newly produced benchmark record")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.10,
        help="fractional drop (or quality rise) that counts as a regression "
        "(default 0.10; cross-machine, and quick inference/training, "
        "records double it for throughput)",
    )
    args = parser.parse_args(argv)
    baseline = json.loads(Path(args.baseline).read_text())
    current = json.loads(Path(args.current).read_text())
    return print_report(compare_records(baseline, current, args.threshold))


if __name__ == "__main__":
    sys.exit(main())
