"""Run one benchmark workload and print its metrics.

From the root of a checkout:

    python3 bench/run.py --workload ladder --seed 1 --seconds 30 --trace 0

Report lines come first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones. The exit code is 0 only when every op passed the
correctness gate, and 2 when the package source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from hostclock import HostClock

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("ladder", "stream", "tall_spectrum")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    if not os.path.isfile(os.path.join(SRC, "jordanform", "__init__.py")):
        print(f"error: jordanform sources not found under {SRC}", file=sys.stderr)
        return 2
    clock = HostClock().start()
    try:
        sys.path.insert(0, SRC)
        import jordanform

        if not os.path.abspath(jordanform.__file__).startswith(SRC + os.sep):
            print(f"error: imported jordanform from {jordanform.__file__}, not {SRC}",
                  file=sys.stderr)
            return 2
        import harness

        result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace),
                             clock=clock, started=started)
    finally:
        clock.stop()
    for line in result.pop("report"):
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
