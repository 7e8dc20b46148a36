"""Record reference digests of every op's output on every pool key.

From the root of a checkout:

    python3 bench/record_digests.py [WORKLOAD ...]

Writes ``bench/digests/<workload>.json``. Every output must pass the
correctness gate first. Run it only when the workload definitions change,
never to absorb a change in the library's output bytes.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import harness  # noqa: E402
import workloads  # noqa: E402


def record(name: str) -> dict[str, str]:
    with harness.scratch_dir(f"record-{name}") as workdir:
        workload = workloads.make(name, workdir)
        runner = harness.Runner(workload, expected=None)
        stats = harness.Stats()
        for keys in workload.strata():
            for key in keys:
                runner.run_round([workload.build(key)], stats)
    if runner.errors:
        raise SystemExit("gate failures:\n" + "\n".join(runner.errors))
    return dict(sorted(runner.recorded.items()))


def main(names: list[str]) -> None:
    for name in names or workloads.NAMES:
        digests = record(name)
        with open(harness.digest_path(name), "w", encoding="utf-8") as handle:
            json.dump({"format": "sha256 of canonical op output, first 16 hex digits",
                       "digests": digests}, handle, indent=0, sort_keys=True)
            handle.write("\n")
        print(f"{name}: {len(digests)} digests")


if __name__ == "__main__":
    main(sys.argv[1:])
