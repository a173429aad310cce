"""handrift benchmark: end-to-end metrics per workload, or per-layer metrics.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload refine_long --seed 1 --seconds 20 --trace 0

It drives ``handrift.cli.main(argv)`` in-process from the checkout's ``src/``
on inputs generated from ``--seed``. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it records the environment and informational
fields. ``--trace 0`` times a closed loop for ``--seconds`` seconds and
reports the end-to-end metrics. ``--trace 1`` sends a fixed list of
requests plain, traced, traced and plain, so its counts repeat exactly, and
reports the per-layer metrics; ``--seconds`` does not apply to it.

Exit codes: 0 when every output check passed, 1 when one failed (the result
is still printed), 2 when the benchmark could not run (nothing is printed).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description="handrift benchmark")
    p.add_argument("--workload", required=True, choices=["refine_long", "train", "evaluate"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if not (SRC / "handrift" / "cli.py").is_file():
        print(f"error: no handrift sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("HANDRIFT_THREADS", None)  # evaluate stays single-threaded
    import harness

    try:
        result, info = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    except harness.SetupError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
