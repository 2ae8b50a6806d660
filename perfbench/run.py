"""The repository benchmark: one seeded workload per run, one JSON result.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload serve-read --seed 1 --seconds 15 --trace 0

``--trace 0`` measures with no wrappers installed and reports the
end-to-end metrics; ``--trace 1`` runs the same workload once untraced and
once with span wrappers around every layer's public calls, and reports the
per-layer metrics plus the tracing overhead. The last line of standard
output is the JSON result; the lines above it name every metric with its
unit, the output checks, and the run manifest. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if not (SRC / "repro" / "__init__.py").is_file():
    sys.exit(f"perfbench: no repro package under {SRC}; run from a checkout")
sys.path.insert(0, str(SRC))

import common  # noqa: E402  (these need the path set above)
import workloads  # noqa: E402

WORKLOADS = ("train-index", "serve-read", "serve-churn", "ivf-batch")


def _declared() -> dict:
    """Metric name -> unit, per mode, as BENCHMARK.json declares them."""
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {
        mode: {m["name"]: m["unit"] for m in spec[mode]}
        for mode in ("end_to_end", "per_layer")
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    declared = _declared()
    report = common.Report()
    params = workloads.run(args.workload, args.seed, float(args.seconds),
                           bool(args.trace), report, declared["per_layer"])
    manifest = common.manifest(args.workload, args.seed, args.seconds,
                               bool(args.trace), params)
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    got = {name: entry["unit"] for name, entry in report.metrics.items()}
    if got != wanted:
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: reported {sorted(got.items())}, "
            f"declared {sorted(wanted.items())}")
    report.emit(manifest, list(wanted))
    return 0


if __name__ == "__main__":
    sys.exit(main())
