"""Regenerate the committed reference outputs under ``perfbench/references/``.

Usage (from the repository root)::

    python3 perfbench/make_references.py [--seed 1] [workload ...]

Run it only when a change is *meant* to alter simulated results, and say
so in the change: every benchmark run compares against these files, within
``REFERENCE_RTOL`` relative, and counts a mismatch as a failed operation.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    import bench_workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=bench_workloads.DEFAULT_SEED)
    parser.add_argument("workloads", nargs="*", default=list(bench_workloads.WORKLOADS))
    args = parser.parse_args(argv)

    for name in args.workloads:
        workload = bench_workloads.WORKLOADS[name](args.seed)
        workload.warm_up()
        outcomes = workload.run_pass()
        failed = [f"{o.label}: {o.error}" for o in outcomes if o.error]
        if failed:
            print("\n".join(failed), file=sys.stderr)
            return 1
        references = {
            outcome.label: bench_workloads.simulated(outcome.outputs)
            for outcome in outcomes
        }
        path = workload.reference_path()
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(references, indent=1) + "\n")
        print(f"{name}: {len(references)} operations -> {path}")
        if name == bench_workloads.PaperFigs.name:
            ratios = bench_workloads.paper_ratios(references)
            for key, value in ratios.items():
                paper = bench_workloads.PAPER_HEADLINES[key]
                print(f"  {key:24s} {value:.3f}x (paper {paper:.2f}x)")
            error = bench_workloads.paper_error_pct(ratios)
            print(f"  paper_error_pct {error:.2f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
