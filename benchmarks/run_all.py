"""Perf-trajectory emitter: run the tracked benchmarks, write baseline JSON.

``python benchmarks/run_all.py --json`` runs the scaling benchmark on its
tracked matrix and writes ``BENCH_scaling.json`` at the repo root — the
perf baseline later PRs (and the CI perf-smoke job) compare against.

Options::

    --json            write the JSON artifact(s) (otherwise just print)
    --out DIR         directory for the artifacts (default: repo root)
    --quick           reduced matrix (CI smoke: fast, still all policies)

The tracked matrix deliberately stays modest (it must be cheap enough to
run on every PR); the full 64-job sweep is one command away::

    PYTHONPATH=src python benchmarks/bench_scaling.py \
        --jobs 64 --policies weighted,ftf
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

_HERE = Path(__file__).resolve().parent
if str(_HERE) not in sys.path:
    sys.path.insert(0, str(_HERE))

import bench_scaling  # noqa: E402  (path set up above)


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", action="store_true", help="write artifacts")
    parser.add_argument(
        "--out", default=str(_HERE.parent), help="artifact directory"
    )
    parser.add_argument("--quick", action="store_true", help="reduced matrix")
    args = parser.parse_args(argv)

    job_counts = (8, 16) if args.quick else (8, 16, 32, 64)
    open_loop_arrivals = (
        2000 if args.quick else bench_scaling.DEFAULT_OPEN_LOOP_ARRIVALS
    )
    fluid_job_counts = (
        bench_scaling.DEFAULT_FLUID_JOB_COUNTS[:1]
        if args.quick
        else bench_scaling.DEFAULT_FLUID_JOB_COUNTS
    )
    document = bench_scaling.run_matrix(
        job_counts,
        bench_scaling.DEFAULT_POLICIES,
        open_loop_arrivals=open_loop_arrivals,
        degraded_jobs=8 if args.quick else 16,
        backend_fidelity_jobs=4 if args.quick else 8,
        fluid_job_counts=fluid_job_counts,
    )
    if args.json:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / "BENCH_scaling.json"
        path.write_text(json.dumps(document, indent=2) + "\n")
        print(f"[written to {path}]")


if __name__ == "__main__":
    main()
