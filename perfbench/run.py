"""voclab's benchmark: one closed-loop training, synthesis and evaluation session.

    python3 perfbench/run.py --workload melgan_train --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout; voclab is imported from ``src/``.
One process, concurrency 1: each training step starts when the previous one
ends. BLAS and OpenMP are pinned to one thread before NumPy loads.

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the same
training untraced and then traced (same seed), checks that both give
bit-identical loss traces, and prints every per-layer metric. The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics. The full report, with sample counts, tail percentiles,
provenance, checks and the run's wall time, is written to report.json in the
work directory, and a traced run also writes its spans there. The workload
and metric names, with their units, come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import sys
import time
from pathlib import Path

T_START = time.perf_counter()

import bench_spec  # noqa: E402

for _var in bench_spec.THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
VOCLAB_MODULES = ("tensor", "dsp", "data", "models", "losses", "optim", "trainer", "metrics", "cli")


def parse_args(argv, spec):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny schedule that only checks the report's shape")
    ap.add_argument("--work", type=Path, default=None,
                    help="work directory (default .bench_work/<workload>-s<seed>-t<trace>)")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    return args


def import_voclab():
    """Import voclab from the checkout's src/; returns (namespace, seconds)."""
    src = ROOT / "src"
    if not (src / "voclab" / "__init__.py").is_file():
        raise FileNotFoundError(f"no voclab sources under {src}")
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    mods = {m: importlib.import_module(f"voclab.{m}") for m in VOCLAB_MODULES}
    return argparse.Namespace(**mods), time.perf_counter() - t0


def print_report(report, metrics):
    print(f"voclab benchmark: {report['workload']} seed {report['seed']} trace {report['trace']}")
    print(f"  plan {report['plan']}, wall {report['wall_s']:.1f} s")
    for key, value in report["provenance"].items():
        print(f"  {key}: {value}")
    print(f"  dtypes after training: {report['dtypes']}")
    print(f"  loss digest: {report['loss_digest']}")
    checks = report["checks"]
    print(f"  checks: {checks['attempted']} attempted, {checks['failed']} failed, "
          f"error_rate {report['error_rate']:.6g}")
    for err in checks["errors"]:
        print(f"    FAILED: {err}")
    for name, m in metrics.items():
        extra = f"  (p{m['percentile']:.1f})" if "percentile" in m else ""
        print(f"  {name:34s} {m['value']:14.6g} {m['unit']:10s} n={m['samples']}{extra}")


def main(argv=None):
    try:
        spec = bench_spec.load(ROOT)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    args = parse_args(argv, spec)
    try:
        vl, import_s = import_voclab()
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: cannot import voclab: {exc}", file=sys.stderr)
        return 2
    import bench_session

    work = args.work or ROOT / ".bench_work" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    vocoder = bench_session.WORKLOAD_VOCODER[args.workload]
    plan = bench_session.make_plan(vocoder, args.seconds, args.trace, args.smoke)
    report = bench_session.run(
        vl, ROOT, args.workload, args.seed, plan, work, args.trace, import_s
    )
    report["wall_s"] = time.perf_counter() - T_START
    (work / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    # keep the report and spans, drop the corpus, checkpoints and audio
    for path in work.iterdir():
        if path.is_dir():
            shutil.rmtree(path)
        elif path.suffix in (".npz", ".csv") or path.name.startswith("eval_"):
            path.unlink()

    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: report[kind][m["name"]] for m in spec[kind]}
    print_report(report, metrics)
    checks = report["checks"]
    print(json.dumps({
        "correct": checks["failed"] == 0,
        "attempted": checks["attempted"],
        "failed": checks["failed"],
        "metrics": {n: {"value": m["value"], "unit": m["unit"]} for n, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
