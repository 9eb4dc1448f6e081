"""Benchmark of the GS-Scale reproduction: training and serving, end to end.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload train_dense --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload again with spans recorded around each layer's public calls and
prints the per-layer metrics instead (plus a Chrome trace under
``.perfbench/``). Lines starting with ``#`` are for people; the last
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
CACHE = os.path.join(WORK, "cache")

TRAIN_WORKLOADS = ("train_dense", "train_large", "train_outofcore")
WORKLOADS = TRAIN_WORKLOADS + ("serve_walkthrough",)
GENERATE_TIMEOUT_S = 600


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--generate", action="store_true",
                        help="only render and cache the workload's ground truth")
    return parser.parse_args(argv)


def ensure_ground_truth(workload: str) -> None:
    """Render the ground truth in a child process unless it is cached, so
    that rendering it does not set this process's peak RSS."""
    from inputs import gt_cache_path

    if os.path.exists(gt_cache_path(CACHE, workload)):
        return
    subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--generate",
         "--workload", workload, "--seed", "0"],
        check=True, timeout=GENERATE_TIMEOUT_S, stdout=sys.stderr,
    )


def run_workload(args, trace_path: str):
    if args.workload in TRAIN_WORKLOADS:
        import train_workloads
        from inputs import digest, load_train_inputs

        ensure_ground_truth(args.workload)
        inputs = load_train_inputs(CACHE, args.workload, args.seed)
        print(f"# input digest {digest(inputs.initial, inputs.cameras, inputs.images)}")
        return train_workloads.run(
            args.workload, inputs, args.seconds, bool(args.trace), trace_path
        )
    import serve_workload

    # serving measures one full pass of its trace (see serve_workload.py)
    return serve_workload.run(args.seed, bool(args.trace), trace_path)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: program sources not found under {SRC}; run from the "
              "root of a repository checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    if args.generate:
        from inputs import write_ground_truth

        write_ground_truth(CACHE, args.workload)
        return 0

    import layers

    os.makedirs(WORK, exist_ok=True)
    # the program's spill and page directories default to tempfile's
    tmp = tempfile.mkdtemp(prefix="run-", dir=WORK)
    tempfile.tempdir = tmp
    trace_path = os.path.join(WORK, f"trace-{args.workload}-s{args.seed}.json")
    status = 0
    try:
        metrics, attempted, failed, checks, report = run_workload(args, trace_path)
    except Exception:  # noqa: BLE001 - report the failed run, then exit nonzero
        traceback.print_exc()
        metrics, attempted, failed, checks, report = {}, 1, 1, {}, []
        status = 1
    finally:
        tempfile.tempdir = None
        shutil.rmtree(tmp, ignore_errors=True)

    failed_checks = [name for name, ok in checks.items() if not ok]
    attempted += len(checks)
    failed += len(failed_checks)
    for name, ok in checks.items():
        print(f"# check {'ok  ' if ok else 'FAIL'} {name}")
    if not args.trace:
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / layers.MB
        )
        report = report + [("peak_rss_mb", metrics["peak_rss_mb"], "MB"),
                           ("failed_ratio", failed / attempted, "ratio")]
    for name, value, unit in report:
        print(f"# {name} = {value:.6g} {unit}")
    units = layers.PER_LAYER if args.trace else layers.END_TO_END
    for name in units:
        if name in metrics:
            print(f"{name} {metrics[name]:.6g} {units[name]}")
    result = {
        "correct": status == 0 and not failed_checks and failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]}
            for name in units if name in metrics
        },
    }
    print(json.dumps(result))
    return status


if __name__ == "__main__":
    sys.exit(main())
