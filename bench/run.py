"""Run the repository's benchmark (see bench/README.md).

    python3 bench/run.py                   # every workload, end-to-end table
    python3 bench/run.py --trace 1         # every workload, per-layer metrics
    python3 bench/run.py --workload sim-fvp --seed 3 --seconds 20 --trace 0
    python3 bench/run.py --trace 1 --full-scale --out bench/out/full

With ``--workload`` the run happens in this process and the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the same result, with
diagnostics, is written to ``<out>/<workload>.seed<N>.trace<T>.json``.
Without it, each workload runs in a fresh subprocess and a table is
printed.  The exit status is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

#: ``--full-scale``: the simulations at the catalogue's default trace
#: length (250k ops) and the figure jobs at 100k ops with two workloads
#: per category.  Too slow for the measured runs; it checks that the
#: reduced scale keeps the per-layer mix (bench/README.md).
FULL_SCALE = {"workload_sim": {"LENGTH": 250_000},
              "workload_figures": {"LENGTH": 100_000, "PER_CATEGORY": 2}}


def bootstrap(out_dir: Path) -> None:
    """Make the program importable from the checkout's ``src/`` and
    isolate it: no ``REPRO_*`` setting from the caller's environment
    changes what runs, and temporary files stay under ``out_dir``."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"bench: no program source at {src / 'repro'}; "
                 "run the benchmark from a full checkout")
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["PYTHONPATH"] = str(src)
    tmp = out_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = None
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    os.chdir(ROOT)


def workloads(full_scale: bool = False):
    """Workload name -> function running it on a ``harness.Run``.  The
    workload modules import the program, so call this after
    :func:`bootstrap`."""
    import workload_figures
    import workload_service
    import workload_sim

    if full_scale:
        for module, values in FULL_SCALE.items():
            for name, value in values.items():
                setattr(sys.modules[module], name, value)
    return {
        "sim-fvp": lambda run: workload_sim.run_workload(run, "fvp"),
        "sim-baseline":
            lambda run: workload_sim.run_workload(run, "baseline"),
        "figures-cold": workload_figures.run_workload,
        "service-mixed": workload_service.run_workload,
    }


def run_one(args) -> int:
    """Run one workload here and print its result line last."""
    out_dir = Path(args.out).resolve()
    bootstrap(out_dir)
    import harness

    run = harness.Run(args.workload, args.seed, args.seconds,
                      bool(args.trace), out_dir)
    try:
        workloads(args.full_scale)[args.workload](run)
    finally:
        run.cleanup()
    result = run.result()
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "full_scale": args.full_scale,
              "result": result, "failures": run.failures,
              "notes": run.notes}
    path = out_dir / f"{run.run_id}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for message in run.failures:
        print(f"FAILED: {message}", file=sys.stderr)
    for name, metric in result["metrics"].items():
        print(f"{args.workload:14} {name:38} {metric['value']:14.6g} "
              f"{metric['unit']}")
    if "dominant_layer" in run.notes:
        print(f"{args.workload:14} dominant layer: "
              f"{run.notes['dominant_layer']}")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def run_all(args, spec) -> int:
    """Run every workload in its own subprocess and tabulate."""
    status = 0
    rows = {}
    for workload in spec["workloads"]:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", workload["name"],
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--out", args.out]
        if args.seed is not None:
            command += ["--seed", str(args.seed)]
        if args.full_scale:
            command.append("--full-scale")
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True)
        lines = done.stdout.splitlines()
        if done.returncode or not lines:
            status = 1
        if not lines:
            continue
        if args.trace:
            print("\n".join(lines[:-1]), flush=True)
        else:
            print("\n".join(line for line in lines[:-1]
                            if not line.startswith(workload["name"])),
                  flush=True)
        rows[workload["name"]] = json.loads(lines[-1])
    if not args.trace:
        names = [metric["name"] for metric in spec["end_to_end"]]
        header = ["workload"] + [f"{metric['name']} ({metric['unit']})"
                                 for metric in spec["end_to_end"]] + ["ok"]
        print("  ".join(f"{cell:>22}" for cell in header))
        for workload, row in rows.items():
            cells = [workload] + [f"{row['metrics'][name]['value']:.6g}"
                                  for name in names]
            cells.append(f"{row['attempted'] - row['failed']}"
                         f"/{row['attempted']}")
            print("  ".join(f"{cell:>22}" for cell in cells))
    return status


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(
        description="Run the benchmark (bench/README.md).")
    parser.add_argument("--workload", default=None,
                        choices=[w["name"] for w in spec["workloads"]],
                        help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=None,
                        help="reseed every trace (default: the catalogue's "
                             "stable seeds, which the pinned outputs use)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: "
                             "run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--out", default=str(BENCH_DIR / "out"),
                        help="directory for result and span files")
    parser.add_argument("--full-scale", action="store_true",
                        help="simulate at the scale given in FULL_SCALE "
                             "instead of the benchmark's reduced one")
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload is None:
        return run_all(args, spec)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
