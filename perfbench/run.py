"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fields_ctr --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload fields_ctr --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --write-manifest

``--trace 0`` measures the end-to-end metrics with the program
unmodified; ``--trace 1`` is the separate traced run that prints the
per-layer metrics (and writes its spans under ``.perfbench_out/``).
Human-readable notes go to standard output first; the last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Inputs are generated from ``--seed`` in a separate process; the program
is imported from ``src/`` of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_DIR = ".perfbench_work"
OUT_DIR = ".perfbench_out"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    sys.path.insert(0, ROOT)
    from perfbench import manifest

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=manifest.WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=manifest.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="input sizes; tiny is for the self-test only")
    p.add_argument("--write-manifest", action="store_true",
                   help="write BENCHMARK.json from perfbench/manifest.py")
    args = p.parse_args(argv)
    if not args.write_manifest and args.workload is None:
        p.error("--workload is required")
    return args


def run(args: argparse.Namespace) -> dict:
    """Generate inputs, run the workload, return the result object."""
    from perfbench import manifest, workloads

    work = os.path.join(WORK_DIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        subprocess.run(
            [sys.executable, os.path.join("perfbench", "inputs.py"),
             args.workload, str(args.seed), args.scale, work],
            cwd=ROOT, check=True, timeout=170,
        )
        with open(os.path.join(work, "inputs.json")) as fh:
            inputs = json.load(fh)
        ctx = workloads.Context(args.workload, args.seed, args.seconds,
                                ROOT, work, inputs)
        ctx.notes.append(workloads.sizes_note(inputs))
        values = workloads.WORKLOADS[args.workload](ctx, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not os.listdir(WORK_DIR):
            os.rmdir(WORK_DIR)
    declared = manifest.PER_LAYER if args.trace else manifest.END_TO_END
    metrics = {m.name: {"value": float(values.get(m.name, 0.0)),
                        "unit": m.unit} for m in declared}
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(
            OUT_DIR, f"trace_{args.workload}_seed{args.seed}.json")
        with open(path, "w") as fh:
            json.dump(ctx.trace_doc, fh)
        ctx.notes.append(f"spans written to {path}")
    tally = ctx.tally
    return {
        "notes": ctx.notes,
        "errors": tally.errors,
        "result": {
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": metrics,
        },
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    os.chdir(ROOT)
    if args.write_manifest:
        from perfbench import manifest

        with open("BENCHMARK.json", "w") as fh:
            fh.write(manifest.render())
        return 0
    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print(f"perfbench: no program at {os.path.join(ROOT, 'src', 'repro')}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    out = run(args)
    for line in out["notes"]:
        print(f"# {args.workload}: {line}")
    for name, m in out["result"]["metrics"].items():
        print(f"# {args.workload}: {name} = {m['value']:.6g} {m['unit']}")
    for error in out["errors"]:
        print(f"perfbench: FAILED {error}", file=sys.stderr)
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
