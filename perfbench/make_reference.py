"""Record the reference outputs that the benchmark checks every unit against.

    python3 perfbench/make_reference.py --seeds 0-23 [--workload fit-default]

For every run seed in the range and every input of the workload, runs one
unit and stores the values the workload's summary compares (accuracies
exactly, dual values within ``workloads.DUAL_RTOL``) in
perfbench/reference.json, keyed by data seed and merged with what the file
already holds.  Run it only on a commit whose outputs are the accepted ones;
the committed file was made on the commit that introduced the benchmark.
Each unit's wall time goes to standard error, never into the file.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time

import run


def _seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seed_range, required=True, help="run seeds, as N or N-M")
    parser.add_argument("--workload", action="append", help="workload to record (default: all)")
    args = parser.parse_args(argv)
    run._prepare_imports()
    import workloads

    names = args.workload or list(workloads.WORKLOADS)
    reference = json.loads(run.REFERENCE.read_text(encoding="utf-8")) if run.REFERENCE.is_file() else {}
    workdir = run.OUT_DIR / "work-reference"
    try:
        for name in names:
            workload = workloads.WORKLOADS[name]
            for seed in args.seeds:
                for j in range(workload.inputs):
                    q = workloads.data_seed(seed, j)
                    inputs = workload.setup(q, workdir, False)
                    started = time.perf_counter()
                    outputs = workload.unit(inputs)
                    elapsed = time.perf_counter() - started
                    problems = workload.invariants(inputs, outputs)
                    if problems:
                        raise SystemExit(f"{name} data seed {q}: {problems}")
                    reference.setdefault(name, {})[str(q)] = workload.summary(inputs, outputs)
                    print(f"{name} {q} {elapsed:.4f}", file=sys.stderr, flush=True)
                run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
