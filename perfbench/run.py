"""dtmil benchmark harness.

    python3 perfbench/run.py --workload fit-default --seed 1 --seconds 24 --trace 0

Builds the workload's inputs from ``--seed`` (set-up, timed separately), then
runs units in a closed loop for about ``--seconds`` seconds, checking every
unit's outputs.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` reports the per-layer metrics
from spans around dtmil's public functions, timing untraced and traced units
in alternation to measure the tracing overhead.  A results file with the
run's metadata, per-unit timings and (traced) spans goes to ``perfbench-out/``.

Seed 1 is the working seed; confirm a claim on seed 2 as well, which no
change should have been tuned on.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench-out"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
# One BLAS thread: the coordinate-ascent loop holds the interpreter lock
# anyway, and a single thread keeps timings steady on a shared host.
BLAS_THREADS = 1


def _blas_threads() -> int:
    return min(BLAS_THREADS, os.cpu_count() or 1)


def _prepare_imports() -> None:
    """Pin BLAS threads before numpy loads, and import dtmil from ``src/``."""
    if not (ROOT / "src" / "dtmil" / "__init__.py").is_file():
        raise SystemExit(f"error: dtmil sources not found under {ROOT / 'src'}")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(_blas_threads())
    sys.path.insert(0, str(ROOT / "src"))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
        "src_lines": src_lines,
    }


def _load_reference(name: str) -> dict:
    if not REFERENCE.is_file():
        return {}
    return json.loads(REFERENCE.read_text(encoding="utf-8")).get(name, {})


class Run:
    """Units of one workload on the inputs of one seed, with their checks."""

    def __init__(self, workload, seed: int, workdir: Path, tiny: bool):
        import workloads

        self.workload = workload
        self.seeds = [workloads.data_seed(seed, j) for j in range(workload.inputs)]
        reference = {} if tiny else _load_reference(workload.name)
        self.reference = [reference.get(str(q)) for q in self.seeds]
        self.compare = workloads.compare
        self.setup_s = []
        self.inputs = []
        for q in self.seeds:
            started = time.perf_counter()
            self.inputs.append(workload.setup(q, workdir, tiny))
            self.setup_s.append(time.perf_counter() - started)
        self.times: list[list[float]] = [[] for _ in self.seeds]
        self.summaries: list[dict | None] = [None for _ in self.seeds]
        self.attempted = 0
        self.failures: list[str] = []

    def unit(self, j: int, scope=None) -> float:
        """Run one unit on input ``j`` inside ``scope``, then check it outside
        ``scope``; return the unit's wall time."""
        self.attempted += 1
        outputs = error = None
        with scope or contextlib.nullcontext():
            started = time.perf_counter()
            try:
                outputs = self.workload.unit(self.inputs[j])
            except Exception as exc:  # a unit that raises is a failed unit, not a failed run
                error = exc
            elapsed = time.perf_counter() - started
        self.times[j].append(elapsed)
        if error is not None:
            self.failures.append(f"input {j}: {type(error).__name__}: {error}")
        else:
            self._check(j, outputs)
        return elapsed

    def _check(self, j: int, outputs) -> None:
        try:
            problems = self.workload.invariants(self.inputs[j], outputs)
            summary = json.loads(json.dumps(self.workload.summary(self.inputs[j], outputs)))
        except Exception as exc:  # a malformed output fails its unit
            problems, summary = [f"check raised {type(exc).__name__}: {exc}"], None
        if summary is not None:
            if self.reference[j] is not None:
                problems += self.compare(summary, self.reference[j])
            if self.summaries[j] is None:
                self.summaries[j] = summary
            elif summary != self.summaries[j]:
                problems.append("outputs differ from an earlier unit on the same input")
        if problems:
            self.failures.append(f"input {j} (data seed {self.seeds[j]}): " + "; ".join(problems))

    def wall_s(self) -> float:
        """Mean over the inputs of each input's median unit time."""
        return statistics.fmean(statistics.median(t) for t in self.times if t)

    def accuracy(self) -> float:
        """Mean accuracy over the inputs whose outputs could be read; 0 if none."""
        values = [s["accuracy"] for s in self.summaries if s is not None]
        return statistics.fmean(values) if values else 0.0


def _measure(run: Run, seconds: float) -> None:
    """Whole cycles over the inputs until the next cycle would overrun ``seconds``."""
    started = time.perf_counter()
    cycles = 0
    while True:
        for j in range(len(run.inputs)):
            run.unit(j)
        cycles += 1
        elapsed = time.perf_counter() - started
        if elapsed * (cycles + 1) / cycles > seconds:
            return


def _measure_traced(run: Run, tracer, seconds: float) -> float:
    """Untraced and traced units in pairs, alternating which goes first, until
    the next pair would overrun ``seconds``; returns the tracing overhead."""
    started = time.perf_counter()
    plain, traced = [], []
    pair = 0
    while True:
        j = pair % len(run.inputs)
        for with_trace in ((False, True) if pair % 2 == 0 else (True, False)):
            if with_trace:
                with tracer.installed():
                    traced.append(run.unit(j, tracer.unit(pair)))
            else:
                plain.append(run.unit(j))
        pair += 1
        elapsed = time.perf_counter() - started
        if elapsed * (pair + 1) / pair > seconds:
            return sum(traced) / sum(plain) - 1.0


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> tuple[dict, dict]:
    """Run one workload; return the result line and the results-file record."""
    import tracer as tracing
    import workloads

    workload = workloads.WORKLOADS[name]
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    try:
        run = Run(workload, seed, workdir, tiny)
        record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace, "meta": metadata()}
        if trace:
            tracer = tracing.Tracer()
            overhead = _measure_traced(run, tracer, seconds)
            metrics = {**tracing.mean_layer_metrics(tracer.spans), "trace.overhead_frac": overhead}
            record["spans"] = [
                [s.id, s.name, s.parent, s.unit, s.start, s.end, s.counts] for s in tracer.spans
            ]
        else:
            _measure(run, seconds)
            metrics = {
                "setup_s": statistics.median(run.setup_s),
                "wall_s": run.wall_s(),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "accuracy": run.accuracy(),
                "ok_frac": 1.0 - len(run.failures) / run.attempted,
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = _declared_units(trace)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} differ from those in BENCHMARK.json")
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
    }
    record.update(
        setup_s=run.setup_s,
        unit_s=run.times,
        data_seeds=run.seeds,
        referenced=sum(ref is not None for ref in run.reference),
        failures=run.failures,
        result=result,
    )
    return result, record


def _declared_units(trace: bool) -> dict:
    """Metric name to unit, as BENCHMARK.json declares them for this kind of run."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    _prepare_imports()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    result, record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    for failure in record["failures"][:10]:
        print(f"failed: {failure}", file=sys.stderr)
    print(
        f"{args.workload}: {result['attempted']} units over {len(record['data_seeds'])} inputs "
        f"({record['referenced']} with reference values); results in {path.relative_to(ROOT)}",
        file=sys.stderr,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
