"""The benchmark's workloads: inputs built from a seed, one timed unit, and its checks.

Every workload is a closed loop: one caller runs the next unit only after the
previous one returns, on one thread.  A run with seed ``s`` builds ``inputs``
distinct problems, problem ``j`` from data seed ``data_seed(s, j)``, and cycles
through them.  Averaging over several problems keeps a run's timings close to
those of other seeds, since the dual solve's sweep count varies from one
dataset to the next by up to a factor of two.

The harness calls only dtmil's public names, and always through a module
attribute (``dtmil.fit_dtc``, ``cli.run_cli``), so that the traced run's
wrappers are seen.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import dtmil
import dtmil.cli as cli

# Problem j of run seed s uses data seed 24 * s + j, so runs never share a problem.
SUBSEEDS_PER_SEED = 24
# Relative tolerance on a fit's final dual value against the reference.
DUAL_RTOL = 1e-9
# Slack allowed when checking that a solve never ends below its warm start
# (the same slack as acceptance criterion 8).
ASCENT_SLACK = 1e-9

QUICK_HYPER = dict(kappa=10, eta=0.02, inner_iters=5, max_outer=5, tol=1e-3)
SOURCE_WORDS = 20
SOURCE_C = 1.0
CLI_SYNTH = {"bags_per_class_source": 200, "bags_per_class_target": 200, "instances_per_bag": [40, 80]}

# Tiny sizes for the smoke test only; they have no reference values.
TINY_SYNTH = dtmil.SynthConfig(bags_per_class_source=6, bags_per_class_target=6, instances_per_bag=(2, 4))
TINY_HYPER = dict(kappa=3, inner_iters=2, max_outer=2)
TINY_CLI_SYNTH = {"bags_per_class_source": 4, "bags_per_class_target": 4, "instances_per_bag": [2, 4]}


def data_seed(seed: int, j: int) -> int:
    return SUBSEEDS_PER_SEED * seed + j


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``setup(q, workdir, tiny)`` builds the inputs of data seed ``q`` and is
    timed as set-up; ``unit(inputs)`` is the timed unit; ``summary(inputs,
    outputs)`` gives the values compared with the committed reference;
    ``invariants(inputs, outputs)`` lists problems that hold for any seed.
    """

    name: str
    inputs: int
    setup: Callable[[int, Path, bool], Any]
    unit: Callable[[Any], Any]
    summary: Callable[[Any, Any], dict]
    invariants: Callable[[Any, Any], list]


def _ascent_problems(report, where: str) -> list:
    problems = []
    for t, (warm, solved) in enumerate(zip(report.warm_start_dual_values, report.dual_values)):
        if not solved >= warm - ASCENT_SLACK:
            problems.append(f"{where}: round {t} dual {solved!r} below its warm start {warm!r}")
    if not math.isfinite(report.final_dual_value):
        problems.append(f"{where}: final dual {report.final_dual_value!r} is not finite")
    return problems


def _finite_problems(model) -> list:
    arrays = {"phi": model.source.phi.codewords, "v": model.source.v, "psi": model.psi.codewords, "w": model.w}
    return [f"model array {name} is not finite" for name, arr in arrays.items() if not np.all(np.isfinite(arr))]


# --- fit-default and fit-large-n ------------------------------------------


@dataclass(frozen=True)
class FitInputs:
    target: list
    held_out: list
    source_model: Any
    hyper: Any


def _fit_setup(config: dtmil.SynthConfig, hyper: dict):
    def setup(q: int, workdir: Path, tiny: bool) -> FitInputs:
        cfg = TINY_SYNTH if tiny else config
        source, target = dtmil.generate_synthetic(cfg, q)
        # the held-out target is a fresh draw, from the next data seed
        _, held_out = dtmil.generate_synthetic(cfg, q + 1)
        words = TINY_HYPER["kappa"] if tiny else SOURCE_WORDS
        source_model = dtmil.train_source(source, words, SOURCE_C, q)
        params = {**hyper, **TINY_HYPER} if tiny else hyper
        return FitInputs(target, held_out, source_model, dtmil.Hyperparams(**params, seed=q))

    return setup


def _fit_unit(inputs: FitInputs):
    return dtmil.fit_dtc(inputs.target, inputs.source_model, inputs.hyper)


def _fit_summary(inputs: FitInputs, outputs) -> dict:
    model, report = outputs
    return {"accuracy": dtmil.accuracy(model, inputs.held_out), "final_dual": report.final_dual_value}


def _fit_invariants(inputs: FitInputs, outputs) -> list:
    model, report = outputs
    return _ascent_problems(report, "fit") + _finite_problems(model)


# --- protocol-quick --------------------------------------------------------


@dataclass(frozen=True)
class ProtocolInputs:
    source: list
    target: list
    hyper: Any
    folds: int


def _protocol_setup(q: int, workdir: Path, tiny: bool) -> ProtocolInputs:
    source, target = dtmil.generate_synthetic(TINY_SYNTH if tiny else dtmil.SynthConfig(), q)
    params = {**QUICK_HYPER, **TINY_HYPER} if tiny else QUICK_HYPER
    return ProtocolInputs(source, target, dtmil.Hyperparams(**params, seed=q), 3 if tiny else 10)


def _protocol_unit(inputs: ProtocolInputs):
    reports = {}

    def on_fit(fold, report):
        reports[fold] = report

    result = dtmil.run_protocol(inputs.source, inputs.target, inputs.hyper, k=inputs.folds, on_fit=on_fit)
    return result, reports


def _protocol_summary(inputs: ProtocolInputs, outputs) -> dict:
    result, reports = outputs
    return {
        "accuracy": result.mean_accuracy,
        "per_fold_accuracy": result.per_fold_accuracy,
        "baselines": result.baseline_accuracies,
        "final_duals": [reports[fold].final_dual_value for fold in sorted(reports)],
    }


def _protocol_invariants(inputs: ProtocolInputs, outputs) -> list:
    result, reports = outputs
    problems = [] if len(reports) == inputs.folds else [f"{len(reports)} fit reports for {inputs.folds} folds"]
    for fold in sorted(reports):
        problems += _ascent_problems(reports[fold], f"fold {fold}")
    return problems


# --- cli-score-io ----------------------------------------------------------


@dataclass(frozen=True)
class CliInputs:
    seed: int
    config: Path
    source_model: Path
    adapted_model: Path
    out: Path
    bags: int
    kappa: int


def _cli_setup(q: int, workdir: Path, tiny: bool) -> CliInputs:
    source, target = dtmil.generate_synthetic(TINY_SYNTH if tiny else dtmil.SynthConfig(), q)
    source_model = dtmil.train_source(source, TINY_HYPER["kappa"] if tiny else SOURCE_WORDS, SOURCE_C, q)
    params = {**QUICK_HYPER, **TINY_HYPER} if tiny else QUICK_HYPER
    adapted, _ = dtmil.fit_dtc(target, source_model, dtmil.Hyperparams(**params, seed=q))
    base = workdir / f"cli-{q}"
    base.mkdir(parents=True, exist_ok=True)
    dtmil.save_model(source_model, str(base / "source-model.json"))
    dtmil.save_model(adapted, str(base / "adapted-model.json"))
    synth = TINY_CLI_SYNTH if tiny else CLI_SYNTH
    (base / "synth.json").write_text(json.dumps(synth), encoding="utf-8")
    return CliInputs(
        seed=q,
        config=base / "synth.json",
        source_model=base / "source-model.json",
        adapted_model=base / "adapted-model.json",
        out=base,
        bags=2 * synth["bags_per_class_target"],
        kappa=params["kappa"],
    )


def _cli_commands(inputs: CliInputs) -> list:
    out = inputs.out
    target = str(out / "target.jsonl")
    return [
        ["synth", "--config", str(inputs.config), "--seed", str(inputs.seed),
         "--out-source", str(out / "source.jsonl"), "--out-target", target],
        ["eval", "--model", str(inputs.source_model), "--data", target, "--out", str(out / "eval-source.json")],
        ["eval", "--model", str(inputs.adapted_model), "--data", target, "--out", str(out / "eval-adapted.json")],
        ["embed", "--model", str(inputs.adapted_model), "--data", target, "--dict", "psi",
         "--out", str(out / "features.jsonl")],
    ]


def _cli_unit(inputs: CliInputs):
    codes = []
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        for argv in _cli_commands(inputs):
            codes.append(cli.run_cli(argv))
    return codes, stderr.getvalue()


def _read_report(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _cli_summary(inputs: CliInputs, outputs) -> dict:
    return {
        "accuracy": _read_report(inputs.out / "eval-adapted.json")["accuracy"],
        "source_accuracy": _read_report(inputs.out / "eval-source.json")["accuracy"],
    }


def _cli_invariants(inputs: CliInputs, outputs) -> list:
    codes, stderr = outputs
    if any(code != 0 for code in codes):
        return [f"exit codes {codes}: {stderr.strip()[-500:]}"]
    problems = []
    for name in ("eval-source.json", "eval-adapted.json"):
        report = _read_report(inputs.out / name)
        if report.get("n") != inputs.bags or not 0.0 <= report.get("accuracy", -1.0) <= 1.0:
            problems.append(f"{name} reports {report}")
    lines = (inputs.out / "features.jsonl").read_text(encoding="utf-8").splitlines()
    if len(lines) != inputs.bags:
        problems.append(f"features.jsonl has {len(lines)} lines for {inputs.bags} bags")
    for line in lines:
        features = json.loads(line)["features"]
        if len(features) != inputs.kappa or not all(math.isfinite(x) for x in features):
            problems.append(f"bad feature row {line[:200]}")
            break
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fit-default",
            inputs=5,
            # default hyperparameters, except that a tiny tol makes every fit
            # run all 30 rounds; at the default tol a few seeds stop early
            setup=_fit_setup(dtmil.SynthConfig(), dict(tol=1e-12)),
            unit=_fit_unit,
            summary=_fit_summary,
            invariants=_fit_invariants,
        ),
        Workload(
            name="fit-large-n",
            inputs=8,
            # tol is tiny so that every fit runs all three rounds
            setup=_fit_setup(
                dtmil.SynthConfig(bags_per_class_target=400),
                dict(kappa=20, inner_iters=10, max_outer=3, tol=1e-12),
            ),
            unit=_fit_unit,
            summary=_fit_summary,
            invariants=_fit_invariants,
        ),
        Workload(
            name="protocol-quick",
            inputs=24,
            setup=_protocol_setup,
            unit=_protocol_unit,
            summary=_protocol_summary,
            invariants=_protocol_invariants,
        ),
        Workload(
            name="cli-score-io",
            inputs=8,
            setup=_cli_setup,
            unit=_cli_unit,
            summary=_cli_summary,
            invariants=_cli_invariants,
        ),
    )
}


def compare(summary: dict, reference: dict) -> list:
    """Problems where ``summary`` departs from ``reference``: keys holding a
    dual value within DUAL_RTOL, every other value exactly."""
    problems = []
    for key, expected in reference.items():
        got = summary.get(key)
        if "dual" in key:
            got_arr, exp_arr = np.atleast_1d(np.asarray(got, float)), np.atleast_1d(np.asarray(expected, float))
            ok = got_arr.shape == exp_arr.shape and np.allclose(got_arr, exp_arr, rtol=DUAL_RTOL, atol=0.0)
        else:
            ok = got == expected
        if not ok:
            problems.append(f"{key}: got {got!r}, reference {expected!r}")
    return problems
