"""Acceptance gate: every release criterion at its stated tolerance.

Each test records one PASS/FAIL line, echoed in the terminal summary.  The
quantitative transfer checks run the full synthetic pipeline with pinned
seeds, so their outcomes are deterministic.
"""

import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from dtmil import (
    Bag,
    Dictionary,
    DualProblem,
    Hyperparams,
    codeword_gradient,
    codeword_objective,
    embed_bag,
    fit_dtc,
    generate_synthetic,
    kkt_residual,
    run_protocol,
    solve_box_qp,
    sweep,
    train_source,
)
from dtmil.cli import main as cli_main
from dtmil.data import SynthConfig
from dtmil.evaluate import sweep_rows_to_csv

ACCEPTANCE_LOG = []

# pinned experiment configuration: the transfer-gain generator (rotation 30
# degrees, translation magnitude 2 * noise_sigma, d = 10, 100 source bags
# per class, 100 target bags, witness rate 0.5) is the SynthConfig default
SHIFT_CONFIG = SynthConfig()
NULL_CONFIG = replace(
    SHIFT_CONFIG, shift_rotation_degrees=0.0, shift_translation=0.0, noise_sigma=0.0
)
ACCEPT_HYPER = Hyperparams(
    c1=1.0, c2=0.1, kappa=10, eta=0.02, inner_iters=5, max_outer=5, tol=1e-3, seed=0
)
SEEDS = range(10)
FOLDS = 10


def _record(index, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    ACCEPTANCE_LOG.append(f"[{status}] criterion {index:2d}: {name}{suffix}")


def random_dual_problem(rng, n):
    d = int(rng.integers(1, 7))
    return DualProblem(
        features=rng.normal(size=(n, d)),
        margins=rng.uniform(-2.0, 2.0, size=n),
        labels=rng.choice([1, -1], size=n),
        c1=float(rng.uniform(0.3, 3.0)),
    )


def grid_max(prob):
    """Exhaustive grid oracle, step 1/(100 n) per coordinate."""
    axis = np.linspace(0.0, prob.box_upper, 101)
    mesh = np.meshgrid(*([axis] * prob.n), indexing="ij")
    grid = np.stack([m.ravel() for m in mesh], axis=1)
    signed = grid * prob.labels
    quad = np.einsum("ij,jk,ik->i", signed, prob.gram, signed)
    return float((grid @ prob.margins - 0.5 / prob.c1 * quad).max())


def test_criterion_1_qp_grid_oracle():
    name = "solver matches exhaustive grid search within 1e-3, each solve < 1 s"
    ok = False
    detail = ""
    try:
        rng = np.random.default_rng(101)
        worst = 0.0
        slowest = 0.0
        for trial in range(50):
            prob = random_dual_problem(rng, n=2 if trial % 2 == 0 else 3)
            started = time.perf_counter()
            state = solve_box_qp(prob)
            elapsed = time.perf_counter() - started
            gap = abs(state.objective - grid_max(prob))
            worst = max(worst, gap)
            slowest = max(slowest, elapsed)
            assert gap <= 1e-3
            assert elapsed < 1.0
        detail = f"50 problems, worst gap {worst:.2e}, slowest solve {slowest * 1e3:.1f} ms"
        ok = True
    finally:
        _record(1, name, ok, detail)


def test_criterion_2_gradient_finite_differences():
    name = "codeword gradient matches central differences, rel err <= 1e-5"
    ok = False
    detail = ""
    try:
        rng = np.random.default_rng(102)
        h = 1e-6
        worst = 0.0
        for _ in range(20):
            d = int(rng.integers(2, 9))
            psi = rng.normal(size=d)
            u = rng.normal(size=d)
            c1 = float(rng.uniform(0.2, 3.0))
            c2 = float(rng.uniform(0.2, 3.0))
            grad = codeword_gradient(psi, u, c1, c2)
            fd = np.empty(d)
            for j in range(d):
                hi, lo = psi.copy(), psi.copy()
                hi[j] += h
                lo[j] -= h
                fd[j] = (
                    codeword_objective(hi, u, c1, c2) - codeword_objective(lo, u, c1, c2)
                ) / (2 * h)
            rel = float(np.linalg.norm(fd - grad) / max(np.linalg.norm(grad), 1e-12))
            worst = max(worst, rel)
            assert rel <= 1e-5
        detail = f"20 points, worst rel err {worst:.2e}"
        ok = True
    finally:
        _record(2, name, ok, detail)


def test_criterion_3_box_feasibility_and_kkt():
    name = "solver betas exactly box-feasible, KKT residual <= 1e-6 for n <= 10"
    ok = False
    detail = ""
    try:
        rng = np.random.default_rng(103)
        worst = 0.0
        for trial in range(40):
            n = int(rng.integers(1, 11))
            prob = random_dual_problem(rng, n)
            state = solve_box_qp(prob)
            assert state.beta.min() >= 0.0
            assert state.beta.max() <= 1.0 / n
            residual = kkt_residual(state.beta, prob)
            worst = max(worst, residual)
            assert residual <= 1e-6
        # betas emitted by the full fit obey the box too
        source_bags, target_bags = generate_synthetic(
            replace(SHIFT_CONFIG, bags_per_class_source=10, bags_per_class_target=6), seed=0
        )
        source = train_source(source_bags, iota=6, c=1.0, seed=0)
        _, report = fit_dtc(target_bags, source, replace(ACCEPT_HYPER, kappa=4))
        assert report.final_beta.min() >= 0.0
        assert report.final_beta.max() <= 1.0 / len(target_bags)
        detail = f"worst residual {worst:.2e}"
        ok = True
    finally:
        _record(3, name, ok, detail)


def test_criterion_4_stationarity_identity():
    name = "c1*w equals sum_i beta_i y_i z_i under the final dictionary within 1e-12"
    ok = False
    detail = ""
    try:
        worst = 0.0
        for seed in range(5):
            cfg = replace(SHIFT_CONFIG, bags_per_class_source=12, bags_per_class_target=8)
            source_bags, target_bags = generate_synthetic(cfg, seed=seed)
            source = train_source(source_bags, iota=6, c=1.0, seed=seed)
            hyper = replace(ACCEPT_HYPER, kappa=5, seed=seed)
            model, report = fit_dtc(target_bags, source, hyper)
            labels = np.array([bag.label for bag in target_bags])
            z = np.vstack([embed_bag(bag, model.psi) for bag in target_bags])
            residual = float(
                np.max(np.abs(hyper.c1 * model.w - (report.final_beta * labels) @ z))
            )
            worst = max(worst, residual)
            assert residual <= 1e-12
        detail = f"5 fits, worst residual {worst:.2e}"
        ok = True
    finally:
        _record(4, name, ok, detail)


def test_criterion_5_transfer_gain_on_synthetic_shift():
    name = ("adapted model beats source-only and target-only baselines by >= 0.05 "
            "on the shifted generator, 10 seeds, <= 60 s")
    ok = False
    detail = ""
    try:
        assert SHIFT_CONFIG.shift_rotation_degrees == 30.0
        assert SHIFT_CONFIG.d == 10
        assert SHIFT_CONFIG.bags_per_class_source == 100
        assert 2 * SHIFT_CONFIG.bags_per_class_target == 100
        assert SHIFT_CONFIG.witness_rate == 0.5
        assert SHIFT_CONFIG.shift_translation == 2.0 * SHIFT_CONFIG.noise_sigma
        started = time.perf_counter()
        adapted, source_only, target_only = [], [], []
        for seed in SEEDS:
            source_bags, target_bags = generate_synthetic(SHIFT_CONFIG, seed=seed)
            report = run_protocol(
                source_bags, target_bags, replace(ACCEPT_HYPER, seed=seed), k=FOLDS
            )
            adapted.append(report.mean_accuracy)
            source_only.append(report.baseline_accuracies["source_only"])
            target_only.append(report.baseline_accuracies["target_only"])
        elapsed = time.perf_counter() - started
        mean_adapted = float(np.mean(adapted))
        mean_source = float(np.mean(source_only))
        mean_target = float(np.mean(target_only))
        detail = (
            f"adapted {mean_adapted:.3f}, source-only {mean_source:.3f}, "
            f"target-only {mean_target:.3f}, {elapsed:.1f} s"
        )
        assert mean_adapted >= mean_source + 0.05
        assert mean_adapted >= mean_target + 0.05
        assert elapsed <= 60.0
        ok = True
    finally:
        _record(5, name, ok, detail)


def test_criterion_6_null_shift_sanity():
    name = "without any shift, adaptation stays within 0.05 of source-only, 10 seeds"
    ok = False
    detail = ""
    try:
        adapted, source_only = [], []
        for seed in SEEDS:
            source_bags, target_bags = generate_synthetic(NULL_CONFIG, seed=seed)
            report = run_protocol(
                source_bags, target_bags, replace(ACCEPT_HYPER, seed=seed), k=FOLDS
            )
            adapted.append(report.mean_accuracy)
            source_only.append(report.baseline_accuracies["source_only"])
        gap = abs(float(np.mean(adapted)) - float(np.mean(source_only)))
        detail = f"adapted {np.mean(adapted):.3f}, source-only {np.mean(source_only):.3f}, |gap| {gap:.3f}"
        assert gap <= 0.05
        ok = True
    finally:
        _record(6, name, ok, detail)


def test_criterion_7_embedding_properties():
    name = "embedding monotone under instance addition and permutation-invariant, exact"
    ok = False
    try:
        rng = np.random.default_rng(107)
        for _ in range(200):
            d = int(rng.integers(1, 9))
            m = int(rng.integers(1, 9))
            k = int(rng.integers(1, 6))
            instances = rng.normal(size=(m, d)) * rng.uniform(0.1, 10)
            extra = rng.normal(size=(int(rng.integers(1, 4)), d))
            dictionary = Dictionary(codewords=rng.normal(size=(k, d)))
            smaller = embed_bag(Bag(id="s", instances=instances), dictionary)
            larger = embed_bag(
                Bag(id="l", instances=np.vstack([instances, extra])), dictionary
            )
            assert np.all(larger >= smaller)
        for _ in range(200):
            d = int(rng.integers(1, 9))
            m = int(rng.integers(1, 9))
            k = int(rng.integers(1, 6))
            instances = rng.normal(size=(m, d)) * rng.uniform(0.1, 10)
            dictionary = Dictionary(codewords=rng.normal(size=(k, d)))
            permuted = instances[rng.permutation(m)]
            original = embed_bag(Bag(id="o", instances=instances), dictionary)
            shuffled = embed_bag(Bag(id="p", instances=permuted), dictionary)
            assert np.array_equal(original, shuffled)
        ok = True
    finally:
        _record(7, name, ok, "200 cases each, no tolerance")


def test_criterion_8_dual_ascent_from_warm_start():
    name = "each outer dual solve improves on its warm start under the same dictionary"
    ok = False
    detail = ""
    try:
        checked = 0
        worst = float("inf")
        for seed in range(8):
            cfg = replace(SHIFT_CONFIG, bags_per_class_source=15, bags_per_class_target=8)
            source_bags, target_bags = generate_synthetic(cfg, seed=seed)
            source = train_source(source_bags, iota=6, c=1.0, seed=seed)
            hyper = replace(ACCEPT_HYPER, kappa=5, max_outer=6, seed=seed)
            _, report = fit_dtc(target_bags, source, hyper)
            assert report.outer_iterations >= 1
            for warm, solved in zip(report.warm_start_dual_values, report.dual_values):
                worst = min(worst, solved - warm)
                assert solved >= warm - 1e-9
                checked += 1
        detail = f"{checked} solves, worst improvement {worst:.2e}"
        ok = True
    finally:
        _record(8, name, ok, detail)


def test_criterion_9_regularizer_sensitivity():
    name = "3x3 sweep over c1, c2 in {0.1, 1, 10}: accuracy band <= 0.15, 9k CSV rows"
    ok = False
    detail = ""
    try:
        grid = [0.1, 1.0, 10.0]
        source_bags, target_bags = generate_synthetic(SHIFT_CONFIG, seed=0)
        rows = sweep(
            source_bags, target_bags, ACCEPT_HYPER, grid, grid, k=FOLDS
        )
        csv_lines = sweep_rows_to_csv(rows).splitlines()
        assert len(csv_lines) == 1 + 9 * FOLDS  # header + 9k data rows
        cell_means = {}
        for row in rows:
            cell_means.setdefault((row["c1"], row["c2"]), []).append(row["accuracy"])
        means = [float(np.mean(v)) for v in cell_means.values()]
        band = max(means) - min(means)
        detail = f"band {band:.3f} over cells {min(means):.3f}..{max(means):.3f}"
        assert band <= 0.15
        ok = True
    finally:
        _record(9, name, ok, detail)


def test_criterion_10_pipeline_determinism(tmp_path):
    name = "identical seeds give byte-identical protocol report files"
    ok = False
    try:
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "d": 6,
                    "bags_per_class_source": 20,
                    "bags_per_class_target": 10,
                    "instances_per_bag": [4, 8],
                    "cluster_separation": 4.0,
                    "shift_rotation_degrees": 30.0,
                    "shift_translation": 1.5,
                    "noise_sigma": 0.75,
                }
            )
        )
        reports = []
        for run in ("first", "second"):
            src = str(tmp_path / f"source-{run}.jsonl")
            tgt = str(tmp_path / f"target-{run}.jsonl")
            model = str(tmp_path / f"model-{run}.json")
            report = str(tmp_path / f"report-{run}.json")
            assert cli_main(["synth", "--config", str(config), "--seed", "11",
                             "--out-source", src, "--out-target", tgt]) == 0
            assert cli_main(["train-source", "--data", src, "--words", "6",
                             "--c", "1.0", "--seed", "11", "--out", model]) == 0
            assert cli_main(["protocol", "--source", src, "--target", tgt,
                             "--folds", "5", "--kappa", "5", "--inner-iters", "4",
                             "--max-outer", "3", "--eta", "0.02", "--tol", "1e-3",
                             "--seed", "11", "--out", report]) == 0
            reports.append(Path(report).read_bytes())
        assert reports[0] == reports[1]
        doc = json.loads(reports[0])
        assert len(doc["per_fold_accuracy"]) == 5
        ok = True
    finally:
        _record(10, name, ok)
