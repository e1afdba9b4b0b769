"""Tests for fold splitting, accuracy, the inverted protocol and the sweep."""

import csv
import io
from dataclasses import replace

import numpy as np
import pytest

from dtmil import (
    Bag,
    Dictionary,
    Hyperparams,
    InvalidInputError,
    SourceModel,
    accuracy,
    generate_synthetic,
    predict,
    run_protocol,
    score_source,
    split_folds,
    sweep,
    train_source,
)
from dtmil.data import SynthConfig
from dtmil.evaluate import sweep_rows_to_csv


def labeled_bags(n, d=2, seed=0, balanced=True):
    rng = np.random.default_rng(seed)
    bags = []
    for i in range(n):
        label = 1 if (i % 2 == 0 if balanced else rng.random() < 0.5) else -1
        bags.append(Bag(id=f"b{i}", label=int(label), instances=rng.normal(size=(3, d))))
    return bags


class TestSplitFolds:
    def test_each_fold_single_bag(self):
        split = split_folds(labeled_bags(10), k=10, seed=0)
        counts = np.bincount(list(split.assignments.values()), minlength=10)
        assert counts.tolist() == [1] * 10

    def test_deterministic(self):
        bags = labeled_bags(23)
        a = split_folds(bags, k=5, seed=3)
        b = split_folds(bags, k=5, seed=3)
        assert a.assignments == b.assignments

    def test_stratified_two_per_fold(self):
        bags = labeled_bags(20)  # 10 per class
        split = split_folds(bags, k=10, seed=1)
        for fold in range(10):
            members = [b for b in bags if split.assignments[b.id] == fold]
            assert len(members) == 2
            assert {m.label for m in members} == {1, -1}

    def test_sizes_within_one(self):
        bags = labeled_bags(23)
        split = split_folds(bags, k=5, seed=2)
        counts = np.bincount(list(split.assignments.values()), minlength=5)
        assert counts.max() - counts.min() <= 1
        assert counts.sum() == 23

    def test_class_ratio_within_one_bag(self):
        rng = np.random.default_rng(4)
        bags = [
            Bag(id=f"b{i}", label=int(1 if i < 17 else -1), instances=rng.normal(size=(2, 2)))
            for i in range(30)
        ]
        split = split_folds(bags, k=4, seed=5)
        for fold in range(4):
            members = [b for b in bags if split.assignments[b.id] == fold]
            positives = sum(m.label == 1 for m in members)
            assert abs(positives - 17 / 4) <= 1.0

    def test_too_few_bags(self):
        with pytest.raises(InvalidInputError):
            split_folds(labeled_bags(3), k=4, seed=0)

    def test_k_below_two(self):
        with pytest.raises(InvalidInputError):
            split_folds(labeled_bags(5), k=1, seed=0)

    def test_partition_complement(self):
        bags = labeled_bags(12)
        split = split_folds(bags, k=4, seed=6)
        inside, outside = split.partition(bags, 2)
        assert len(inside) + len(outside) == 12
        assert {b.id for b in inside}.isdisjoint({b.id for b in outside})


class TestAccuracy:
    def test_perfect_and_inverted(self):
        model = SourceModel(phi=Dictionary(codewords=[[1.0]]), v=[1.0])
        right = [Bag(id="p", label=1, instances=[[2.0]]), Bag(id="n", label=-1, instances=[[-2.0]])]
        wrong = [Bag(id="p", label=-1, instances=[[2.0]]), Bag(id="n", label=1, instances=[[-2.0]])]
        assert accuracy(model, right) == 1.0
        assert accuracy(model, wrong) == 0.0

    def test_matches_reference_recount(self):
        rng = np.random.default_rng(7)
        model = SourceModel(phi=Dictionary(codewords=rng.normal(size=(3, 2))), v=rng.normal(size=3))
        bags = labeled_bags(25, seed=8)
        expected = sum(
            predict(score_source(b, model)) == b.label for b in bags
        ) / len(bags)
        assert accuracy(model, bags) == expected

    def test_empty_rejected(self):
        model = SourceModel(phi=Dictionary(codewords=[[1.0]]), v=[1.0])
        with pytest.raises(InvalidInputError):
            accuracy(model, [])


def small_problem(seed=0):
    cfg = SynthConfig(
        d=4,
        bags_per_class_source=15,
        bags_per_class_target=10,
        instances_per_bag=(3, 6),
        cluster_separation=3.0,
        shift_rotation_degrees=25.0,
        shift_translation=0.8,
        noise_sigma=0.4,
    )
    return generate_synthetic(cfg, seed=seed)


FAST = Hyperparams(kappa=4, inner_iters=4, max_outer=3, seed=0)


class TestRunProtocol:
    def test_report_shape_and_mean(self):
        source, target = small_problem()
        report = run_protocol(source, target, FAST, k=4)
        assert len(report.per_fold_accuracy) == 4
        assert len(report.per_fold_seconds) == 4
        np.testing.assert_allclose(
            report.mean_accuracy, np.mean(report.per_fold_accuracy), rtol=0, atol=1e-12
        )
        assert set(report.baseline_accuracies) == {"source_only", "target_only"}
        for acc in report.per_fold_accuracy:
            assert 0.0 <= acc <= 1.0

    def test_deterministic(self):
        source, target = small_problem(seed=1)
        a = run_protocol(source, target, FAST, k=4)
        b = run_protocol(source, target, FAST, k=4)
        assert a.per_fold_accuracy == b.per_fold_accuracy
        assert a.baseline_accuracies == b.baseline_accuracies

    def test_leave_rest_out_extreme_runs(self):
        # k = n trains each fit on a single bag; single-class fits warn but run
        source, target = small_problem(seed=3)
        target = target[:6]
        report = run_protocol(source, target, FAST, k=6)
        assert len(report.per_fold_accuracy) == 6

    def test_explicit_source_model_reused(self):
        source, target = small_problem(seed=4)
        model = train_source(source, FAST.kappa, FAST.c1, seed=99)
        a = run_protocol(source, target, FAST, k=4, source_model=model)
        b = run_protocol(source, target, FAST, k=4, source_model=model)
        assert a.per_fold_accuracy == b.per_fold_accuracy

    def test_conventional_direction(self):
        source, target = small_problem(seed=5)
        report = run_protocol(source, target, FAST, k=4, conventional=True)
        assert len(report.per_fold_accuracy) == 4

    def test_on_fit_callback_sees_each_fold(self):
        source, target = small_problem(seed=6)
        seen = []
        run_protocol(source, target, FAST, k=4, on_fit=lambda fold, rep: seen.append(fold))
        assert sorted(seen) == [0, 1, 2, 3]

    def test_capped_baseline_is_reported_per_fold(self, monkeypatch):
        import dtmil.learn
        from dtmil import solve_box_qp

        source, target = small_problem(seed=7)
        model = train_source(source, FAST.kappa, FAST.c1, seed=99)
        monkeypatch.setattr(
            dtmil.learn, "solve_box_qp",
            lambda prob, init=None: solve_box_qp(prob, init=init, max_sweeps=1),
        )
        reports = {}
        run_protocol(source, target, FAST, k=4, source_model=model,
                     on_fit=lambda fold, rep: reports.setdefault(fold, rep))
        assert sorted(reports) == [0, 1, 2, 3]
        for report in reports.values():
            baseline = [w for w in report.warnings if w.startswith("target-only baseline: ")]
            assert len(baseline) == 1
            assert "dual solve stopped at its sweep cap after 1 sweeps" in baseline[0]


class TestSweep:
    def test_row_count_and_order(self):
        source, target = small_problem(seed=7)
        rows = sweep(source, target, replace(FAST, seed=0), [0.5, 1.0], [0.1, 1.0], k=3)
        assert len(rows) == 2 * 2 * 3
        assert [row["fold"] for row in rows[:3]] == [0, 1, 2]
        assert rows[0]["c1"] == 0.5 and rows[-1]["c1"] == 1.0

    def test_single_cell_matches_direct_protocol(self):
        source, target = small_problem(seed=8)
        hyper = replace(FAST, seed=5)
        rows = sweep(source, target, hyper, [FAST.c1], [FAST.c2], k=3)
        report = run_protocol(source, target, hyper, k=3)
        assert [row["accuracy"] for row in rows] == report.per_fold_accuracy

    def test_empty_grid_rejected(self):
        source, target = small_problem(seed=9)
        with pytest.raises(InvalidInputError):
            sweep(source, target, replace(FAST, seed=0), [], [1.0], k=3)

    def test_csv_format(self):
        rows = [
            {"c1": 0.1, "c2": 1.0, "fold": 0, "accuracy": 0.75, "seconds": 0.012},
            {"c1": 0.1, "c2": 1.0, "fold": 1, "accuracy": 1.0, "seconds": 0.011},
        ]
        text = sweep_rows_to_csv(rows)
        assert text.startswith("c1,c2,fold,accuracy,seconds\n")
        assert "\r" not in text
        parsed = list(csv.reader(io.StringIO(text)))
        assert parsed[0] == ["c1", "c2", "fold", "accuracy", "seconds"]
        assert len(parsed) == 3
        assert float(parsed[1][3]) == 0.75
