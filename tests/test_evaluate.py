"""Tests for fold splitting, accuracy, the inverted protocol and the sweep."""

import csv
import io
import os
import re
from dataclasses import replace
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from dtmil import (
    Bag,
    BagBatch,
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
from dtmil.evaluate import _SEED_FIT, _SEED_SOURCE, derive_seed, sweep_rows_to_csv


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

    @pytest.mark.parametrize("k", [2.5, 2.0, True, "2"])
    def test_non_integer_k_rejected(self, k):
        with pytest.raises(InvalidInputError, match="fold count"):
            split_folds(labeled_bags(5), k=k, seed=0)

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
            predict(score_source(BagBatch([b]), model))[0] == b.label for b in bags
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


def fold_workers(monkeypatch, workers):
    # force run_protocol's path: 1 runs the folds in-process, 2 in two forked
    # workers, whatever the probe would find in this process
    import dtmil.evaluate

    monkeypatch.setattr(dtmil.evaluate, "_fold_workers", lambda k: workers)


def counted_fits(monkeypatch):
    # a list that grows by one for each fold fit started in this process
    import dtmil.evaluate

    real, fits = dtmil.evaluate.fit_dtc, []

    def counted(*args):
        fits.append(1)
        return real(*args)

    monkeypatch.setattr(dtmil.evaluate, "fit_dtc", counted)
    return fits


def capped_solves(monkeypatch):
    import dtmil.learn
    from dtmil import solve_box_qp

    monkeypatch.setattr(
        dtmil.learn, "solve_box_qp",
        lambda prob, init=None: solve_box_qp(prob, init=init, max_sweeps=1),
    )


class TestRunProtocol:
    def test_non_finite_descent_names_round_and_fold(self, monkeypatch):
        # the fold in the message is the one whose fit raised: the last of
        # the fits started, counting from 0, which only an in-process run
        # can count here
        fold_workers(monkeypatch, 1)
        fits = counted_fits(monkeypatch)
        source, target = small_problem(seed=3)
        hyper = replace(FAST, eta=1e308, c1=0.01, seed=0)
        with pytest.raises(InvalidInputError) as caught:
            run_protocol(source, target, hyper, k=3)
        assert re.fullmatch(
            r"descent step \d+: codeword \d+ is not finite \(step size eta=1e\+308\) "
            rf"in outer round \d+ in fold {len(fits) - 1}",
            str(caught.value),
        )

    def test_report_shape_and_mean(self):
        source, target = small_problem()
        report = run_protocol(source, target, FAST, k=4)
        assert len(report.per_fold_accuracy) == 4
        assert len(report.per_fold_warnings) == 4
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
        source, target = small_problem(seed=7)
        model = train_source(source, FAST.kappa, FAST.c1, seed=99)
        capped_solves(monkeypatch)
        reports = {}
        run_protocol(source, target, FAST, k=4, source_model=model,
                     on_fit=lambda fold, rep: reports.setdefault(fold, rep))
        assert sorted(reports) == [0, 1, 2, 3]
        for report in reports.values():
            baseline = [w for w in report.warnings if w.startswith("target-only baseline: ")]
            assert len(baseline) == 1
            assert "dual solve stopped at its sweep cap after 1 sweeps" in baseline[0]

    def test_warnings_reach_the_report_without_on_fit(self, monkeypatch):
        source, target = small_problem(seed=7)
        model = train_source(source, FAST.kappa, FAST.c1, seed=99)
        capped_solves(monkeypatch)
        report = run_protocol(source, target, FAST, k=4, source_model=model)
        capped = "outer round 1: dual solve stopped at its sweep cap after 1 sweeps without converging"
        for fold in range(4):
            assert f"fold {fold}: {capped}" in report.warnings
            assert any(w.startswith(f"fold {fold}: target-only baseline: source training: ")
                       for w in report.warnings)

    def test_report_warnings_are_the_folds_fit_warnings(self):
        source, target = small_problem(seed=3)
        reports = {}
        report = run_protocol(source, target[:6], FAST, k=6,
                              on_fit=lambda fold, rep: reports.setdefault(fold, rep))
        expected = [f"fold {fold}: {w}" for fold in range(6) for w in reports[fold].warnings]
        assert expected and report.warnings == expected
        assert report.per_fold_warnings == [reports[fold].warnings for fold in range(6)]


def fit_record(report):
    # every FitReport field but the wall time, final beta as its bytes
    return (report.dual_values, report.primal_values, report.warm_start_dual_values,
            report.converged, report.final_dual_value, report.final_beta.tobytes(), report.warnings)


# forced workers fork this process even where a multi-threaded BLAS runs;
# Python 3.12 and later warn about that fork
forks = pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")


def assert_no_children():
    # waitpid(-1) sees every child of this process, running or a zombie,
    # however it was started
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def daemon_accuracies(seed):
    # run_protocol inside a multiprocessing daemon, on the path its caller forced
    source, target = small_problem(seed=seed)
    return run_protocol(source, target, FAST, k=3).per_fold_accuracy


@forks
class TestFoldWorkers:
    """Folds in forked workers give the in-process results, bit for bit."""

    def run_both(self, monkeypatch, *args, **kwargs):
        out = []
        for workers in (2, 1):
            fold_workers(monkeypatch, workers)
            calls = []
            report = run_protocol(*args, **kwargs,
                                  on_fit=lambda fold, rep: calls.append((fold, fit_record(rep))))
            out.append((report, calls))
        return out

    @pytest.mark.parametrize("conventional", [False, True])
    def test_same_reports_as_in_process(self, monkeypatch, conventional):
        source, target = small_problem(seed=5)
        pooled, local = self.run_both(monkeypatch, source, target, FAST, k=4,
                                      conventional=conventional)
        assert pooled == local
        assert [fold for fold, _ in local[1]] == [0, 1, 2, 3]

    def test_warnings_cross_the_process_boundary(self, monkeypatch):
        source, target = small_problem(seed=7)
        model = train_source(source, FAST.kappa, FAST.c1, seed=99)
        capped_solves(monkeypatch)
        pooled, local = self.run_both(monkeypatch, source, target, FAST, k=4, source_model=model)
        assert pooled == local
        assert all(any(w.startswith("target-only baseline: ") for w in record[-1])
                   for _, record in pooled[1])

    def test_fits_run_in_the_workers(self, monkeypatch):
        fits = counted_fits(monkeypatch)
        fold_workers(monkeypatch, 2)
        source, target = small_problem(seed=2)
        report = run_protocol(source, target, FAST, k=3)
        assert fits == [] and len(report.per_fold_accuracy) == 3

    def test_no_worker_outlives_the_protocol(self, monkeypatch):
        fold_workers(monkeypatch, 2)
        source, target = small_problem(seed=3)
        run_protocol(source, target, FAST, k=3)
        assert_no_children()
        with pytest.raises(InvalidInputError):
            run_protocol(source, target, replace(FAST, eta=1e308, c1=0.01), k=3)
        assert_no_children()

    def test_the_pool_leaves_the_thread_count_it_found(self, monkeypatch):
        # so that a second run_protocol call may fork again
        fold_workers(monkeypatch, 2)
        source, target = small_problem(seed=3)
        before = len(os.listdir("/proc/self/task"))
        for _ in range(8):
            run_protocol(source, target, FAST, k=2)
            assert len(os.listdir("/proc/self/task")) == before

    def test_the_workers_leave_no_open_descriptor(self, monkeypatch):
        # every pipe is closed as the call ends, not when a collection runs
        import gc

        fold_workers(monkeypatch, 2)
        source, target = small_problem(seed=3)
        before = sorted(os.listdir("/proc/self/fd"))
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(3):
                run_protocol(source, target, FAST, k=4)
                with pytest.raises(InvalidInputError):
                    run_protocol(source, target, replace(FAST, eta=1e308, c1=0.01), k=4)
            assert sorted(os.listdir("/proc/self/fd")) == before
        finally:
            if enabled:
                gc.enable()

    def test_non_finite_descent_raises_the_same_text(self, monkeypatch):
        source, target = small_problem(seed=3)
        hyper = replace(FAST, eta=1e308, c1=0.01)
        texts = []
        for workers in (2, 1):
            fold_workers(monkeypatch, workers)
            with pytest.raises(InvalidInputError, match=r" in fold \d+$") as caught:
                run_protocol(source, target, hyper, k=3)
            texts.append(str(caught.value))
        assert texts[0] == texts[1]

    def test_a_raising_on_fit_stops_the_pool(self, monkeypatch):
        def on_fit(fold, report):
            if fold == 1:
                raise RuntimeError("stop")
            seen.append(fold)

        seen = []
        fold_workers(monkeypatch, 2)
        source, target = small_problem(seed=4)
        with pytest.raises(RuntimeError, match="^stop$"):
            run_protocol(source, target, FAST, k=4, on_fit=on_fit)
        assert seen == [0]
        assert_no_children()

    def test_each_result_reaches_on_fit_as_its_fold_ends(self, monkeypatch):
        # fold 2 runs after fold 0 in the same worker and would take 30 s:
        # fold 0's result must reach on_fit before fold 2 ends
        import time

        import dtmil.evaluate

        real, slow = dtmil.evaluate.fit_dtc, derive_seed(FAST.seed, _SEED_FIT, 2)

        def fit(train, source_model, hyper):
            if hyper.seed == slow:
                time.sleep(30)
            return real(train, source_model, hyper)

        def on_fit(fold, report):
            raise RuntimeError(f"saw fold {fold}")

        monkeypatch.setattr(dtmil.evaluate, "fit_dtc", fit)
        fold_workers(monkeypatch, 2)
        source, target = small_problem(seed=4)
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="^saw fold 0$"):
            run_protocol(source, target, FAST, k=4, on_fit=on_fit)
        assert time.monotonic() - start < 10
        assert_no_children()

    def test_a_raise_stops_the_running_folds(self, monkeypatch):
        # fold 0 fails at once, while the fold the other worker runs would
        # take 30 s: the raise must not wait for it
        import time

        import dtmil.evaluate

        first = derive_seed(FAST.seed, _SEED_FIT, 0)

        def fit(train, source_model, hyper):
            if hyper.seed == first:
                raise InvalidInputError("stop")
            time.sleep(30)

        monkeypatch.setattr(dtmil.evaluate, "fit_dtc", fit)
        fold_workers(monkeypatch, 2)
        source, target = small_problem(seed=4)
        start = time.monotonic()
        with pytest.raises(InvalidInputError, match="^stop in fold 0$") as caught:
            run_protocol(source, target, FAST, k=4)
        assert time.monotonic() - start < 10
        assert 'raise InvalidInputError("stop")' in str(caught.value.__cause__)
        assert_no_children()

    def test_a_worker_that_dies_fails_the_call(self, monkeypatch):
        # the killed worker's pipe ends without the killed fold's result, and
        # the call must fail rather than wait for it; the alarm bounds a wait
        import signal

        import dtmil.evaluate

        real, first = dtmil.evaluate.fit_dtc, derive_seed(FAST.seed, _SEED_FIT, 0)

        def fit(train, source_model, hyper):
            if hyper.seed == first:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(train, source_model, hyper)

        def hung(signum, frame):
            raise AssertionError("run_protocol still waits for the killed worker's fold")

        monkeypatch.setattr(dtmil.evaluate, "fit_dtc", fit)
        fold_workers(monkeypatch, 2)
        source, target = small_problem(seed=4)
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(20)
        try:
            with pytest.raises(RuntimeError, match="abruptly"):
                run_protocol(source, target, FAST, k=4)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert_no_children()

    def test_a_threaded_process_keeps_its_folds(self):
        import threading

        from dtmil.evaluate import _fold_workers

        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert _fold_workers(10) == 1
        finally:
            release.set()
            thread.join()

    def test_a_daemon_runs_its_folds_in_workers(self, monkeypatch):
        # a multiprocessing daemon may not start multiprocessing children, but
        # the fold workers are plain forks; the daemon inherits the forced path
        import multiprocessing

        fold_workers(monkeypatch, 1)
        local = daemon_accuracies(6)
        fold_workers(monkeypatch, 2)
        with multiprocessing.get_context("fork").Pool(1) as pool:
            assert pool.apply(daemon_accuracies, (6,)) == local

    def test_import_loads_no_process_machinery(self):
        # nor does a run with forked workers, and the caller starts no thread
        import subprocess
        import sys

        import dtmil

        src = str(Path(dtmil.__file__).parent.parent)
        code = f"""
import os, sys
sys.path.insert(0, {src!r})
import dtmil, dtmil.evaluate
from dtmil.data import SynthConfig
dtmil.evaluate._fold_workers = lambda jobs: 2
source, target = dtmil.generate_synthetic(SynthConfig(d=2, bags_per_class_source=6,
                                                       bags_per_class_target=4), 1)
dtmil.run_protocol(source, target, dtmil.Hyperparams(kappa=2, inner_iters=2, max_outer=2), k=2)
print(sorted({{'multiprocessing', 'concurrent.futures'}} & set(sys.modules)))
print(len(os.listdir('/proc/self/task')))
"""
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env=env)
        assert out.stdout == "[]\n1\n"


class TestSweep:
    def test_row_count_and_order(self):
        source, target = small_problem(seed=7)
        rows = sweep(source, target, replace(FAST, seed=0), [0.5, 1.0], [0.1, 1.0], k=3)
        assert len(rows) == 2 * 2 * 3
        assert [row["fold"] for row in rows[:3]] == [0, 1, 2]
        assert rows[0]["c1"] == 0.5 and rows[-1]["c1"] == 1.0

    def test_trains_and_scores_no_baseline(self, monkeypatch):
        import dtmil.evaluate

        def refuse(*args):
            raise AssertionError("sweep discards the baselines")

        fold_workers(monkeypatch, 1)
        monkeypatch.setattr(dtmil.evaluate, "_target_only_accuracy", refuse)
        real, scored = dtmil.evaluate.accuracy, []
        monkeypatch.setattr(dtmil.evaluate, "accuracy", lambda m, b: scored.append(m) or real(m, b))
        source, target = small_problem(seed=7)
        rows = sweep(source, target, replace(FAST, seed=0), [0.5], [0.1, 1.0], k=3)
        # one adapted model scored per job, and no source-only baseline
        assert len(rows) == len(scored) == 2 * 3

    @forks
    @pytest.mark.parametrize("workers", [2, 1])
    def test_each_cell_matches_direct_protocol(self, monkeypatch, workers):
        import dtmil.evaluate

        real, entered = dtmil.evaluate._fold_results, []

        def counted(*args):
            entered.append(args[1])
            return real(*args)

        monkeypatch.setattr(dtmil.evaluate, "_fold_results", counted)
        fold_workers(monkeypatch, workers)
        capped_solves(monkeypatch)  # so that every row carries warnings
        source, target = small_problem(seed=8)
        hyper = replace(FAST, seed=5)
        c1_grid, c2_grid = [0.5, 1.0], [0.1, 1.0]
        # the shared source model's capped solve warns the library caller
        with pytest.warns(RuntimeWarning, match="sweep cap"):
            rows = sweep(source, target, hyper, c1_grid, c2_grid, k=3)
            shared = train_source(source, hyper.kappa, hyper.c1, derive_seed(hyper.seed, _SEED_SOURCE))
        assert entered == [2 * 2 * 3]  # one pass over every (cell, fold) job
        for c1, c2 in product(c1_grid, c2_grid):
            report = run_protocol(source, target, replace(hyper, c1=c1, c2=c2), k=3, source_model=shared)
            cell = [row for row in rows if (row["c1"], row["c2"]) == (c1, c2)]
            assert [row["fold"] for row in cell] == [0, 1, 2]
            assert [row["accuracy"] for row in cell] == report.per_fold_accuracy
            # a row carries its fit's warnings; the sweep trains no baseline
            fits = [[w for w in ws if not w.startswith("target-only baseline: ")]
                    for ws in report.per_fold_warnings]
            assert [row["warnings"] for row in cell] == fits
            assert all(row["warnings"] for row in cell)

    @forks
    @pytest.mark.parametrize("workers", [2, 1])
    def test_a_fit_failing_in_the_second_cell_names_its_fold(self, monkeypatch, workers):
        import dtmil.evaluate

        real, hyper = dtmil.evaluate.fit_dtc, replace(FAST, seed=5)
        failing = derive_seed(hyper.seed, _SEED_FIT, 1)

        def fit(train, source_model, fold_hyper):
            if fold_hyper.c1 == 1.0 and fold_hyper.seed == failing:
                raise InvalidInputError("no fit")
            return real(train, source_model, fold_hyper)

        monkeypatch.setattr(dtmil.evaluate, "fit_dtc", fit)
        fold_workers(monkeypatch, workers)
        source, target = small_problem(seed=8)
        with pytest.raises(InvalidInputError) as caught:
            sweep(source, target, hyper, [0.5, 1.0], [0.1], k=3)
        assert str(caught.value) == "no fit in fold 1"

    def test_rows_carry_capped_solves_without_a_callback(self, monkeypatch):
        source, target = small_problem(seed=7)
        capped_solves(monkeypatch)
        # the shared source model's capped solve is the one warning raised
        with pytest.warns(RuntimeWarning, match="sweep cap"):
            rows = sweep(source, target, replace(FAST, seed=0), [0.5, 1.0], [0.1], k=3)
        capped = "outer round 1: dual solve stopped at its sweep cap after 1 sweeps without converging"
        assert len(rows) == 2 * 3
        for row in rows:
            assert set(row) == {"c1", "c2", "fold", "accuracy", "warnings"}
            assert capped in row["warnings"]

    @pytest.mark.parametrize("c1_grid, k", [([], 3), ([-1.0], 3), ([1.0], 21)],
                             ids=["empty-grid", "negative-c1", "more-folds-than-bags"])
    def test_rejected_before_the_source_model_trains(self, monkeypatch, c1_grid, k):
        import dtmil.evaluate

        trained = []
        monkeypatch.setattr(dtmil.evaluate, "train_source", lambda *args: trained.append(args))
        source, target = small_problem(seed=9)
        assert len(target) == 20
        with pytest.raises(InvalidInputError):
            sweep(source, target, replace(FAST, seed=0), c1_grid, [1.0], k=k)
        assert trained == []

    def test_csv_format(self):
        rows = [
            {"c1": 0.1, "c2": 1.0, "fold": 0, "accuracy": 0.75, "warnings": []},
            {"c1": 0.1, "c2": 1.0, "fold": 1, "accuracy": 1.0, "warnings": ["capped"]},
        ]
        text = sweep_rows_to_csv(rows)
        assert text.startswith("c1,c2,fold,accuracy\n")
        assert "\r" not in text and "capped" not in text
        parsed = list(csv.reader(io.StringIO(text)))
        assert parsed[0] == ["c1", "c2", "fold", "accuracy"]
        assert len(parsed) == 3
        assert float(parsed[1][3]) == 0.75
