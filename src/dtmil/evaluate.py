"""Evaluation protocol, metrics, baselines and the regularizer sweep.

The cross-validation here is deliberately inverted: each fold serves as the
*training* set while the remaining k-1 folds are tested, modeling a target
domain where labeled data is scarce.  A conventional flag flips that around.
Per-fold seeds derive from (seed, fold index), so fold work is
order-independent: where the process can fork safely, the folds run in
forked worker processes, with the same results, bit for bit, as in-process.
"""

from __future__ import annotations

import csv
import io
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    AdaptedModel,
    Bag,
    BagBatch,
    Hyperparams,
    SourceModel,
    _check_int,
    _check_labeled,
    predict,
    score_source,
    score_target,
)
from .errors import InvalidInputError
from .learn import FitReport, _capture_warnings, fit_dtc, train_source

SWEEP_CSV_HEADER = ("c1", "c2", "fold", "accuracy")

# stream tags keeping derived seeds disjoint across uses
_SEED_SOURCE, _SEED_FIT, _SEED_TARGET_ONLY = 0, 1, 2

# the fold function of the running pool, handed to its workers by the fork
# itself, so that no bag is pickled; set only while the pool runs
_FOLD = None


def derive_seed(seed: int, *parts: int) -> int:
    """Deterministic child seed for (seed, stream, fold, ...) tuples."""
    return int(np.random.SeedSequence([seed, *parts]).generate_state(1, np.uint32)[0])


@dataclass(frozen=True)
class FoldSplit:
    """Bag-id to fold-index map for k folds."""

    k: int
    assignments: dict[str, int]

    def partition(self, bags: list[Bag], fold: int) -> tuple[list[Bag], list[Bag]]:
        """(bags in ``fold``, bags in every other fold), in input order."""
        inside = [bag for bag in bags if self.assignments[bag.id] == fold]
        outside = [bag for bag in bags if self.assignments[bag.id] != fold]
        return inside, outside


@dataclass
class ProtocolReport:
    """Per-fold accuracies of the adapted model and both baselines.

    ``per_fold_warnings[F]`` is fold F's ``FitReport.warnings``, target-only
    baseline included; ``warnings`` lists them all, each prefixed "fold F: ".
    """

    per_fold_accuracy: list[float]
    mean_accuracy: float
    baseline_accuracies: dict[str, float]
    per_fold_warnings: list[list[str]]

    @property
    def warnings(self) -> list[str]:
        return [f"fold {fold}: {w}" for fold, ws in enumerate(self.per_fold_warnings) for w in ws]


def split_folds(bags: list[Bag], k: int, seed: int) -> FoldSplit:
    """Stratified fold assignment, deterministic given ``seed``.

    Bags of each class are shuffled and dealt round-robin with a shared
    position counter, so fold sizes differ by at most one and each fold's
    class ratio stays within one bag of the global ratio.
    """
    _check_int(k, "fold count", 2)
    _check_int(seed, "seed", 0)
    if len(bags) < k:
        raise InvalidInputError(f"cannot split {len(bags)} bags into {k} folds")
    ids = [bag.id for bag in bags]
    if len(set(ids)) != len(ids):
        raise InvalidInputError("bag ids must be unique to assign folds")
    _check_labeled(bags, "stratified fold split")

    rng = np.random.default_rng(seed)
    assignments: dict[str, int] = {}
    position = 0
    for label in (1, -1):
        group = [bag.id for bag in bags if bag.label == label]
        rng.shuffle(group)
        for bag_id in group:
            assignments[bag_id] = position % k
            position += 1
    return FoldSplit(k=k, assignments=assignments)


def accuracy(model: AdaptedModel | SourceModel, bags: list[Bag]) -> float:
    """Fraction of bags whose predicted label matches the true label."""
    labels = _check_labeled(bags, "evaluation set")
    if isinstance(model, AdaptedModel):
        score = score_target
    elif isinstance(model, SourceModel):
        score = score_source
    else:
        raise InvalidInputError(f"unsupported model type {type(model).__name__}")
    return int(np.count_nonzero(predict(score(BagBatch(bags), model)) == labels)) / len(bags)


def _target_only_accuracy(train: list[Bag], test: list[Bag], hyper: Hyperparams, seed: int) -> float:
    labels = {bag.label for bag in train}
    if len(labels) < 2:
        # single-class fold: the from-scratch trainer has nothing to
        # separate, so the baseline predicts the lone training label
        only = labels.pop()
        return sum(bag.label == only for bag in test) / len(test)
    model = train_source(train, hyper.kappa, hyper.c1, seed)
    return accuracy(model, test)


def _thread_count() -> int:
    return len(os.listdir("/proc/self/task"))


def _fold_workers(k: int) -> int:
    # how many processes may run k folds; 1 keeps them in this one.  A fork
    # is safe only in a single-threaded process: a child of a process with a
    # second thread (a multi-threaded BLAS, say) may deadlock on a lock that
    # thread held, and those threads would compete with the workers for the
    # cores anyway.  A multiprocessing daemon may not have children at all.
    if sys.platform != "linux" or _thread_count() > 1:
        return 1
    mp = sys.modules.get("multiprocessing")
    if mp is not None and mp.current_process().daemon:
        return 1
    return min(k, len(os.sched_getaffinity(0)))


def _run_fold(fold: int):
    return _FOLD(fold)


@contextmanager
def _fold_results(run_fold, k: int):
    # run_fold(0), ..., run_fold(k - 1) in fold order, from forked workers
    # when _fold_workers allows; a raise cancels the folds not yet started,
    # and no worker outlives the block
    global _FOLD
    workers = _fold_workers(k)
    if workers < 2:
        yield map(run_fold, range(k))
        return
    # imported here: multiprocessing alone adds about 2 MB to the process
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # with the fork context, the pool forks every worker at the first
    # submit, before it starts a thread of its own
    _FOLD, threads = run_fold, _thread_count()
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        futures = [pool.submit(_run_fold, fold) for fold in range(k)]
        yield (future.result() for future in futures)
    finally:
        pool.shutdown(cancel_futures=True)
        _FOLD = None
        # the pool's threads are joined, but leave the OS up to milliseconds
        # later; wait for that, so that a run right after this one (a sweep's
        # next cell) finds the thread count it started with and forks again
        deadline = time.monotonic() + 1.0
        while _thread_count() > threads and time.monotonic() < deadline:
            time.sleep(0.0005)


def run_protocol(
    source: list[Bag],
    target: list[Bag],
    hyper: Hyperparams,
    k: int,
    source_model: SourceModel | None = None,
    conventional: bool = False,
    on_fit=None,
) -> ProtocolReport:
    """Cross-validated evaluation of adaptation against both baselines.

    For every fold: fit the adaptation on that fold alone (or on its
    complement when ``conventional``), test on the rest, and score the
    "source_only" baseline (the source model as-is) and the "target_only"
    baseline (the from-scratch trainer on the same training fold) on the
    same test bags.  ``source_model`` defaults to one trained on the full
    source set with ``hyper.kappa`` words and regularizer ``hyper.c1``.

    ``on_fit(fold, FitReport)`` is invoked after each fold's fit and
    target-only baseline; the report's warnings include any warning the
    baseline's training issued, prefixed "target-only baseline".  The
    returned report gathers those warnings too, so no caller needs ``on_fit``
    to see them.  An ``InvalidInputError`` from a fold's fit names the fold.

    The folds may run in forked worker processes (see ``_fold_workers``);
    ``on_fit`` still runs in the caller, in fold order, and the report and
    every ``FitReport`` are the same either way.
    """
    split = split_folds(target, k, hyper.seed)
    if source_model is None:
        source_model = train_source(
            source, hyper.kappa, hyper.c1, derive_seed(hyper.seed, _SEED_SOURCE)
        )

    def run_fold(fold: int) -> tuple[float, float, float, FitReport]:
        inside, outside = split.partition(target, fold)
        train, test = (outside, inside) if conventional else (inside, outside)
        fold_hyper = replace(hyper, seed=derive_seed(hyper.seed, _SEED_FIT, fold))
        try:
            model, report = fit_dtc(train, source_model, fold_hyper)
        except InvalidInputError as err:
            raise InvalidInputError(f"{err} in fold {fold}") from err
        # every fold's capped baseline reaches its own report
        seed = derive_seed(hyper.seed, _SEED_TARGET_ONLY, fold)
        target_acc, caught = _capture_warnings(_target_only_accuracy, train, test, hyper, seed)
        report.warnings.extend(f"target-only baseline: {message}" for message in caught)
        return accuracy(model, test), accuracy(source_model, test), target_acc, report

    results = []
    with _fold_results(run_fold, split.k) as folds:
        for fold, result in enumerate(folds):
            if on_fit is not None:
                on_fit(fold, result[3])
            results.append(result)

    per_fold = [r[0] for r in results]
    return ProtocolReport(
        per_fold_accuracy=per_fold,
        mean_accuracy=float(np.mean(per_fold)),
        baseline_accuracies={
            "source_only": float(np.mean([r[1] for r in results])),
            "target_only": float(np.mean([r[2] for r in results])),
        },
        per_fold_warnings=[r[3].warnings for r in results],
    )


def sweep(
    source: list[Bag],
    target: list[Bag],
    base_hyper: Hyperparams,
    c1_grid: list[float],
    c2_grid: list[float],
    k: int,
) -> list[dict]:
    """Run the protocol over a (c1, c2) grid; one row per (c1, c2, fold).

    The source model is trained once from ``base_hyper`` and shared across
    all grid cells, so the sweep varies only the adaptation regularizers;
    every cell takes its seed from ``base_hyper.seed``.  A row's
    ``warnings`` is that fold's entry of ``ProtocolReport.per_fold_warnings``.
    """
    if not c1_grid or not c2_grid:
        raise InvalidInputError("c1 and c2 grids must be nonempty")
    shared_model = train_source(
        source, base_hyper.kappa, base_hyper.c1, derive_seed(base_hyper.seed, _SEED_SOURCE)
    )
    rows: list[dict] = []
    for c1 in c1_grid:
        for c2 in c2_grid:
            report = run_protocol(source, target, replace(base_hyper, c1=c1, c2=c2), k, shared_model)
            for fold, acc in enumerate(report.per_fold_accuracy):
                rows.append(
                    {
                        "c1": c1,
                        "c2": c2,
                        "fold": fold,
                        "accuracy": acc,
                        "warnings": report.per_fold_warnings[fold],
                    }
                )
    return rows


def sweep_rows_to_csv(rows: list[dict]) -> str:
    """RFC-4180 CSV text (LF line endings) for sweep output rows."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(SWEEP_CSV_HEADER)
    for row in rows:
        writer.writerow([row[key] for key in SWEEP_CSV_HEADER])
    return buffer.getvalue()
