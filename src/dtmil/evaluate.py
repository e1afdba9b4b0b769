"""Evaluation protocol, metrics, baselines and the regularizer sweep.

The cross-validation here is deliberately inverted: each fold serves as the
*training* set while the remaining k-1 folds are tested, modeling a target
domain where labeled data is scarce.  A conventional flag flips that around.
Per-fold seeds derive from (seed, fold index), so fold work is
order-independent: where the process can fork safely, a call's fold jobs
run in forked worker processes, with in-process results, bit for bit.
"""

from __future__ import annotations

import csv
import io
import os
import pickle
import signal
import sys
import traceback
import warnings
from contextlib import ExitStack, contextmanager
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
    _check_match,
    predict,
    score_source,
    score_target,
)
from .errors import InvalidInputError
from .learn import FitReport, fit_dtc, train_source

SWEEP_CSV_HEADER = ("c1", "c2", "fold", "accuracy")

# stream tags keeping derived seeds disjoint across uses
_SEED_SOURCE, _SEED_FIT, _SEED_TARGET_ONLY = 0, 1, 2


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
    scores = score(BagBatch(bags), model)
    if not np.isfinite(scores).all():  # name the bag; predict's array rule cannot
        raise InvalidInputError(f"score of bag {bags[int(np.argmin(np.isfinite(scores)))].id!r} is not finite")
    return int(np.count_nonzero(predict(scores) == labels)) / len(bags)


def _target_only_accuracy(train: list[Bag], test: list[Bag], hyper: Hyperparams, seed: int) -> float:
    labels = {bag.label for bag in train}
    if len(labels) < 2:
        # single-class fold: the from-scratch trainer has nothing to
        # separate, so the baseline predicts the lone training label
        only = labels.pop()
        return sum(bag.label == only for bag in test) / len(test)
    model = train_source(train, hyper.kappa, hyper.c1, seed)
    return accuracy(model, test)


def _fold_workers(jobs: int) -> int:
    # how many processes may run the fold jobs; 1 keeps them in this one.  Only
    # a single-threaded process forks: a child may deadlock on a lock another
    # thread (a multi-threaded BLAS, say) held, and would share its cores anyway
    if sys.platform != "linux" or len(os.listdir("/proc/self/task")) > 1:
        return 1
    return min(jobs, len(os.sched_getaffinity(0)))


def _work(run_fold, jobs, out) -> None:
    # a forked worker: each result goes out as its job ends, a raise last; never returns
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the caller's to handle
        for job in jobs:
            pickle.dump((True, run_fold(job)), out)
            out.flush()
    except Exception as err:
        pickle.dump((False, (err, traceback.format_exc())), out)
        out.flush()
    finally:
        os._exit(0)


@contextmanager
def _fold_results(run_fold, jobs: int):
    # run_fold(0), ..., run_fold(jobs - 1) in job order, from w forked workers if
    # _fold_workers allows: worker c runs jobs c, c + w, ..., sending job j down
    # pipe j % w.  No worker outlives the block, and no thread is ever started
    workers = _fold_workers(jobs)
    if workers < 2:
        yield map(run_fold, range(jobs))
        return
    pipes = []

    def results():
        for job in range(jobs):
            try:
                ok, value = pickle.load(pipes[job % workers])
            except (EOFError, pickle.UnpicklingError):  # nothing, or a cut-off result
                raise RuntimeError("a fold worker process ended abruptly") from None
            if not ok:  # raised with the worker's traceback as its cause
                raise value[0] from RuntimeError(f"in a fold worker:\n{value[1]}")
            yield value

    with ExitStack() as stack:  # on the way out: kill and reap each worker, close its pipe
        for c in range(workers):
            read, write = os.pipe()
            pipes.append(stack.enter_context(open(read, "rb")))
            with open(write, "wb") as out:  # closed here at once: EOF means the worker is gone
                if (pid := os.fork()) == 0:
                    _work(run_fold, range(c, jobs, workers), out)
            stack.callback(os.waitpid, pid, 0)
            stack.callback(os.kill, pid, signal.SIGKILL)
        yield results()


def _source_model(source: list[Bag], target: list[Bag], hyper: Hyperparams, model=None) -> SourceModel:
    for bag in source:  # named as the source set here, not inside train_source
        _check_match(bag.dim, source[0].dim, f"source set bag {bag.id!r} dimension", "first bag dimension")
    if model is not None or source:  # before any training; an empty source fails in train_source
        _check_match(target[0].dim, (model.phi if model else source[0]).dim, "target dimension", "source dimension")
    return model or train_source(source, hyper.kappa, hyper.c1, derive_seed(hyper.seed, _SEED_SOURCE))


def _fit_fold(train: list[Bag], source_model: SourceModel, hyper: Hyperparams, fold: int):
    # fold's fit under its derived seed; an input error names the fold
    try:
        return fit_dtc(train, source_model, replace(hyper, seed=derive_seed(hyper.seed, _SEED_FIT, fold)))
    except InvalidInputError as err:
        raise InvalidInputError(f"{err} in fold {fold}") from err


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
    to see them.  An ``InvalidInputError`` from a fold's fit names the fold;
    a target whose dimension is not the source's raises before any fold runs.

    The folds may run in ``min(k, CPUs)`` forked workers (``_fold_workers``);
    ``on_fit`` still runs in the caller, in fold order, as each fold ends,
    and the report and every ``FitReport`` are the same either way.  A
    raise, from a fold or ``on_fit``, or a Ctrl-C stops every running fold;
    a worker that dies mid-fold raises ``RuntimeError``.
    """
    split = split_folds(target, k, hyper.seed)
    source_model = _source_model(source, target, hyper, source_model)

    def run_fold(fold: int) -> tuple[float, float, float, FitReport]:
        inside, outside = split.partition(target, fold)
        train, test = (outside, inside) if conventional else (inside, outside)
        model, report = _fit_fold(train, source_model, hyper, fold)
        # every fold's capped baseline reaches its own report, as data a
        # forked worker can send back
        seed = derive_seed(hyper.seed, _SEED_TARGET_ONLY, fold)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            target_acc = _target_only_accuracy(train, test, hyper, seed)
        report.warnings.extend(f"target-only baseline: {w.message}" for w in caught)
        return accuracy(model, test), accuracy(source_model, test), target_acc, report

    results = []
    with _fold_results(run_fold, k) as folds:
        for fold, result in enumerate(folds):
            if on_fit is not None:
                on_fit(fold, result[3])
            results.append(result)
    per_fold, source_only, target_only, reports = zip(*results)
    return ProtocolReport(
        per_fold_accuracy=list(per_fold),
        mean_accuracy=float(np.mean(per_fold)),
        baseline_accuracies={
            "source_only": float(np.mean(source_only)),
            "target_only": float(np.mean(target_only)),
        },
        per_fold_warnings=[report.warnings for report in reports],
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
    every cell takes its seed from ``base_hyper.seed``.  A row's accuracy
    is its fold's in ``run_protocol`` for its cell, and its ``warnings``
    are that fold's fit warnings; no baseline is trained or scored.  All
    (cell, fold) jobs share one set of ``min(cells * k, CPUs)`` workers.
    """
    if not c1_grid or not c2_grid:
        raise InvalidInputError("c1 and c2 grids must be nonempty")
    hypers = [replace(base_hyper, c1=c1, c2=c2) for c1 in c1_grid for c2 in c2_grid]
    split = split_folds(target, k, base_hyper.seed)
    source_model = _source_model(source, target, base_hyper)

    def run_job(job: int) -> dict:
        # fold f of cell c is job c*k + f
        hyper, fold = hypers[job // k], job % k
        train, test = split.partition(target, fold)
        model, report = _fit_fold(train, source_model, hyper, fold)
        return {"c1": hyper.c1, "c2": hyper.c2, "fold": fold, "accuracy": accuracy(model, test),
                "warnings": report.warnings}

    with _fold_results(run_job, len(hypers) * k) as rows:
        return list(rows)


def sweep_rows_to_csv(rows: list[dict]) -> str:
    """RFC-4180 CSV text (LF line endings) for sweep output rows."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(SWEEP_CSV_HEADER)
    for row in rows:
        writer.writerow([row[key] for key in SWEEP_CSV_HEADER])
    return buffer.getvalue()
