"""Learning routines: transfer-dictionary adaptation plus supporting plumbing.

The adaptation fit alternates two blocks until the dual value settles:

  1. embed the training bags under the current transfer dictionary, build
     the box-constrained dual problem and maximize it over beta (warm-started
     from the previous round);
  2. holding beta fixed, descend the whole dictionary in one
     ``update_codeword`` call: each codeword follows its own objective, and
     each descent step first refreshes every codeword's per-bag argmax
     instance indices and then steps all codewords along their gradients.
     The first step takes the round's embedding picks; later ones re-certify
     the picks carried from the previous step, recomputing only the cells
     where another instance comes near.  Every sum of the descent, u's over
     the bags included, is row-wise, so no BLAS kernel reaches its bits.

The adaptation weights are recovered in closed form from the final beta and
the bag features under the final dictionary.  Source-model training reuses
the same dual machinery with zero source scores, and dictionaries are
initialized from unit-normalized sampled instances (an all-zero codeword is
an exact fixed point of the descent, so zero instances are never sampled).
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import (
    AdaptedModel,
    Bag,
    BagBatch,
    Dictionary,
    Hyperparams,
    SourceModel,
    _check_int,
    _check_labeled,
    _check_labels,
    _check_match,
    _check_real,
    _frozen,
    _instance_dots,
    _primal_from_cache,
    _unit_rows,
    score_source,
)
from .errors import DegenerateInputError, InvalidInputError
from .qp import DualProblem, DualState, dual_value, recover_w, solve_box_qp

CODEWORD_NORM_CAP = 10.0
# From this many (codeword, bag) cells up, descent steps after the first hand
# the argmax the previous step's picks.  Per step on one BLAS thread, that
# timed 22% slower at K n = 100 (the quick protocol's folds), 4% slower at
# 400, 2% faster at 500, 12-16% at 800 and 37% at 2000 (fit-default).
_WARM_ARGMAX_CELLS = 500


@dataclass
class FitReport:
    """Observability record of one adaptation fit.

    The per-iteration lists all have length ``outer_iterations``, which is
    read from ``dual_values``.
    ``warm_start_dual_values[t]`` is the dual value of the incoming beta
    under iteration t's embeddings, ``dual_values[t]`` the value after the
    solve under the same embeddings.  ``final_dual_value`` and
    ``final_beta`` are taken under the final dictionary, i.e. the pair the
    adaptation weights are recovered from.  ``warnings`` names, among other
    things, every dual solve that stopped at its sweep cap.
    """

    dual_values: list[float] = field(default_factory=list)
    primal_values: list[float] = field(default_factory=list)
    warm_start_dual_values: list[float] = field(default_factory=list)
    converged: bool = False
    wall_time_seconds: float = 0.0
    final_dual_value: float = 0.0
    final_beta: np.ndarray = field(default_factory=lambda: np.zeros(0))
    warnings: list[str] = field(default_factory=list)

    @property
    def outer_iterations(self) -> int:
        return len(self.dual_values)


def _checked_codewords(psi_k, u, c1, c2) -> tuple[np.ndarray, np.ndarray]:
    # one codeword: psi_k and u 1-D of one length under the array rule, c1
    # and c2 under the real rule
    _check_real(c1, "c1", positive=True)
    _check_real(c2, "c2", positive=True)
    psi_k, u = _frozen(psi_k, "psi_k", 1), _frozen(u, "u", 1)
    _check_match(psi_k.shape[0], u.shape[0], "psi_k length", "u length")
    return psi_k, u


def codeword_objective(psi_k, u, c1: float, c2: float) -> float:
    """Per-codeword objective (c2/2)||psi||^2 - (1/(2 c1)) (u . psi)^2."""
    psi_k, u = _checked_codewords(psi_k, u, c1, c2)
    proj = _instance_dots(u, psi_k)
    return float(0.5 * c2 * _instance_dots(psi_k, psi_k) - 0.5 / c1 * proj * proj)


def _gradient(psi_k: np.ndarray, u: np.ndarray, c1: float, c2: float) -> np.ndarray:
    # one codeword for codeword_gradient, (K, d) rows for update_codeword
    return c2 * psi_k - (_instance_dots(u, psi_k) / c1)[..., None] * u


def codeword_gradient(psi_k, u, c1: float, c2: float) -> np.ndarray:
    """Gradient of the per-codeword objective, c2 psi - (1/c1) u (u . psi)."""
    return _gradient(*_checked_codewords(psi_k, u, c1, c2), c1, c2)


def update_codeword(
    psi: Dictionary,
    batch: BagBatch,
    beta,
    labels,
    hyper: Hyperparams,
    *,
    picks=None,
) -> Dictionary:
    """Run ``hyper.inner_iters`` descent steps on every codeword of ``psi`` over ``batch``.

    Each step refreshes every codeword's per-bag argmax assignments,
    rebuilds its rank-one factor u = sum_i beta_i y_i x_i[argmax_i] (each
    instance weighted once per call, then summed bag by bag), and steps
    against its gradient with step size ``hyper.eta``.  From the second step
    on, on all but small batches, the picks carried from the previous step
    are re-certified, only the cells where another instance comes near are
    recomputed, and u is rebuilt only for codewords whose picks changed: the
    same bits as recomputing everything.  The objective is unbounded below
    along u whenever ||u||^2 > c1 * c2, so after every step each codeword
    norm above ``CODEWORD_NORM_CAP``, an overflowing one included, is scaled
    to it by ``init_dictionary``'s rule.  A zero codeword comes back
    unchanged; a step that leaves a codeword non-finite raises
    ``InvalidInputError`` naming the step and codeword.  ``picks``, the table
    ``BagBatch.argmax(psi.codewords)`` returns, replaces the first step's
    argmax; it must be an integer (K, n) table whose entry (k, i) indexes an
    instance of bag i, else ``InvalidInputError`` names the codeword and bag.
    """
    _check_match(psi.dim, batch.dim, "dictionary dimension", "bag dimension")
    beta = _frozen(beta, "beta", 1)
    labels = _check_labels(labels)
    _check_match(beta.shape[0], len(batch), "beta length", "bag count")
    _check_match(labels.shape[0], len(batch), "labels length", "bag count")
    if picks is not None:
        picks = np.asarray(picks)
        if picks.dtype.kind not in "iu" or picks.ndim != 2:
            raise InvalidInputError(f"picks must be a table of integers, got {picks.ndim}-d {picks.dtype}")
        _check_match(picks.shape[0], psi.size, "picks rows", "codeword count")
        _check_match(picks.shape[1], len(batch), "picks columns", "bag count")
        # each entry must index an instance of its own bag, not the next bag's
        outside = (picks < 0) | (picks >= batch.counts)
        if outside.any():
            k, i = np.argwhere(outside)[0]
            raise InvalidInputError(
                f"codeword {k} picks instance {picks[k, i]} of bag {i}, which has {batch.counts[i]} instances"
            )
    # each instance times its bag's beta_i y_i, once, one coordinate per row,
    # in C order at once (a transposed copy cost page faults at every step)
    weighted = np.multiply(batch.instances.T, np.repeat(beta * labels, batch.counts), order="C")
    words = psi.codewords
    warm = psi.size * len(batch) >= _WARM_ARGMAX_CELLS
    u = np.empty_like(words)
    for step in range(hyper.inner_iters):
        previous = picks if warm and step else None
        picks = batch._argmax(words, previous) if step or picks is None else picks
        # np.take gathers in C order, so each entry of u is one row-wise sum
        # over the bags; a codeword whose picks did not change keeps its u
        fresh = slice(None) if previous is None else (picks != previous).any(axis=1)
        u[fresh] = np.take(weighted, batch.starts + picks[fresh], axis=1).sum(axis=-1).T
        # overflow is checked below, per codeword
        with np.errstate(over="ignore", invalid="ignore"):
            words = words - hyper.eta * _gradient(words, u, hyper.c1, hyper.c2)
            norms = np.sqrt(_instance_dots(words, words))
        finite_rows = np.isfinite(words).all(axis=1)
        if not finite_rows.all():
            raise InvalidInputError(
                f"descent step {step + 1}: codeword {int(np.argmin(finite_rows))} is not finite "
                f"(step size eta={hyper.eta!r})"
            )
        # a squared norm that overflows reads inf, and is capped the same way
        capped = norms > CODEWORD_NORM_CAP
        if capped.any():
            words[capped] = CODEWORD_NORM_CAP * _unit_rows(words[capped])
    return Dictionary(codewords=words)


def init_dictionary(batch: BagBatch, size: int, seed: int) -> Dictionary:
    """Sample ``size`` instances of ``batch`` as unit-norm codewords, deterministically.

    Sampling is uniform without replacement over the stacked instances (with
    replacement only when the pool is smaller than ``size``).  Zero instances
    are removed from the pool first (a zero codeword could never move); if
    every instance is zero the data is unusable.  Each sampled row is divided
    by its largest magnitude, then by its norm: a row whose largest magnitude
    is 1 has a norm in [1, sqrt(d)], which can neither overflow nor underflow.
    """
    _check_int(size, "dictionary size", 1)
    _check_int(seed, "seed", 0)
    pool = np.flatnonzero(np.abs(batch.instances).max(axis=1) > 0.0)
    if pool.shape[0] == 0:
        raise DegenerateInputError("every pooled instance is the zero vector")
    rng = np.random.default_rng(seed)
    idx = pool[rng.choice(pool.shape[0], size=size, replace=pool.shape[0] < size)]
    return Dictionary(codewords=_unit_rows(batch.instances[idx]))


def _capped_text(state: DualState, where: str) -> str:
    # the one wording of a dual solve that hit its sweep cap
    return f"{where}: dual solve stopped at its sweep cap after {state.iterations} sweeps without converging"


def _warn_unconverged(report: FitReport, state: DualState, where: str) -> None:
    if not state.converged:
        report.warnings.append(_capped_text(state, where))


def fit_dtc(
    target_train: list[Bag],
    source: SourceModel,
    hyper: Hyperparams,
) -> tuple[AdaptedModel, FitReport]:
    """Learn a transfer dictionary and adaptation weights on target bags.

    Caches the source scores once (they do not depend on the transfer
    dictionary), initializes the dictionary from sampled target instances,
    then alternates the dual solve and the dictionary descent until the
    relative dual-value change drops below ``hyper.tol`` or ``max_outer``
    rounds have run.  The adaptation weights come from the last beta and
    the bag features under the final dictionary.

    With ``max_outer = 0`` the dictionary stays at its initialization and
    beta comes from a single dual solve on those embeddings.  A non-finite
    descent step's ``InvalidInputError`` also names the outer round.
    """
    start = time.perf_counter()
    labels = _check_labeled(target_train, "target training set")
    batch = BagBatch(target_train)
    _check_match(batch.dim, source.phi.dim, "target training set dimension", "source dictionary dimension")
    report = FitReport()
    if len(set(labels.tolist())) < 2:
        report.warnings.append(
            f"target training set has a single class ({labels[0]:+d}); "
            "fit proceeds but the adaptation may be one-sided"
        )

    source_scores = score_source(batch, source)
    margins = 1.0 - labels * source_scores

    psi = init_dictionary(batch, hyper.kappa, hyper.seed)
    beta = np.zeros(len(batch))

    # the pass after the last round builds the final problem, then stops
    for outer in range(hyper.max_outer + 1):
        z, picks = batch._embed(psi.codewords)
        prob = DualProblem(features=z, margins=margins, labels=labels, c1=hyper.c1)
        if report.converged or outer == hyper.max_outer:
            break
        report.warm_start_dual_values.append(dual_value(beta, prob))
        state = solve_box_qp(prob, init=beta)
        _warn_unconverged(report, state, f"outer round {outer + 1}")
        beta = state.beta
        report.dual_values.append(state.objective)

        report.primal_values.append(
            _primal_from_cache(source_scores, z, recover_w(beta, prob), labels, psi, hyper)
        )
        # release this round's n x n Gram, so that the next one never meets it
        del prob
        try:
            psi = update_codeword(psi, batch, beta, labels, hyper, picks=picks)
        except InvalidInputError as err:
            raise InvalidInputError(f"{err} in outer round {outer + 1}") from err

        if outer >= 1:
            prev, curr = report.dual_values[-2], report.dual_values[-1]
            report.converged = abs(curr - prev) < hyper.tol * max(abs(prev), 1e-12)

    if report.outer_iterations == 0:
        state = solve_box_qp(prob)
        _warn_unconverged(report, state, "single dual solve")
        beta = state.beta
    report.final_dual_value = dual_value(beta, prob)

    w = recover_w(beta, prob)
    model = AdaptedModel(source=source, psi=psi, w=w, hyper=hyper)
    report.final_beta = beta
    report.wall_time_seconds = time.perf_counter() - start
    return model, report


def train_source(source_data: list[Bag], iota: int, c: float, seed: int) -> SourceModel:
    """Train a source dictionary and bag-level classifier from scratch.

    The dictionary comes from sampled unit-norm instances; the classifier
    solves the same box-constrained dual as the adaptation step with all
    source scores at zero, then recovers its weights in closed form.  A
    solve that stops at its sweep cap issues a ``RuntimeWarning`` naming
    the seed and the bag count.
    """
    labels = _check_labeled(source_data, "source training set")
    _check_real(c, "regularizer weight", positive=True)
    if len(set(labels.tolist())) < 2:
        raise InvalidInputError("source training set must contain both classes")
    batch = BagBatch(source_data)
    phi = init_dictionary(batch, iota, seed)
    z = batch.embed(phi)
    prob = DualProblem(features=z, margins=np.ones(len(source_data)), labels=labels, c1=c)
    state = solve_box_qp(prob)
    if not state.converged:
        # a SourceModel carries no report, so the warning is the only channel
        warnings.warn(
            f"{_capped_text(state, 'source training')} (seed {seed}, {len(source_data)} bags)",
            RuntimeWarning,
            stacklevel=2,
        )
    v = recover_w(state.beta, prob)
    return SourceModel(phi=phi, v=v)
