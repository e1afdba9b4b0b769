"""Learning routines: transfer-dictionary adaptation plus supporting plumbing.

The adaptation fit alternates two blocks until the dual value settles:

  1. embed the training bags under the current transfer dictionary, build
     the box-constrained dual problem and maximize it over beta (warm-started
     from the previous round);
  2. holding beta fixed, descend each codeword on its own objective, where
     each descent step first refreshes the per-bag argmax instance indices
     and then takes a gradient step.

The adaptation weights are recovered in closed form from the final beta and
the bag features under the final dictionary.  Source-model training reuses
the same dual machinery with zero source scores, and dictionaries are
initialized from unit-normalized sampled instances (an all-zero codeword is
a stationary point of the descent, so zero initialization is rejected).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .core import (
    AdaptedModel,
    Bag,
    BagBatch,
    Dictionary,
    Hyperparams,
    SourceModel,
    _primal_from_cache,
    score_source,
)
from .errors import DegenerateInputError, InvalidInputError
from .qp import DualProblem, DualState, dual_value, solve_box_qp

DEFAULT_CODEWORD_NORM_CAP = 10.0


@dataclass
class FitReport:
    """Observability record of one adaptation fit.

    The per-iteration lists all have length ``outer_iterations``.
    ``warm_start_dual_values[t]`` is the dual value of the incoming beta
    under iteration t's embeddings, ``dual_values[t]`` the value after the
    solve under the same embeddings.  ``final_dual_value`` and
    ``final_beta`` are taken under the final dictionary, i.e. the pair the
    adaptation weights are recovered from.  ``warnings`` names, among other
    things, every dual solve that stopped at its sweep cap.
    """

    outer_iterations: int = 0
    dual_values: list[float] = field(default_factory=list)
    primal_values: list[float] = field(default_factory=list)
    warm_start_dual_values: list[float] = field(default_factory=list)
    converged: bool = False
    wall_time_seconds: float = 0.0
    final_dual_value: float = 0.0
    final_beta: np.ndarray = field(default_factory=lambda: np.zeros(0))
    warnings: list[str] = field(default_factory=list)


def _check_labeled(bags: list[Bag], what: str) -> np.ndarray:
    if not bags:
        raise InvalidInputError(f"{what} is empty")
    labels = []
    for bag in bags:
        if bag.label is None:
            raise InvalidInputError(f"bag {bag.id!r} in {what} is unlabeled")
        labels.append(bag.label)
    return np.asarray(labels, dtype=np.int64)


def codeword_objective(psi_k, u, c1: float, c2: float) -> float:
    """Per-codeword objective (c2/2)||psi||^2 - (1/(2 c1)) (u . psi)^2."""
    psi_k = np.asarray(psi_k, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    proj = float(u @ psi_k)
    return 0.5 * c2 * float(psi_k @ psi_k) - 0.5 / c1 * proj * proj


def codeword_gradient(psi_k, u, c1: float, c2: float) -> np.ndarray:
    """Gradient of the per-codeword objective: c2 psi - (1/c1) u (u . psi)."""
    psi_k = np.asarray(psi_k, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    return c2 * psi_k - (float(u @ psi_k) / c1) * u


def update_codeword(
    psi_init,
    batch: BagBatch,
    beta,
    labels,
    hyper: Hyperparams,
    norm_cap: float = DEFAULT_CODEWORD_NORM_CAP,
) -> np.ndarray:
    """Run ``hyper.inner_iters`` descent steps on one codeword over ``batch``.

    Each step recomputes the per-bag argmax assignments for the current
    codeword, rebuilds the rank-one factor u = sum_i beta_i y_i x_i[argmax_i],
    and steps against the gradient with step size ``hyper.eta``.  The
    codeword norm is clipped to ``norm_cap`` after every step: the objective
    is unbounded below along u whenever ||u||^2 > c1 * c2, and the cap keeps
    iterates finite there.
    """
    psi = np.array(psi_init, dtype=np.float64)
    if psi.ndim != 1:
        raise InvalidInputError(f"codeword must be 1-D, got ndim={psi.ndim}")
    if float(np.linalg.norm(psi)) == 0.0:
        raise DegenerateInputError(
            "initial codeword is the zero vector, a stationary point of the descent"
        )
    if psi.shape[0] != batch.dim:
        raise InvalidInputError(
            f"codeword has dimension {psi.shape[0]} but bags have dimension {batch.dim}"
        )
    n = len(batch)
    beta = np.asarray(beta, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if beta.shape != (n,) or labels.shape != (n,):
        raise InvalidInputError(
            f"beta {beta.shape} and labels {labels.shape} must both have length {n}"
        )
    signed = beta * labels
    for _ in range(hyper.inner_iters):
        assignment = batch.argmax(psi)
        u = signed @ batch.instances[batch.starts + assignment]
        psi = psi - hyper.eta * codeword_gradient(psi, u, hyper.c1, hyper.c2)
        norm = float(np.linalg.norm(psi))
        if norm > norm_cap:
            psi *= norm_cap / norm
    return psi


def recover_w(beta, labels, features, c1: float) -> np.ndarray:
    """Closed-form adaptation weights (1/c1) sum_i beta_i y_i z_i.

    ``features`` must be the bag features computed against the final
    transfer dictionary, one row per bag.
    """
    beta = np.asarray(beta, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    z = np.asarray(features, dtype=np.float64)
    if z.ndim != 2:
        raise InvalidInputError(f"features must be a 2-D array, got ndim={z.ndim}")
    n = z.shape[0]
    if beta.shape != (n,) or labels.shape != (n,):
        raise InvalidInputError(
            f"beta {beta.shape} and labels {labels.shape} must match feature count {n}"
        )
    return ((beta * labels) @ z) / c1


def init_dictionary(bags: list[Bag], size: int, seed: int) -> Dictionary:
    """Sample ``size`` instances as unit-norm codewords, deterministically.

    Sampling is uniform without replacement over the pooled instances of all
    bags (with replacement only when the pool is smaller than ``size``).
    Zero instances are removed from the pool first (a zero codeword could
    never move); if every instance is zero the data is unusable.
    """
    if size < 1:
        raise InvalidInputError(f"dictionary size must be >= 1, got {size}")
    if not bags:
        raise InvalidInputError("cannot initialize a dictionary from zero bags")
    pool = np.vstack([bag.instances for bag in bags])
    norms = np.linalg.norm(pool, axis=1)
    pool = pool[norms > 0.0]
    norms = norms[norms > 0.0]
    if pool.shape[0] == 0:
        raise DegenerateInputError("every pooled instance is the zero vector")
    rng = np.random.default_rng(seed)
    replace = pool.shape[0] < size
    idx = rng.choice(pool.shape[0], size=size, replace=replace)
    return Dictionary(codewords=pool[idx] / norms[idx, None])


def _symmetrized_gram(z: np.ndarray) -> np.ndarray:
    gram = z @ z.T
    return 0.5 * (gram + gram.T)


def _warn_unconverged(report: FitReport, state: DualState, where: str) -> None:
    if not state.converged:
        report.warnings.append(
            f"{where}: dual solve stopped at its sweep cap after {state.iterations} sweeps "
            "without converging"
        )


def fit_dtc(
    target_train: list[Bag],
    source: SourceModel,
    hyper: Hyperparams,
) -> tuple[AdaptedModel, FitReport]:
    """Learn a transfer dictionary and adaptation weights on target bags.

    Caches the source scores once (they do not depend on the transfer
    dictionary), initializes the dictionary from sampled target instances,
    then alternates the dual solve and the per-codeword descent until the
    relative dual-value change drops below ``hyper.tol`` or ``max_outer``
    rounds have run.  The adaptation weights come from the last beta and
    the bag features under the final dictionary.

    With ``max_outer = 0`` the dictionary stays at its initialization and
    beta comes from a single dual solve on those embeddings.
    """
    start = time.perf_counter()
    labels = _check_labeled(target_train, "target training set")
    batch = BagBatch(target_train)
    if batch.dim != source.dim:
        raise InvalidInputError(
            f"target bags have dimension {batch.dim}, expected {source.dim}"
        )
    report = FitReport()
    if len(set(labels.tolist())) < 2:
        report.warnings.append(
            f"target training set has a single class ({labels[0]:+d}); "
            "fit proceeds but the adaptation may be one-sided"
        )

    n = len(target_train)
    source_scores = np.array([score_source(bag, source) for bag in target_train])
    margins = 1.0 - labels * source_scores

    psi = init_dictionary(target_train, hyper.kappa, hyper.seed)
    beta = np.zeros(n)

    converged = False
    for outer in range(hyper.max_outer):
        z = batch.embed(psi)
        prob = DualProblem(
            gram=_symmetrized_gram(z), margins=margins, labels=labels, c1=hyper.c1
        )
        report.warm_start_dual_values.append(dual_value(beta, prob))
        state = solve_box_qp(prob, init=beta)
        _warn_unconverged(report, state, f"outer round {outer + 1}")
        beta = state.beta
        report.dual_values.append(state.objective)

        psi_before = psi
        new_words = []
        for word in psi.codewords:
            if float(np.linalg.norm(word)) == 0.0:
                # exact zero is a stationary point; leave it in place
                new_words.append(word)
            else:
                new_words.append(update_codeword(word, batch, beta, labels, hyper))
        psi = Dictionary(codewords=np.vstack(new_words))

        w_iter = recover_w(beta, labels, z, hyper.c1)
        report.primal_values.append(
            _primal_from_cache(source_scores, z, w_iter, labels, psi_before, hyper)
        )
        report.outer_iterations = outer + 1

        if outer >= 1:
            prev, curr = report.dual_values[-2], report.dual_values[-1]
            if abs(curr - prev) < hyper.tol * max(abs(prev), 1e-12):
                converged = True
                break

    z_final = batch.embed(psi)
    prob_final = DualProblem(
        gram=_symmetrized_gram(z_final), margins=margins, labels=labels, c1=hyper.c1
    )
    if report.outer_iterations == 0:
        state = solve_box_qp(prob_final)
        _warn_unconverged(report, state, "single dual solve")
        beta = state.beta
        report.final_dual_value = state.objective
    else:
        report.final_dual_value = dual_value(beta, prob_final)

    w = recover_w(beta, labels, z_final, hyper.c1)
    model = AdaptedModel(source=source, psi=psi, w=w, hyper=hyper)
    report.converged = converged
    report.final_beta = beta
    report.wall_time_seconds = time.perf_counter() - start
    return model, report


def train_source(source_data: list[Bag], iota: int, c: float, seed: int) -> SourceModel:
    """Train a source dictionary and bag-level classifier from scratch.

    The dictionary comes from sampled unit-norm instances; the classifier
    solves the same box-constrained dual as the adaptation step with all
    source scores at zero, then recovers its weights in closed form.
    """
    labels = _check_labeled(source_data, "source training set")
    if not (np.isfinite(c) and c > 0):
        raise InvalidInputError(f"regularizer weight must be positive, got {c!r}")
    if len(set(labels.tolist())) < 2:
        raise InvalidInputError("source training set must contain both classes")
    phi = init_dictionary(source_data, iota, seed)
    z = BagBatch(source_data).embed(phi)
    prob = DualProblem(
        gram=_symmetrized_gram(z),
        margins=np.ones(len(source_data)),
        labels=labels,
        c1=c,
    )
    state = solve_box_qp(prob)
    v = recover_w(state.beta, labels, z, c)
    return SourceModel(phi=phi, v=v)
