"""Box-constrained concave quadratic maximization for the adaptation dual.

The dual problem has one variable per training bag, box-constrained to
[0, 1/n], with objective

    D(beta) = sum_i beta_i r_i - (1/(2 c1)) sum_ij beta_i beta_j y_i y_j K_ij

where K = Z Z^T is the Gram matrix of the bag features Z and r_i the margin
deficit of the source classifier on bag i.  The problem is built from Z, so K
is symmetric positive semidefinite by construction and needs no check.  The
slack variables of the primal hinge losses and their multipliers are
eliminated analytically (each one equals 1/n - beta_i), which is exactly
where the box's upper bound comes from; they have no runtime representation
here.  The adaptation weights are recovered from beta in closed form.

The solver runs exact coordinate-ascent sweeps in fixed ascending index
order: each coordinate of a concave quadratic is maximized in closed form
and clamped to the box, so the objective never decreases and every iterate
is exactly feasible.  The loop's scalars are Python floats, not numpy
scalars: the same IEEE double operations in the same order, so the results
are bit-identical to the numpy form at a fraction of the per-coordinate cost.
Below 16 duals the whole sweep runs on Python floats, row updates included.
From 16 up the row updates run in numpy, and sweeps skip only coordinates on
a bound that a rounding-error bound proves a visit would leave in place;
near the optimum that is all but a few.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .core import _EPS, _TINY, _check_int, _check_labels, _check_match, _check_real, _frozen, _row_norms
from .errors import InvalidInputError

BOX_FEASIBILITY_TOL = 1e-9
DEFAULT_SWEEP_TOL = 1e-8
DEFAULT_MAX_SWEEPS = 10_000
# Smaller problems never screen and keep all of a sweep on Python floats: at
# n = 10, the quick protocol's folds, a screen costs several sweeps, and a
# numpy row update costs more in call overhead than its ten floats.  On
# quick-config fit solves the float row update timed faster at n = 10 and 15,
# level at 16 and slower from 20 up.
_SCREEN_MIN_N = 16
# A skip must be certified for this many sweeps at the last sweep's drift;
# on fit solves 2, 4 and 8 timed within 5% of each other, 1 was 10% slower.
_SKIP_SWEEPS = 4


@dataclass(frozen=True)
class DualProblem:
    """Immutable data of one dual maximization.

    features : (n, d) bag features z_i, one row per bag
    margins  : r_i = 1 - y_i * f_i, the per-bag margin deficits
    labels   : (n,) vector of +1 / -1
    c1       : weight of the adaptation-weight regularizer
    gram     : derived (n, n) Gram matrix K_ij = z_i . z_j
    """

    features: np.ndarray
    margins: np.ndarray
    labels: np.ndarray
    c1: float
    gram: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        c1 = float(_check_real(self.c1, "c1", positive=True))
        features = _frozen(self.features, "features", 2)
        margins = _frozen(self.margins, "margins", 1)
        labels = _check_labels(self.labels)
        _check_match(margins.shape[0], features.shape[0], "margins length", "feature rows")
        _check_match(labels.shape[0], features.shape[0], "labels length", "feature rows")
        # numpy computes a @ a.T as a symmetric rank-k update: exactly symmetric
        with np.errstate(over="ignore"):
            gram = features @ features.T
        if not np.all(np.isfinite(gram)):
            raise InvalidInputError("gram matrix of the features overflows")
        for name, arr in zip(("features", "margins", "labels", "gram"), (features, margins, labels, gram)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "c1", c1)

    @property
    def n(self) -> int:
        return self.gram.shape[0]

    @property
    def box_upper(self) -> float:
        return 1.0 / self.n


@dataclass(frozen=True)
class DualState:
    """Solver output: the dual variables plus convergence diagnostics."""

    beta: np.ndarray
    objective: float
    iterations: int
    converged: bool

    def __post_init__(self):
        object.__setattr__(self, "beta", _frozen(self.beta, "beta", 1))


def _checked_beta(beta, prob: DualProblem) -> np.ndarray:
    arr = _frozen(beta, "beta", 1)
    _check_match(arr.shape[0], prob.n, "beta length", "problem size")
    ub = prob.box_upper
    if arr.min() < -BOX_FEASIBILITY_TOL or arr.max() > ub + BOX_FEASIBILITY_TOL:
        raise InvalidInputError(
            f"beta violates the box [0, {ub}] beyond tolerance {BOX_FEASIBILITY_TOL}"
        )
    return arr


def dual_value(beta, prob: DualProblem) -> float:
    """Evaluate the beta-dependent part of the dual objective."""
    beta = _checked_beta(beta, prob)
    signed = beta * prob.labels
    return float(beta @ prob.margins - 0.5 / prob.c1 * (signed @ prob.gram @ signed))


def recover_w(beta, prob: DualProblem) -> np.ndarray:
    """Closed-form adaptation weights (1/c1) sum_i beta_i y_i z_i."""
    beta = _checked_beta(beta, prob)
    return ((beta * prob.labels) @ prob.features) / prob.c1


def _gradient(beta: np.ndarray, prob: DualProblem) -> np.ndarray:
    return prob.margins - prob.labels * (prob.gram @ (beta * prob.labels)) / prob.c1


def kkt_residual(beta, prob: DualProblem) -> float:
    """Largest projected-gradient magnitude of the dual at ``beta``.

    Interior coordinates report |dD/dbeta_i|; a coordinate at the lower
    (upper) bound reports only the positive (negative) part of its gradient,
    the direction in which the box still permits ascent.  Zero at optimum.
    """
    beta = _checked_beta(beta, prob)
    grad = _gradient(beta, prob)
    residual = np.abs(grad)
    at_lower = beta <= 0.0
    at_upper = beta >= prob.box_upper
    residual[at_lower] = np.maximum(0.0, grad[at_lower])
    residual[at_upper] = np.maximum(0.0, -grad[at_upper])
    return float(residual.max()) + 0.0  # normalize -0.0


class _Screen:
    """Certifies which bound coordinates a sweep may skip without changing a bit.

    A visit leaves a coordinate on its lower (upper) bound in place while
    y_i s_i >= c1 m_i (y_i s_i <= c1 m_i) holds exactly, as rounding is
    monotone and m_i is a float; a screen takes that margin, less its own
    rounding error, as the slack.  An update of j then moves s_i by at most
    2 |fl(K_ij y_j delta_j)| (the float s_i is no farther from the exact sum
    than the rounded one), and |fl(K_ij)| <= (1 + gamma_d) ||z_i|| ||z_j||
    plus underflow, whatever order the BLAS summed in (Higham, Accuracy and
    Stability, 2nd ed., sec. 3.1).  So i stays skipped while the drift, the
    sum of ||z_j|| |delta_j| plus n tau a sweep, is at most
    slack_i / (inflate ||z_i||).  In ``inflate``, (2 d + 16) eps covers
    gamma_d and the roundings of the product, ``_row_norms`` and the ratio,
    and the last factor the drift's rounding over n max_sweeps updates; tau
    covers the (2 d + 2) subnormals an update can add by underflow.
    """

    def __init__(self, prob: DualProblem, max_sweeps: int):
        n, d = prob.features.shape
        norms = _row_norms(prob.features)
        positive = np.diagonal(prob.gram) > 0.0
        # no solve runs 2**62 sweeps; the cap keeps a huge max_sweeps a float
        inflate = 2 * (1 + (2 * d + 16) * _EPS) * (1 + 2 * _EPS * n * min(max_sweeps, 2**62))
        # an infinite scale gives a zero-diagonal coordinate no positive ratio
        self.scale = np.where(positive, inflate * norms, np.inf)
        tau = 2 * ((2 * d + 2) * _TINY / norms[positive].min() + _TINY) if positive.any() else 0.0
        self.sweep_tau = n * tau
        self.norms, self.labels = norms.tolist(), prob.labels.astype(np.float64)
        self.cm, self.ub = prob.c1 * prob.margins, prob.box_upper

    def __call__(self, b: list[float], s: np.ndarray, floor: float) -> tuple[list[int], float]:
        # the ascending visit list, and the drift up to which the skips hold
        beta = np.array(b)
        with np.errstate(all="ignore"):
            size = np.abs(s) + np.abs(self.cm)
            side = np.subtract(beta == 0.0, beta == self.ub, dtype=np.float64)
            # y s - c1 m rounds by less than eps (|s| + |c1 m|) + tiny, doubled
            # here; a size below a quarter of the largest float keeps s finite
            slack = side * (self.labels * s - self.cm) - (2 * _EPS * size + _TINY)
            ratio = slack / self.scale
            skip = (ratio > floor) & (size < np.finfo(np.float64).max / 4)
        return np.flatnonzero(~skip).tolist(), float(ratio[skip].min(initial=np.inf))


def solve_box_qp(
    prob: DualProblem,
    init=None,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
) -> DualState:
    """Maximize the dual objective over the box [0, 1/n]^n.

    Runs exact coordinate-ascent sweeps in ascending index order.  For a
    coordinate with positive Gram diagonal the unconstrained maximizer is
    computed in closed form and clamped to the box; a zero-diagonal
    coordinate makes the objective linear, so it jumps to whichever bound
    the gradient favors.  Stops when the largest per-coordinate change
    within one sweep falls below ``DEFAULT_SWEEP_TOL`` (converged) or after
    ``max_sweeps`` sweeps (converged = False).

    Every per-coordinate operation runs on Python floats, in the order
    written, so beta, the objective and the sweep count are bit-identical to
    the same loop on numpy float64 scalars visiting every coordinate.
    Reordering or batching the updates would change the iterates; skipping a
    visit that provably changes nothing does not.  Below ``_SCREEN_MIN_N``
    duals the row update of ``s = K (beta * y)`` runs on Python floats too
    and every sweep visits every coordinate.  From ``_SCREEN_MIN_N`` up the
    row update runs in numpy, sweeps skip the bound coordinates that
    ``_Screen`` certifies after sweeps 1, 2, 4, ..., and screen anew
    mid-sweep once a certificate may have run out, and a visit to a bound
    coordinate whose gradient points out of the box stops before the step.

    ``init`` warm-starts the iterate (validated against the box, then
    projected exactly onto it); the default start is the zero vector.
    """
    _check_int(max_sweeps, "max_sweeps", 0)
    if init is None:
        beta = np.zeros(prob.n)
    else:
        beta = np.clip(_checked_beta(init, prob), 0.0, prob.box_upper)
    # s_i = sum_j K_ij beta_j y_j, maintained incrementally; symmetric gram
    # lets the update read the contiguous row instead of a strided column.
    labels = prob.labels.astype(np.float64)
    s = prob.gram @ (beta * labels)
    sweep = _sweep_floats if prob.n < _SCREEN_MIN_N else _sweep_screened
    b, sweeps, converged = sweep(prob, beta.tolist(), s, labels.tolist(), max_sweeps)
    beta = np.array(b)
    return DualState(
        beta=beta,
        objective=dual_value(beta, prob),
        iterations=sweeps,
        converged=converged,
    )


def _sweep_floats(prob: DualProblem, b: list[float], s: np.ndarray, y: list[float], max_sweeps: int):
    # a move adds fl(K_ij c) to each s_j: numpy's row update, element by
    # element, without a numpy call's overhead on a row of a few floats.  The
    # coordinate update repeats _sweep_screened's, bar its bound test: one loop
    # choosing its row update per move ran quick-protocol solves 4-8% slower.
    ub, c1, margins, diag = prob.box_upper, prob.c1, prob.margins.tolist(), np.diagonal(prob.gram).tolist()
    s, rows = s.tolist(), prob.gram.tolist()
    for sweeps in range(1, max_sweeps + 1):
        max_delta = 0.0
        for i, row in enumerate(rows):
            grad_i = margins[i] - y[i] * s[i] / c1
            if diag[i] > 0.0:
                target = b[i] + c1 * grad_i / diag[i]
                new = ub if target > ub else (0.0 if target < 0.0 else target)
            else:
                new = ub if grad_i > 0.0 else 0.0
            delta = new - b[i]
            if delta != 0.0:
                b[i] = new
                c = y[i] * delta
                s = [a + k * c for a, k in zip(s, row)]
                if abs(delta) > max_delta:
                    max_delta = abs(delta)
        if max_delta < DEFAULT_SWEEP_TOL:
            return b, sweeps, True
    return b, max_sweeps, False


def _sweep_screened(prob: DualProblem, b: list[float], s: np.ndarray, y: list[float], max_sweeps: int):
    ub, c1, screen = prob.box_upper, prob.c1, _Screen(prob, max_sweeps)
    # a record per coordinate, (i, m_i, y_i, K_ii, row i of K, ||z_i||); s read
    # through a memoryview gives Python floats; step holds each row update
    diagonal = np.diagonal(prob.gram).tolist()
    records = list(zip(range(prob.n), prob.margins.tolist(), y, diagonal, prob.gram, screen.norms))
    sv, step, sweep_tau = memoryview(s), np.empty(prob.n), screen.sweep_tau
    # the drift since the last screen, its certified limit, and the last
    # whole sweep's drift, which sets how long a skip must be certified for
    visit, drift, limit, rate = records, 0.0, np.inf, np.inf
    for sweeps in range(1, max_sweeps + 1):
        max_delta = 0.0
        start = drift = drift + sweep_tau
        order = visit
        while order:
            rest = []
            for i, margin, label, diag, row, znorm in order:
                grad_i = margin - label * sv[i] / c1
                old = b[i]
                if old == 0.0 and grad_i <= 0.0 or old == ub and grad_i > 0.0:
                    continue  # the step or jump below would end on this same bound
                if diag > 0.0:
                    target = old + c1 * grad_i / diag
                    new = ub if target > ub else (0.0 if target < 0.0 else target)
                else:
                    new = ub if grad_i > 0.0 else 0.0
                delta = new - old
                if delta != 0.0:
                    b[i] = new
                    np.multiply(row, label * delta, step)
                    np.add(s, step, s)
                    if abs(delta) > max_delta:
                        max_delta = abs(delta)
                    drift += znorm * abs(delta)
                    if drift > limit:  # finish the sweep over a new list
                        kept, limit = screen(b, s, _SKIP_SWEEPS * rate)
                        visit = [records[j] for j in kept]
                        start, drift = start - drift, sweep_tau
                        rest = visit[bisect_right(kept, i) :]
                        break
            order = rest
        if max_delta < DEFAULT_SWEEP_TOL:
            return b, sweeps, True
        rate = drift - start
        if sweeps & (sweeps - 1) == 0:
            kept, limit = screen(b, s, _SKIP_SWEEPS * rate)
            visit = [records[j] for j in kept]
            drift = 0.0
    return b, max_sweeps, False
