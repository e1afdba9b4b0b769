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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import VALID_LABELS, _frozen
from .errors import InvalidInputError

BOX_FEASIBILITY_TOL = 1e-9
DEFAULT_SWEEP_TOL = 1e-8
DEFAULT_MAX_SWEEPS = 10_000


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
        features = _frozen(self.features, "features", 2)
        margins = _frozen(self.margins, "margins", 1)
        labels = np.asarray(self.labels)
        n = features.shape[0]
        if margins.shape != (n,) or labels.shape != (n,):
            raise InvalidInputError(
                f"margins {margins.shape} and labels {labels.shape} must both have length {n}"
            )
        # numpy computes a @ a.T as a symmetric rank-k update: exactly symmetric
        with np.errstate(over="ignore"):
            gram = features @ features.T
        if not np.all(np.isfinite(gram)):
            raise InvalidInputError("gram matrix of the features overflows")
        # checked before the integer cast, which would truncate 1.7 to 1
        if not np.all(np.isin(labels, VALID_LABELS)):
            raise InvalidInputError("labels must be +1 or -1")
        labels = labels.astype(np.int64)
        if not (np.isfinite(self.c1) and self.c1 > 0):
            raise InvalidInputError(f"c1 must be a positive finite real, got {self.c1!r}")
        for name, arr in zip(("features", "margins", "labels", "gram"), (features, margins, labels, gram)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "c1", float(self.c1))

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
    arr = np.asarray(beta, dtype=np.float64)
    if arr.shape != (prob.n,):
        raise InvalidInputError(f"beta must have length {prob.n}, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError("beta contains non-finite entries")
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

    Only the row update of ``s = K (beta * y)`` runs in numpy; every other
    per-coordinate operation runs on Python floats, in the order written, so
    beta, the objective and the sweep count are bit-identical to the same
    loop on numpy float64 scalars.  Keep it scalar: reordering or batching
    the updates changes the iterates.

    ``init`` warm-starts the iterate (validated against the box, then
    projected exactly onto it); the default start is the zero vector.
    """
    n = prob.n
    ub = prob.box_upper
    if init is None:
        beta = np.zeros(n)
    else:
        beta = np.clip(_checked_beta(init, prob), 0.0, ub)

    gram = prob.gram
    labels = prob.labels.astype(np.float64)
    c1 = prob.c1
    # s_i = sum_j K_ij beta_j y_j, maintained incrementally; symmetric gram
    # lets the update read the contiguous row instead of a strided column.
    s = gram @ (beta * labels)
    b = beta.tolist()
    y = labels.tolist()
    margins = prob.margins.tolist()
    diag = np.diagonal(gram).tolist()

    sweeps = 0
    converged = False
    for _ in range(max_sweeps):
        max_delta = 0.0
        for i in range(n):
            grad_i = margins[i] - y[i] * s.item(i) / c1
            if diag[i] > 0.0:
                target = b[i] + c1 * grad_i / diag[i]
                new = ub if target > ub else (0.0 if target < 0.0 else target)
            else:
                new = ub if grad_i > 0.0 else 0.0
            delta = new - b[i]
            if delta != 0.0:
                b[i] = new
                s += gram[i] * (y[i] * delta)
                if abs(delta) > max_delta:
                    max_delta = abs(delta)
        sweeps += 1
        if max_delta < DEFAULT_SWEEP_TOL:
            converged = True
            break

    beta = np.array(b)
    return DualState(
        beta=beta,
        objective=dual_value(beta, prob),
        iterations=sweeps,
        converged=converged,
    )
