"""Box-constrained concave quadratic maximization for the adaptation dual.

The dual problem has one variable per training bag, box-constrained to
[0, 1/n], with objective

    D(beta) = sum_i beta_i r_i - (1/(2 c1)) sum_ij beta_i beta_j y_i y_j K_ij

where K is the Gram matrix of bag features and r_i the margin deficit of the
source classifier on bag i.  The slack variables of the primal hinge losses
and their multipliers are eliminated analytically (each one equals 1/n -
beta_i), which is exactly where the box's upper bound comes from; they have
no runtime representation here.

The solver runs exact coordinate-ascent sweeps in fixed ascending index
order: each coordinate of a concave quadratic is maximized in closed form
and clamped to the box, so the objective never decreases and every iterate
is exactly feasible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericalInputError

BOX_FEASIBILITY_TOL = 1e-9
PSD_EIGENVALUE_TOL = -1e-8
DEFAULT_SWEEP_TOL = 1e-8
DEFAULT_MAX_SWEEPS = 10_000


@dataclass(frozen=True)
class DualProblem:
    """Immutable data of one dual maximization.

    gram    : (n, n) Gram matrix K_ij = z_i . z_j of bag features
    margins : r_i = 1 - y_i * f_i, the per-bag margin deficits
    labels  : (n,) vector of +1 / -1
    c1      : weight of the adaptation-weight regularizer
    """

    gram: np.ndarray
    margins: np.ndarray
    labels: np.ndarray
    c1: float

    def __post_init__(self):
        gram = np.asarray(self.gram, dtype=np.float64)
        margins = np.asarray(self.margins, dtype=np.float64)
        labels = np.asarray(self.labels)
        if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
            raise InvalidInputError(f"gram must be square, got shape {gram.shape}")
        n = gram.shape[0]
        if n < 1:
            raise InvalidInputError("gram must be nonempty")
        if margins.shape != (n,) or labels.shape != (n,):
            raise InvalidInputError(
                f"margins {margins.shape} and labels {labels.shape} must both have length {n}"
            )
        if not (np.all(np.isfinite(gram)) and np.all(np.isfinite(margins))):
            raise InvalidInputError("gram and margins must be finite")
        scale = max(1.0, float(np.abs(gram).max()))
        if not np.allclose(gram, gram.T, rtol=0.0, atol=1e-9 * scale):
            raise InvalidInputError("gram matrix is not symmetric")
        # checked before the integer cast, which would truncate 1.7 to 1
        if not np.all(np.isin(labels, (1, -1))):
            raise InvalidInputError("labels must be +1 or -1")
        labels = labels.astype(np.int64)
        if not (np.isfinite(self.c1) and self.c1 > 0):
            raise InvalidInputError(f"c1 must be a positive finite real, got {self.c1!r}")
        for name, arr in (("gram", gram), ("margins", margins), ("labels", labels)):
            arr = np.ascontiguousarray(arr)
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
        beta = np.ascontiguousarray(np.asarray(self.beta, dtype=np.float64))
        beta.setflags(write=False)
        object.__setattr__(self, "beta", beta)


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
    sweep_tol: float = DEFAULT_SWEEP_TOL,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
) -> DualState:
    """Maximize the dual objective over the box [0, 1/n]^n.

    Runs exact coordinate-ascent sweeps in ascending index order.  For a
    coordinate with positive Gram diagonal the unconstrained maximizer is
    computed in closed form and clamped to the box; a zero-diagonal
    coordinate makes the objective linear, so it jumps to whichever bound
    the gradient favors.  Stops when the largest per-coordinate change
    within one sweep falls below ``sweep_tol`` (converged) or after
    ``max_sweeps`` sweeps (converged = False).

    ``init`` warm-starts the iterate (validated against the box, then
    projected exactly onto it); the default start is the zero vector.
    """
    n = prob.n
    ub = prob.box_upper
    min_eig = float(np.linalg.eigvalsh(prob.gram).min())
    if min_eig < PSD_EIGENVALUE_TOL:
        raise NumericalInputError(
            f"gram matrix is not positive semidefinite (min eigenvalue {min_eig:.3e})"
        )
    if init is None:
        beta = np.zeros(n)
    else:
        beta = np.clip(_checked_beta(init, prob), 0.0, ub)

    gram = prob.gram
    labels = prob.labels.astype(np.float64)
    diag = np.diagonal(gram)
    c1 = prob.c1
    margins = prob.margins
    # s_i = sum_j K_ij beta_j y_j, maintained incrementally; symmetric gram
    # lets the update read the contiguous row instead of a strided column.
    s = gram @ (beta * labels)

    sweeps = 0
    converged = False
    for _ in range(max_sweeps):
        max_delta = 0.0
        for i in range(n):
            grad_i = margins[i] - labels[i] * s[i] / c1
            if diag[i] > 0.0:
                target = beta[i] + c1 * grad_i / diag[i]
                new = ub if target > ub else (0.0 if target < 0.0 else target)
            else:
                new = ub if grad_i > 0.0 else 0.0
            delta = new - beta[i]
            if delta != 0.0:
                beta[i] = new
                s += gram[i] * (labels[i] * delta)
                if abs(delta) > max_delta:
                    max_delta = abs(delta)
        sweeps += 1
        if max_delta < sweep_tol:
            converged = True
            break

    return DualState(
        beta=beta,
        objective=dual_value(beta, prob),
        iterations=sweeps,
        converged=converged,
    )
