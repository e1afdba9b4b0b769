"""Tests for the box-constrained dual solver against closed forms and an
exhaustive grid oracle."""

import numpy as np
import pytest

from dtmil import (
    DualProblem,
    InvalidInputError,
    NumericalInputError,
    dual_value,
    kkt_residual,
    solve_box_qp,
)


def random_problem(rng, n, features=4, c1=None):
    z = rng.normal(size=(n, features))
    gram = z @ z.T
    gram = 0.5 * (gram + gram.T)
    return DualProblem(
        gram=gram,
        margins=rng.uniform(-2.0, 2.0, size=n),
        labels=rng.choice([1, -1], size=n),
        c1=c1 if c1 is not None else float(rng.uniform(0.5, 2.0)),
    )


def grid_max(prob, steps_per_coord=100):
    """Exhaustive grid search over the box, the independent oracle.

    Evaluates the dual objective directly (vectorized) at every point of a
    regular grid with ``steps_per_coord`` intervals per coordinate, i.e.
    step size 1 / (steps_per_coord * n).
    """
    n = prob.n
    axis = np.linspace(0.0, prob.box_upper, steps_per_coord + 1)
    mesh = np.meshgrid(*([axis] * n), indexing="ij")
    grid = np.stack([m.ravel() for m in mesh], axis=1)
    signed = grid * prob.labels
    quad = np.einsum("ij,jk,ik->i", signed, prob.gram, signed)
    values = grid @ prob.margins - 0.5 / prob.c1 * quad
    return float(values.max())


class TestDualValue:
    def test_zero_beta_is_zero(self):
        prob = random_problem(np.random.default_rng(0), n=4)
        assert dual_value(np.zeros(4), prob) == 0.0

    def test_scalar_hand_value(self):
        prob = DualProblem(gram=[[1.0]], margins=[1.0], labels=[1], c1=1.0)
        # 0.5 * 1 - (1/2) * 0.25 = 0.375
        assert dual_value([0.5], prob) == 0.375

    def test_zero_gram_leaves_linear_term(self):
        rng = np.random.default_rng(1)
        margins = rng.uniform(-1, 1, size=3)
        prob = DualProblem(gram=np.zeros((3, 3)), margins=margins, labels=[1, -1, 1], c1=1.0)
        beta = rng.uniform(0, 1.0 / 3.0, size=3)
        np.testing.assert_allclose(dual_value(beta, prob), beta @ margins, rtol=0, atol=1e-15)

    def test_rejects_beta_outside_box(self):
        prob = DualProblem(gram=[[1.0]], margins=[1.0], labels=[1], c1=1.0)
        with pytest.raises(InvalidInputError):
            dual_value([1.1], prob)
        with pytest.raises(InvalidInputError):
            dual_value([-1e-6], prob)

    def test_tolerates_tiny_box_violation(self):
        prob = DualProblem(gram=[[1.0]], margins=[1.0], labels=[1], c1=1.0)
        dual_value([1.0 + 1e-10], prob)


class TestDualProblemValidation:
    def test_asymmetric_gram_rejected(self):
        with pytest.raises(InvalidInputError):
            DualProblem(gram=[[1.0, 0.5], [0.0, 1.0]], margins=[1, 1], labels=[1, 1], c1=1.0)

    def test_bad_labels_rejected(self):
        with pytest.raises(InvalidInputError):
            DualProblem(gram=[[1.0]], margins=[1.0], labels=[0], c1=1.0)

    def test_non_integral_labels_rejected(self):
        with pytest.raises(InvalidInputError):
            DualProblem(gram=np.eye(2), margins=[1.0, 1.0], labels=[1.7, -1.2], c1=1.0)

    def test_integral_float_labels_accepted(self):
        prob = DualProblem(gram=np.eye(2), margins=[1.0, 1.0], labels=[1.0, -1.0], c1=1.0)
        assert prob.labels.dtype == np.int64 and prob.labels.tolist() == [1, -1]

    def test_nonpositive_c1_rejected(self):
        with pytest.raises(InvalidInputError):
            DualProblem(gram=[[1.0]], margins=[1.0], labels=[1], c1=0.0)

    def test_indefinite_gram_rejected_by_solver(self):
        prob = DualProblem(gram=[[1.0, 0.0], [0.0, -1.0]], margins=[1, 1], labels=[1, 1], c1=1.0)
        with pytest.raises(NumericalInputError):
            solve_box_qp(prob)


class TestSolveBoxQP:
    def test_scalar_clamped_to_upper_bound(self):
        # unconstrained max at beta = 1, box is [0, 1]
        prob = DualProblem(gram=[[1.0]], margins=[1.0], labels=[1], c1=1.0)
        state = solve_box_qp(prob)
        assert state.beta.tolist() == [1.0]
        assert state.converged

    def test_scalar_negative_margin_stays_at_zero(self):
        prob = DualProblem(gram=[[2.0]], margins=[-0.5], labels=[-1], c1=0.7)
        state = solve_box_qp(prob)
        assert state.beta.tolist() == [0.0]

    def test_output_exactly_box_feasible(self):
        rng = np.random.default_rng(2)
        for n in (1, 2, 5, 17):
            prob = random_problem(rng, n)
            beta = solve_box_qp(prob).beta
            assert beta.min() >= 0.0
            assert beta.max() <= 1.0 / n

    def test_matches_grid_oracle_n2(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            prob = random_problem(rng, n=2)
            solved = solve_box_qp(prob).objective
            oracle = grid_max(prob)
            assert abs(solved - oracle) <= 1e-3
            assert solved >= oracle - 1e-12  # grid points are feasible

    def test_matches_grid_oracle_n3(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            prob = random_problem(rng, n=3)
            solved = solve_box_qp(prob).objective
            oracle = grid_max(prob)
            assert abs(solved - oracle) <= 1e-3
            assert solved >= oracle - 1e-12

    def test_monotone_ascent_across_sweeps(self):
        rng = np.random.default_rng(5)
        prob = random_problem(rng, n=8)
        # re-run sweep by sweep via warm starts and watch the objective
        beta = np.zeros(8)
        last = dual_value(beta, prob)
        for _ in range(30):
            state = solve_box_qp(prob, init=beta, max_sweeps=1)
            value = state.objective
            assert value >= last - 1e-12
            last = value
            beta = state.beta

    def test_warm_start_reaches_same_optimum(self):
        rng = np.random.default_rng(6)
        prob = random_problem(rng, n=6)
        cold = solve_box_qp(prob)
        warm = solve_box_qp(prob, init=rng.uniform(0, 1.0 / 6.0, size=6))
        np.testing.assert_allclose(cold.objective, warm.objective, rtol=0, atol=1e-9)

    def test_zero_diagonal_linear_coordinate(self):
        # K = 0 makes the objective linear: positive margin pins beta at the
        # upper bound, negative at zero
        prob = DualProblem(gram=np.zeros((2, 2)), margins=[0.5, -0.5], labels=[1, 1], c1=1.0)
        state = solve_box_qp(prob)
        assert state.beta.tolist() == [0.5, 0.0]
        assert state.converged

    def test_iteration_cap_reports_not_converged(self):
        rng = np.random.default_rng(7)
        prob = random_problem(rng, n=6)
        state = solve_box_qp(prob, max_sweeps=1)
        assert state.iterations == 1
        assert not state.converged


class TestKKTResidual:
    def test_zero_at_scalar_optimum(self):
        prob = DualProblem(gram=[[1.0]], margins=[1.0], labels=[1], c1=1.0)
        state = solve_box_qp(prob)
        assert kkt_residual(state.beta, prob) <= 1e-9

    def test_gradient_at_zero_equals_margins(self):
        rng = np.random.default_rng(8)
        margins = rng.uniform(0.1, 2.0, size=4)
        prob = DualProblem(
            gram=np.eye(4) * 0.01, margins=margins, labels=[1, -1, 1, -1], c1=1.0
        )
        # optimum is strictly positive everywhere, so beta = 0 is suboptimal
        # and the projected gradient there is exactly the margin vector
        assert kkt_residual(np.zeros(4), prob) == margins.max()

    def test_small_at_grid_optimum(self):
        rng = np.random.default_rng(9)
        prob = random_problem(rng, n=2)
        state = solve_box_qp(prob)
        assert kkt_residual(state.beta, prob) <= 1e-3

    def test_small_at_solver_output_n10(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            prob = random_problem(rng, n=10)
            state = solve_box_qp(prob)
            assert kkt_residual(state.beta, prob) <= 1e-6

    def test_nonnegative(self):
        rng = np.random.default_rng(11)
        prob = random_problem(rng, n=5)
        for _ in range(20):
            beta = rng.uniform(0, 0.2, size=5)
            assert kkt_residual(beta, prob) >= 0.0
