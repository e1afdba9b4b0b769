"""Tests for instance assignment, codeword updates, weight recovery, the
alternating fit, source training and dictionary initialization."""

import numpy as np
import pytest

from dtmil import (
    Bag,
    BagBatch,
    DegenerateInputError,
    Dictionary,
    Hyperparams,
    InvalidInputError,
    SourceModel,
    accuracy,
    codeword_gradient,
    codeword_objective,
    embed_bag,
    fit_dtc,
    generate_synthetic,
    init_dictionary,
    kkt_residual,
    predict,
    primal_objective,
    recover_w,
    score_source,
    score_target,
    train_source,
    update_codeword,
)
from dtmil.data import SynthConfig
from dtmil.qp import DualProblem


def bag(*rows, label=None, bag_id="b"):
    return Bag(id=bag_id, instances=np.array(rows, dtype=float), label=label)


def argmax(codeword, bags):
    return BagBatch(bags).argmax(codeword)


class TestAssignMaxInstances:
    """Per-bag argmax assignment through ``BagBatch.argmax``."""

    def test_picks_largest_dot(self):
        assert argmax([1.0, 0.0], [bag([0, 5], [3, 0])]).tolist() == [1]

    def test_degenerate_codeword_ties_to_lowest_index(self):
        assert argmax([0.0, 0.0], [bag([1, 2], [3, 4], [5, 6])]).tolist() == [0]

    def test_all_equal_dots_tie_to_lowest_index(self):
        assert argmax([1.0, 1.0], [bag([2, 0], [0, 2], [1, 1])]).tolist() == [0]

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            argmax([1.0, 0.0, 0.0], [bag([1, 2])])

    def test_always_indexes_a_true_argmax(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            bags = [
                Bag(id=f"b{i}", instances=rng.normal(size=(rng.integers(1, 7), 3)))
                for i in range(5)
            ]
            word = rng.normal(size=3)
            picks = argmax(word, bags)
            for i, b in enumerate(bags):
                dots = [float(word @ x) for x in b.instances]
                assert dots[picks[i]] == max(dots)

    def test_table_shape_and_range(self):
        rng = np.random.default_rng(1)
        bags = [Bag(id=f"b{i}", instances=rng.normal(size=(4, 2))) for i in range(6)]
        batch = BagBatch(bags)
        table = np.vstack([batch.argmax(word) for word in rng.normal(size=(3, 2))])
        assert table.shape == (3, 6)
        assert np.all((table >= 0) & (table < 4))

    def test_stacked_assignment_matches_per_bag_path(self):
        # the stacked argmax must pick, bit for bit, what a per-bag argmax
        # over the same row-wise dots picks, including first-index ties
        from dtmil.core import _instance_dots

        rng = np.random.default_rng(12)
        for _ in range(30):
            d = int(rng.integers(1, 6))
            bags = [
                Bag(id=f"b{i}", instances=rng.normal(size=(int(rng.integers(1, 7)), d)))
                for i in range(int(rng.integers(1, 8)))
            ]
            word = rng.normal(size=d)
            per_bag = [int(np.argmax(_instance_dots(b.instances, word))) for b in bags]
            assert argmax(word, bags).tolist() == per_bag

    def test_stacked_assignment_tie_break_on_duplicates(self):
        bags = [bag([1.0, 1.0], [1.0, 1.0], [2.0, 0.0])]  # dots tie on rows 0-2
        assert argmax(np.array([1.0, 1.0]), bags).tolist() == [0]


def one_step(psi, bags, beta, labels):
    # with eta = c1 = c2 = 1 one descent step returns (u . psi) u, where
    # u = sum_i beta_i y_i x_i[argmax_i] is built inside update_codeword
    hyper = Hyperparams(c1=1.0, c2=1.0, eta=1.0, inner_iters=1)
    return update_codeword(psi, BagBatch(bags), beta, labels, hyper)


class TestBuildU:
    """The rank-one factor u, observed through one ``update_codeword`` step."""

    def test_zero_beta_gives_zero_vector(self):
        bags = [bag([1, 2]), bag([3, 4])]
        assert one_step([1.0, 1.0], bags, [0.0, 0.0], [1, -1]).tolist() == [0.0, 0.0]

    def test_scalar_multiple(self):
        # u = 0.5 * [2, 0] = [1, 0] and u . psi = 1
        assert one_step([1.0, 0.0], [bag([2, 0])], [0.5], [1]).tolist() == [1.0, 0.0]

    def test_hand_summed_pair(self):
        # psi = [1, -2] picks row 1 of the first bag and row 0 of the
        # second, so u = [1, 0] - [0, 1] and u . psi = 3
        bags = [bag([9, 9], [1, 0]), bag([0, 1], [5, 5])]
        assert one_step([1.0, -2.0], bags, [1.0, 1.0], [1, -1]).tolist() == [3.0, -3.0]

    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            one_step([1.0, 0.0], [bag([1, 2]), bag([3, 4])], [1.0], [1, -1])

    def test_assignment_out_of_range(self):
        # the first bag's argmax must stay inside its own single row; the
        # next bag's larger row would give u = [100, 0]
        bags = [bag([1, 0]), bag([0, 0], [100, 0])]
        assert one_step([1.0, 0.0], bags, [1.0, 0.0], [1, 1]).tolist() == [1.0, 0.0]


class TestCodewordObjectiveAndGradient:
    def test_zero_codeword_objective_is_zero(self):
        assert codeword_objective([0.0, 0.0], [1.0, 2.0], 1.0, 1.0) == 0.0

    def test_orthogonal_u_leaves_regularizer(self):
        assert codeword_objective([2.0, 0.0], [0.0, 3.0], 1.0, 0.5) == 0.25 * 4.0

    def test_hand_value(self):
        assert codeword_objective([1.0, 0.0], [1.0, 1.0], 1.0, 1.0) == 0.0

    def test_gradient_zero_at_zero(self):
        assert codeword_gradient([0.0, 0.0], [1.0, 2.0], 1.0, 1.0).tolist() == [0.0, 0.0]

    def test_gradient_hand_value(self):
        assert codeword_gradient([1.0, 0.0], [1.0, 1.0], 1.0, 1.0).tolist() == [0.0, -1.0]

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(2)
        h = 1e-6
        for _ in range(20):
            d = int(rng.integers(2, 8))
            psi = rng.normal(size=d)
            u = rng.normal(size=d)
            c1 = float(rng.uniform(0.2, 3.0))
            c2 = float(rng.uniform(0.2, 3.0))
            grad = codeword_gradient(psi, u, c1, c2)
            fd = np.empty(d)
            for j in range(d):
                lo, hi = psi.copy(), psi.copy()
                lo[j] -= h
                hi[j] += h
                fd[j] = (codeword_objective(hi, u, c1, c2) - codeword_objective(lo, u, c1, c2)) / (2 * h)
            rel = np.linalg.norm(fd - grad) / max(np.linalg.norm(grad), 1e-12)
            assert rel <= 1e-5


class TestUpdateCodeword:
    def test_zero_beta_contracts_by_eta_c2(self):
        hyper = Hyperparams(c1=1.0, c2=1.0, eta=0.1, inner_iters=1)
        out = update_codeword([2.0, 0.0], BagBatch([bag([1, 1])]), [0.0], [1], hyper)
        np.testing.assert_allclose(out, [1.8, 0.0], rtol=0, atol=1e-15)

    def test_contraction_per_step(self):
        hyper = Hyperparams(c1=1.0, c2=0.5, eta=0.2, inner_iters=7)
        start = np.array([0.3, -0.4])
        out = update_codeword(start, BagBatch([bag([1, 1])]), [0.0], [1], hyper)
        np.testing.assert_allclose(out, start * (1 - 0.2 * 0.5) ** 7, rtol=1e-12)

    def test_zero_steps_returns_input(self):
        hyper = Hyperparams(inner_iters=0)
        out = update_codeword([1.0, 2.0], BagBatch([bag([1, 1])]), [1.0], [1], hyper)
        assert out.tolist() == [1.0, 2.0]

    def test_zero_init_rejected(self):
        with pytest.raises(DegenerateInputError):
            update_codeword([0.0, 0.0], BagBatch([bag([1, 1])]), [1.0], [1], Hyperparams())

    def test_stays_collinear_with_single_instance(self):
        x = np.array([3.0, 4.0])
        hyper = Hyperparams(c1=1.0, c2=0.1, eta=0.05, inner_iters=25)
        out = update_codeword(0.2 * x, BagBatch([Bag(id="b", instances=x[None, :])]), [1.0], [1], hyper)
        cross = out[0] * x[1] - out[1] * x[0]
        assert abs(cross) <= 1e-9 * np.linalg.norm(out) * np.linalg.norm(x)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            update_codeword([1.0, 0.0, 0.0], BagBatch([bag([1, 1])]), [1.0], [1], Hyperparams())

    def test_norm_clipped_to_cap(self):
        # strong u along psi makes the objective unbounded below; the cap
        # must keep the iterate finite
        batch = BagBatch([bag([10.0, 0.0])])
        hyper = Hyperparams(c1=0.01, c2=0.1, eta=0.5, inner_iters=50)
        out = update_codeword([1.0, 0.0], batch, [1.0], [1], hyper)
        assert np.isfinite(out).all()
        assert np.linalg.norm(out) <= 10.0 + 1e-12


class TestRecoverW:
    def test_zero_beta(self):
        assert recover_w([0.0], [1], [[1.0, 2.0]], 1.0).tolist() == [0.0, 0.0]

    def test_scalar_arithmetic(self):
        assert recover_w([1.0], [1], [[2.0, 0.0]], 2.0).tolist() == [1.0, 0.0]

    def test_matches_reference_loop(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n, kappa = 7, 4
            beta = rng.uniform(0, 1 / n, size=n)
            labels = rng.choice([1, -1], size=n)
            z = rng.normal(size=(n, kappa))
            c1 = float(rng.uniform(0.3, 2.0))
            expected = np.zeros(kappa)
            for i in range(n):
                expected += beta[i] * labels[i] * z[i]
            expected /= c1
            np.testing.assert_allclose(recover_w(beta, labels, z, c1), expected, rtol=0, atol=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            recover_w([1.0, 0.5], [1], [[1.0]], 1.0)


class TestInitDictionary:
    def test_normalizes_single_instance(self):
        d = init_dictionary([bag([3.0, 4.0])], size=1, seed=0)
        np.testing.assert_allclose(d.codewords, [[0.6, 0.8]], rtol=0, atol=1e-15)

    def test_deterministic_given_seed(self):
        bags = [bag([1, 2], [3, 4]), bag([5, 6], [7, 8])]
        a = init_dictionary(bags, size=3, seed=42)
        b = init_dictionary(bags, size=3, seed=42)
        assert np.array_equal(a.codewords, b.codewords)

    def test_exhausts_pool_without_replacement(self):
        rows = [[1.0, 0.0], [0.0, 2.0], [3.0, 3.0], [-1.0, 1.0]]
        bags = [bag(*rows[:2], bag_id="b1"), bag(*rows[2:], bag_id="b2")]
        d = init_dictionary(bags, size=4, seed=7)
        normalized = sorted((np.asarray(r) / np.linalg.norm(r)).tolist() for r in rows)
        sampled = sorted(w.tolist() for w in d.codewords)
        assert np.allclose(normalized, sampled)

    def test_unit_norms(self):
        rng = np.random.default_rng(4)
        bags = [Bag(id=f"b{i}", instances=rng.normal(size=(5, 3)) * 10) for i in range(4)]
        d = init_dictionary(bags, size=8, seed=1)
        np.testing.assert_allclose(np.linalg.norm(d.codewords, axis=1), 1.0, rtol=0, atol=1e-12)

    def test_oversampling_with_replacement(self):
        d = init_dictionary([bag([1.0, 0.0])], size=5, seed=0)
        assert d.size == 5

    def test_zero_instances_filtered(self):
        d = init_dictionary([bag([0.0, 0.0], [3.0, 4.0])], size=2, seed=0)
        np.testing.assert_allclose(d.codewords, [[0.6, 0.8], [0.6, 0.8]])

    def test_all_zero_pool_rejected(self):
        with pytest.raises(DegenerateInputError):
            init_dictionary([bag([0.0, 0.0])], size=1, seed=0)


def toy_source(d=2):
    return SourceModel(phi=Dictionary(codewords=np.eye(d)), v=np.zeros(d))


class TestFitDTC:
    def test_rejects_empty_and_unlabeled(self):
        with pytest.raises(InvalidInputError):
            fit_dtc([], toy_source(), Hyperparams())
        with pytest.raises(InvalidInputError):
            fit_dtc([bag([1, 2])], toy_source(), Hyperparams())

    def test_single_class_warns_but_fits(self):
        train = [bag([1, 2], label=1, bag_id="a"), bag([2, 1], label=1, bag_id="b")]
        model, report = fit_dtc(train, toy_source(), Hyperparams(kappa=2, max_outer=2, inner_iters=2))
        assert report.warnings
        assert model.psi.size == 2

    def test_unconverged_solves_are_reported(self, monkeypatch):
        import dtmil.learn
        from dtmil import solve_box_qp

        def capped(prob, init=None):
            return solve_box_qp(prob, init=init, max_sweeps=1)

        monkeypatch.setattr(dtmil.learn, "solve_box_qp", capped)
        rng = np.random.default_rng(15)
        train = [
            Bag(id=f"b{i}", label=int(1 if i % 2 else -1), instances=rng.normal(size=(3, 2)))
            for i in range(8)
        ]
        _, report = fit_dtc(train, toy_source(), Hyperparams(kappa=2, max_outer=3, inner_iters=2))
        capped_rounds = [w for w in report.warnings if "sweep cap" in w]
        assert capped_rounds
        assert all("after 1 sweeps" in w for w in capped_rounds)
        assert capped_rounds[0].startswith("outer round 1:")
        _, report = fit_dtc(train, toy_source(), Hyperparams(kappa=2, max_outer=0))
        assert any(w.startswith("single dual solve:") for w in report.warnings)

    def test_converged_solves_add_no_warning(self):
        rng = np.random.default_rng(15)
        train = [
            Bag(id=f"b{i}", label=int(1 if i % 2 else -1), instances=rng.normal(size=(3, 2)))
            for i in range(8)
        ]
        _, report = fit_dtc(train, toy_source(), Hyperparams(kappa=2, max_outer=3, inner_iters=2))
        assert report.warnings == []

    def test_max_outer_zero_uses_initial_dictionary(self):
        rng = np.random.default_rng(5)
        train = [
            Bag(id=f"b{i}", label=int(1 if i % 2 else -1), instances=rng.normal(size=(3, 2)))
            for i in range(6)
        ]
        hyper = Hyperparams(kappa=3, max_outer=0, seed=9)
        model, report = fit_dtc(train, toy_source(), hyper)
        assert report.outer_iterations == 0
        assert report.dual_values == [] and report.primal_values == []
        # dictionary untouched from initialization
        expected = init_dictionary(train, 3, 9)
        assert np.array_equal(model.psi.codewords, expected.codewords)
        # w comes from a single dual solve on those embeddings
        labels = np.array([b.label for b in train])
        z = np.vstack([embed_bag(b, model.psi) for b in train])
        np.testing.assert_allclose(
            hyper.c1 * model.w, (report.final_beta * labels) @ z, rtol=0, atol=1e-12
        )

    def test_separated_with_margin_keeps_source(self):
        # all margins satisfied (r_i <= 0) pins beta at zero, so w = 0 and
        # the adapted scores coincide with the source scores
        source = SourceModel(phi=Dictionary(codewords=[[1.0, 0.0]]), v=[2.0])
        train = [
            bag([1.0, 0.3], label=1, bag_id="p1"),
            bag([0.8, -0.2], label=1, bag_id="p2"),
            bag([-1.0, 0.1], label=-1, bag_id="n1"),
            bag([-0.9, 0.4], label=-1, bag_id="n2"),
        ]
        for b in train:
            assert b.label * score_source(b, source) >= 1.0
        model, report = fit_dtc(train, source, Hyperparams(kappa=2, max_outer=4, inner_iters=3))
        assert np.array_equal(report.final_beta, np.zeros(4))
        assert np.array_equal(model.w, np.zeros(2))
        for b in train:
            assert score_target(b, model) == score_source(b, source)
        # beta = 0 is optimal here, which the KKT residual confirms
        labels = np.array([b.label for b in train])
        z = np.vstack([embed_bag(b, model.psi) for b in train])
        prob = DualProblem(gram=z @ z.T, margins=1 - labels * np.array(
            [score_source(b, source) for b in train]), labels=labels, c1=model.hyper.c1)
        assert kkt_residual(report.final_beta, prob) == 0.0

    def test_weak_duality_on_tiny_problem(self):
        rng = np.random.default_rng(6)
        cfg = SynthConfig(d=2, bags_per_class_source=4, bags_per_class_target=4,
                          instances_per_bag=(2, 4), cluster_separation=2.0,
                          shift_rotation_degrees=20.0, shift_translation=0.5,
                          noise_sigma=0.2)
        source_bags, target_bags = generate_synthetic(cfg, seed=3)
        source = train_source(source_bags, iota=3, c=1.0, seed=3)
        hyper = Hyperparams(kappa=2, max_outer=5, inner_iters=5, seed=4)
        model, report = fit_dtc(target_bags, source, hyper)
        primal = primal_objective(target_bags, model)
        psi_reg = 0.5 * hyper.c2 * float(np.sum(model.psi.codewords ** 2))
        assert primal >= report.final_dual_value + psi_reg - 1e-3

    def test_stationarity_identity(self):
        rng = np.random.default_rng(7)
        train = [
            Bag(id=f"b{i}", label=int(1 if i % 2 else -1), instances=rng.normal(size=(4, 3)))
            for i in range(8)
        ]
        source = SourceModel(phi=Dictionary(codewords=rng.normal(size=(4, 3))), v=rng.normal(size=4))
        hyper = Hyperparams(kappa=3, max_outer=4, inner_iters=5, seed=2)
        model, report = fit_dtc(train, source, hyper)
        labels = np.array([b.label for b in train])
        z = np.vstack([embed_bag(b, model.psi) for b in train])
        residual = hyper.c1 * model.w - (report.final_beta * labels) @ z
        assert np.max(np.abs(residual)) <= 1e-12

    def test_dual_ascent_from_warm_start_each_iteration(self):
        rng = np.random.default_rng(8)
        train = [
            Bag(id=f"b{i}", label=int(1 if i % 2 else -1), instances=rng.normal(size=(4, 3)))
            for i in range(8)
        ]
        source = SourceModel(phi=Dictionary(codewords=rng.normal(size=(4, 3))), v=rng.normal(size=4))
        _, report = fit_dtc(train, source, Hyperparams(kappa=3, max_outer=6, inner_iters=4, seed=1))
        assert report.outer_iterations >= 1
        for warm, solved in zip(report.warm_start_dual_values, report.dual_values):
            assert solved >= warm - 1e-9

    def test_report_lists_match_iterations(self):
        rng = np.random.default_rng(9)
        train = [
            Bag(id=f"b{i}", label=int(1 if i % 2 else -1), instances=rng.normal(size=(3, 2)))
            for i in range(6)
        ]
        _, report = fit_dtc(train, toy_source(), Hyperparams(kappa=2, max_outer=5, inner_iters=2))
        assert len(report.dual_values) == report.outer_iterations
        assert len(report.primal_values) == report.outer_iterations
        assert len(report.warm_start_dual_values) == report.outer_iterations
        assert report.wall_time_seconds >= 0.0

    def test_dimension_mismatch_with_source(self):
        with pytest.raises(InvalidInputError):
            fit_dtc([bag([1, 2, 3], label=1)], toy_source(d=2), Hyperparams())

    def test_deterministic(self):
        rng = np.random.default_rng(10)
        train = [
            Bag(id=f"b{i}", label=int(1 if i % 2 else -1), instances=rng.normal(size=(3, 2)))
            for i in range(6)
        ]
        hyper = Hyperparams(kappa=2, max_outer=3, inner_iters=3, seed=5)
        m1, r1 = fit_dtc(train, toy_source(), hyper)
        m2, r2 = fit_dtc(train, toy_source(), hyper)
        assert np.array_equal(m1.psi.codewords, m2.psi.codewords)
        assert np.array_equal(m1.w, m2.w)
        assert r1.dual_values == r2.dual_values

    def test_batched_embedding_matches_per_bag_path(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            d = int(rng.integers(1, 6))
            bags = [
                Bag(id=f"b{i}", instances=rng.normal(size=(int(rng.integers(1, 7)), d)))
                for i in range(int(rng.integers(1, 9)))
            ]
            dictionary = Dictionary(codewords=rng.normal(size=(int(rng.integers(1, 5)), d)))
            batched = BagBatch(bags).embed(dictionary)
            rows = np.vstack([embed_bag(b, dictionary) for b in bags])
            assert np.array_equal(batched, rows)

    def test_reported_primal_matches_public_objective(self):
        rng = np.random.default_rng(14)
        train = [
            Bag(id=f"b{i}", label=int(1 if i % 2 else -1), instances=rng.normal(size=(4, 3)))
            for i in range(8)
        ]
        source = SourceModel(phi=Dictionary(codewords=rng.normal(size=(4, 3))), v=rng.normal(size=4))
        hyper = Hyperparams(kappa=3, max_outer=1, inner_iters=4, seed=6)
        _, report = fit_dtc(train, source, hyper)

        # reconstruct the first iteration's primal iterate independently
        from dtmil import AdaptedModel, recover_w, solve_box_qp
        from dtmil.qp import DualProblem

        labels = np.array([b.label for b in train])
        psi0 = init_dictionary(train, hyper.kappa, hyper.seed)
        z = np.vstack([embed_bag(b, psi0) for b in train])
        f = np.array([score_source(b, source) for b in train])
        gram = z @ z.T
        prob = DualProblem(gram=0.5 * (gram + gram.T), margins=1 - labels * f,
                           labels=labels, c1=hyper.c1)
        beta = solve_box_qp(prob).beta
        w = recover_w(beta, labels, z, hyper.c1)
        model = AdaptedModel(source, psi0, w, hyper)
        np.testing.assert_allclose(
            report.primal_values[0], primal_objective(train, model), rtol=0, atol=1e-12
        )


class TestTrainSource:
    def test_separable_clusters_reach_high_accuracy(self):
        cfg = SynthConfig(d=6, bags_per_class_source=40, bags_per_class_target=5,
                          cluster_separation=4.0, shift_rotation_degrees=0.0,
                          shift_translation=0.0, noise_sigma=0.0)
        source_bags, _ = generate_synthetic(cfg, seed=0)
        model = train_source(source_bags, iota=15, c=1.0, seed=0)
        assert accuracy(model, source_bags) >= 0.95

    def test_single_word_identical_instances(self):
        bags = [
            bag([3.0, 4.0], label=1, bag_id="p1"),
            bag([3.0, 4.0], label=1, bag_id="p2"),
            bag([3.0, 4.0], label=-1, bag_id="n1"),
        ]
        model = train_source(bags, iota=1, c=1.0, seed=0)
        np.testing.assert_allclose(model.phi.codewords, [[0.6, 0.8]])
        # majority label is +1; the lone feature is identical on every bag,
        # so the decision is sign-consistent with the majority
        for b in bags:
            assert predict(score_source(b, model)) == 1

    def test_small_c_keeps_decisions_on_separable_data(self):
        cfg = SynthConfig(d=5, bags_per_class_source=25, bags_per_class_target=5,
                          cluster_separation=5.0, shift_rotation_degrees=0.0,
                          shift_translation=0.0, noise_sigma=0.0)
        source_bags, _ = generate_synthetic(cfg, seed=1)
        strong = train_source(source_bags, iota=10, c=1e-6, seed=2)
        mild = train_source(source_bags, iota=10, c=1.0, seed=2)
        assert np.linalg.norm(strong.v) > np.linalg.norm(mild.v)
        agree = sum(
            predict(score_source(b, strong)) == predict(score_source(b, mild))
            for b in source_bags
        )
        assert agree / len(source_bags) >= 0.95

    def test_single_class_rejected(self):
        with pytest.raises(InvalidInputError):
            train_source([bag([1, 2], label=1)], iota=1, c=1.0, seed=0)

    def test_shapes(self):
        rng = np.random.default_rng(11)
        bags = [
            Bag(id=f"b{i}", label=int(1 if i % 2 else -1), instances=rng.normal(size=(3, 4)))
            for i in range(6)
        ]
        model = train_source(bags, iota=5, c=0.5, seed=3)
        assert model.phi.size == 5 and model.v.shape == (5,)
