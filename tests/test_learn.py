"""Tests for instance assignment, codeword updates, weight recovery, the
alternating fit, source training and dictionary initialization."""

import warnings

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
import dtmil.core
from dtmil.core import _instance_dots
from dtmil.data import SynthConfig
from dtmil.learn import CODEWORD_NORM_CAP
from dtmil.qp import DualProblem


def bag(*rows, label=None, bag_id="b"):
    return Bag(id=bag_id, instances=np.array(rows, dtype=float), label=label)


def argmax(codeword, bags):
    return BagBatch(bags).argmax([codeword])[0]


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
        table = batch.argmax(rng.normal(size=(3, 2)))
        assert table.shape == (3, 6)
        assert np.all((table >= 0) & (table < 4))

    def test_stacked_assignment_matches_per_bag_path(self):
        # the stacked argmax must pick, bit for bit, what a per-bag argmax
        # over the same row-wise dots picks, including first-index ties
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

    def test_argmax_attains_embedding(self):
        # every codeword's picked instance must reach that codeword's
        # feature in embed exactly, ties included
        rng = np.random.default_rng(13)
        for _ in range(20):
            d = int(rng.integers(1, 6))
            bags = [
                Bag(id=f"b{i}", instances=rng.integers(-2, 3, size=(int(rng.integers(1, 7)), d)))
                for i in range(int(rng.integers(1, 8)))
            ]
            batch = BagBatch(bags)
            words = rng.normal(size=(int(rng.integers(1, 5)), d))
            picks = batch.argmax(words)
            z = batch.embed(Dictionary(codewords=words))
            for k, word in enumerate(words):
                assert np.array_equal(_instance_dots(batch.instances[batch.starts + picks[k]], word), z[:, k])


def descend(word, batch, beta, labels, hyper):
    # one codeword through the whole-dictionary update
    return update_codeword(Dictionary(codewords=[word]), batch, beta, labels, hyper).codewords[0]


def one_step(psi, bags, beta, labels):
    # with eta = c1 = c2 = 1 one descent step returns (u . psi) u, where
    # u = sum_i beta_i y_i x_i[argmax_i] is built inside update_codeword
    hyper = Hyperparams(c1=1.0, c2=1.0, eta=1.0, inner_iters=1)
    return descend(psi, BagBatch(bags), beta, labels, hyper)


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

    def test_rows_give_each_codewords_values(self):
        rng = np.random.default_rng(3)
        psi, u = rng.normal(size=(2, 5, 3))
        objective = codeword_objective(psi, u, 0.7, 1.3)
        gradient = codeword_gradient(psi, u, 0.7, 1.3)
        for k in range(5):
            assert objective[k] == codeword_objective(psi[k], u[k], 0.7, 1.3)
            assert gradient[k].tobytes() == codeword_gradient(psi[k], u[k], 0.7, 1.3).tobytes()

    @pytest.mark.parametrize("call", [codeword_objective, codeword_gradient])
    def test_strings_and_bools_rejected(self, call):
        with pytest.raises(InvalidInputError, match="^psi_k "):
            call(["1.5"], ["2"], 1.0, 1.0)
        with pytest.raises(InvalidInputError, match="^u "):
            call([1.5], [True], 1.0, 1.0)

    @pytest.mark.parametrize("call", [codeword_objective, codeword_gradient])
    def test_shapes_must_match(self, call):
        with pytest.raises(InvalidInputError, match=r"^psi_k \(2,\) and u \(3,\) must have the same shape$"):
            call([1.0, 2.0], [1.0, 2.0, 3.0], 1.0, 1.0)
        with pytest.raises(InvalidInputError, match="^psi_k .* same shape$"):
            call([[1.0, 2.0]], [[1.0, 2.0], [3.0, 4.0]], 1.0, 1.0)

    @pytest.mark.parametrize("call", [codeword_objective, codeword_gradient])
    @pytest.mark.parametrize("c1, c2, name", [
        (0.0, 1.0, "c1"), ("1", 1.0, "c1"), (True, 1.0, "c1"),
        (1.0, -1.0, "c2"), (1.0, float("inf"), "c2"), (1.0, None, "c2"),
    ])
    def test_regularizers_follow_the_real_rule(self, call, c1, c2, name):
        with pytest.raises(InvalidInputError, match=f"^{name} must be a positive finite real"):
            call([1.0], [1.0], c1, c2)


def _reference_argmax(batch, codeword, seen):
    # the single-codeword argmax that BagBatch.argmax once was, plus a
    # tally of the ties where the pick changes u: distinct instances tied
    # at the maximum of a nonzero codeword
    dots = _instance_dots(batch.instances, codeword)
    seg_max = np.maximum.reduceat(dots, batch.starts)
    hits = dots == np.repeat(seg_max, batch.counts)
    if np.any(codeword):
        for start, stop in zip(batch.starts, batch.starts + batch.counts):
            tied = batch.instances[start:stop][hits[start:stop]]
            seen["tie"] += int(np.unique(tied, axis=0).shape[0] > 1)
    positions = np.arange(dots.shape[0])
    firsts = np.minimum.reduceat(np.where(hits, positions, dots.shape[0]), batch.starts)
    return firsts - batch.starts


def _reference_update_codeword(psi_init, batch, beta, labels, hyper, seen):
    # the single-codeword descent that update_codeword once was, verbatim
    # apart from its input checks, the argmax above, the 1-D gradient
    # inlined and a tally of the steps that hit the norm cap
    psi = np.array(psi_init, dtype=np.float64)
    signed = np.asarray(beta, dtype=np.float64) * np.asarray(labels, dtype=np.float64)
    for _ in range(hyper.inner_iters):
        assignment = _reference_argmax(batch, psi, seen)
        u = signed @ batch.instances[batch.starts + assignment]
        psi = psi - hyper.eta * (hyper.c2 * psi - (float(u @ psi) / hyper.c1) * u)
        norm = float(np.linalg.norm(psi))
        if norm > CODEWORD_NORM_CAP:
            seen["cap"] += 1
            psi *= CODEWORD_NORM_CAP / norm
    return psi


class TestUpdateCodeword:
    def test_zero_beta_contracts_by_eta_c2(self):
        hyper = Hyperparams(c1=1.0, c2=1.0, eta=0.1, inner_iters=1)
        out = descend([2.0, 0.0], BagBatch([bag([1, 1])]), [0.0], [1], hyper)
        np.testing.assert_allclose(out, [1.8, 0.0], rtol=0, atol=1e-15)

    def test_contraction_per_step(self):
        hyper = Hyperparams(c1=1.0, c2=0.5, eta=0.2, inner_iters=7)
        start = np.array([0.3, -0.4])
        out = descend(start, BagBatch([bag([1, 1])]), [0.0], [1], hyper)
        np.testing.assert_allclose(out, start * (1 - 0.2 * 0.5) ** 7, rtol=1e-12)

    def test_zero_steps_returns_input(self):
        hyper = Hyperparams(inner_iters=0)
        out = descend([1.0, 2.0], BagBatch([bag([1, 1])]), [1.0], [1], hyper)
        assert out.tolist() == [1.0, 2.0]

    def test_zero_codeword_comes_back_unchanged(self):
        # u . 0 = 0 makes the gradient +0.0, so a zero codeword is an exact
        # fixed point: every entry stays +0.0, with no sign bit, whatever u is
        batch = BagBatch([bag([1.0, -2.0], [-3.0, 0.5], bag_id="p"), bag([-1.0, 4.0], bag_id="n")])
        for inner_iters in (1, 50):
            hyper = Hyperparams(c1=0.5, c2=0.1, eta=0.3, inner_iters=inner_iters)
            out = descend(np.zeros(2), batch, [0.7, 0.4], [1, -1], hyper)
            assert out.tolist() == [0.0, 0.0]
            assert not np.signbit(out).any()

    def test_stays_collinear_with_single_instance(self):
        x = np.array([3.0, 4.0])
        hyper = Hyperparams(c1=1.0, c2=0.1, eta=0.05, inner_iters=25)
        out = descend(0.2 * x, BagBatch([Bag(id="b", instances=x[None, :])]), [1.0], [1], hyper)
        cross = out[0] * x[1] - out[1] * x[0]
        assert abs(cross) <= 1e-9 * np.linalg.norm(out) * np.linalg.norm(x)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            descend([1.0, 0.0, 0.0], BagBatch([bag([1, 1])]), [1.0], [1], Hyperparams())

    def test_norm_clipped_to_cap(self):
        # strong u along psi makes the objective unbounded below; the cap
        # must keep the iterate finite
        batch = BagBatch([bag([10.0, 0.0])])
        hyper = Hyperparams(c1=0.01, c2=0.1, eta=0.5, inner_iters=50)
        out = descend([1.0, 0.0], batch, [1.0], [1], hyper)
        assert np.isfinite(out).all()
        assert np.linalg.norm(out) <= 10.0 + 1e-12

    def test_norm_cap_survives_an_overflowing_squared_norm(self):
        # a step of about 1e200 overflows ||psi||^2; the cap must still bring
        # every codeword to norm 10, not scale it by 10 / inf down to zero
        _, target = generate_synthetic(SynthConfig(), 3)
        batch = BagBatch(target)
        labels = [b.label for b in target]
        beta = np.full(len(target), 1.0 / len(target))
        psi = init_dictionary(batch, 5, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = update_codeword(psi, batch, beta, labels, Hyperparams(eta=1e200, inner_iters=1))
        np.testing.assert_allclose(np.linalg.norm(out.codewords, axis=1), CODEWORD_NORM_CAP, rtol=1e-14)

    def test_non_finite_step_names_step_and_codeword(self):
        # u = [100, 0]: codeword 0 is orthogonal to it, so its step is
        # eta * c2 * psi, finite but with an overflowing squared norm;
        # codeword 1 lies along u, and its step overflows to infinity
        batch = BagBatch([bag([100.0, 0.0])])
        words = Dictionary(codewords=[[0.0, 1.0], [1.0, 0.0]])
        hyper = Hyperparams(c1=1.0, c2=0.1, eta=1e308, inner_iters=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match=r"^descent step 1: codeword 1 is not finite"):
                update_codeword(words, batch, [1.0], [1], hyper)
            only_first = update_codeword(Dictionary(codewords=words.codewords[:1]), batch, [1.0], [1], hyper)
        assert only_first.codewords.tolist() == [[0.0, -CODEWORD_NORM_CAP]]

    def test_matches_per_codeword_reference_bit_for_bit(self):
        # one whole-dictionary call must reproduce, signbits included, the
        # per-codeword loop it replaced; integer instances and codewords
        # force argmax ties, some rows are zero and large rows hit the cap
        rng = np.random.default_rng(31)
        seen = {"tie": 0, "cap": 0}
        for d in (1, 2, 10, 64):
            for kappa in (1, 3, 20):
                for inner_iters in (0, 1, 5):
                    bags = [
                        Bag(id=f"b{i}", instances=rng.integers(-3, 4, size=(int(rng.integers(1, 6)), d)))
                        for i in range(6)
                    ]
                    bags.append(Bag(id="zero", instances=np.zeros((3, d))))
                    batch = BagBatch(bags)
                    words = np.where(
                        rng.random(size=(kappa, 1)) < 0.3,
                        rng.integers(-2, 3, size=(kappa, d)),
                        rng.normal(size=(kappa, d)) * rng.choice([0.0, 1.0, 20.0], size=(kappa, 1)),
                    )
                    beta = rng.uniform(0.0, 1.0, size=len(bags))
                    labels = rng.choice([1, -1], size=len(bags))
                    c1 = float(rng.choice([0.05, 1.0]))
                    hyper = Hyperparams(c1=c1, c2=0.1, eta=0.3, inner_iters=inner_iters)
                    out = update_codeword(Dictionary(codewords=words), batch, beta, labels, hyper).codewords
                    ref = np.vstack(
                        [_reference_update_codeword(w, batch, beta, labels, hyper, seen) for w in words]
                    )
                    assert np.array_equal(out, ref), (d, kappa, inner_iters)
                    assert np.array_equal(np.signbit(out), np.signbit(ref)), (d, kappa, inner_iters)
        assert seen["tie"] > 0 and seen["cap"] > 0, seen


def _count_exact_picks(monkeypatch):
    # BagBatch.argmax calls _instance_dots only to recompute a pick exactly;
    # the list records the bag size of every such recomputation
    calls = []

    def counting(instances, codeword):
        calls.append(instances.shape[0])
        return _instance_dots(instances, codeword)

    monkeypatch.setattr(dtmil.core, "_instance_dots", counting)
    return calls


def _reference_table(batch, words):
    return np.vstack([_reference_argmax(batch, w, {"tie": 0}) for w in words])


class TestCertifiedArgmax:
    """``BagBatch.argmax`` takes a pick from its gemm only where a
    rounding-error bound proves it equal to the row-wise argmax, and
    recomputes every other pick row-wise."""

    @pytest.mark.parametrize("d", [1, 2, 10, 64])
    def test_matches_row_wise_reference_on_adversarial_input(self, d, monkeypatch):
        rng = np.random.default_rng(d)
        x = rng.normal(size=d)
        x_ulp = x.copy()
        x_ulp[-1] = np.nextafter(x[-1], np.inf)
        rows = {
            "duplicates": [x, x, rng.normal(size=d)],
            "one ulp apart": [x, x_ulp],
            "one ulp apart, reversed": [x_ulp, x, -x],
            "single": [x],
            "single generic": [rng.normal(size=d)],
            "zero": np.zeros((2, d)),
            "subnormal": rng.normal(size=(3, d)) * 1e-310,
            "smallest subnormal": [np.full(d, 5e-324), np.full(d, 1e-323), np.zeros(d)],
            "near overflow": rng.normal(size=(3, d)) * 1e154,
            "huge duplicates": [x * 1e300, x * 1e300, -x * 1e300],
            "generic": rng.normal(size=(6, d)),
        }
        # distinct rows whose dots with w tie up to rounding, which a gemm
        # and the row-wise sums round differently
        w = rng.normal(size=d)
        for i in range(40):
            a, b = rng.normal(size=(2, d))
            rows[f"near tie {i}"] = [a, b + ((a - b) @ w / (w @ w)) * w]
        batch = BagBatch([Bag(id=name, instances=r) for name, r in rows.items()])
        words = np.vstack([
            x, -x, np.zeros(d), w, rng.integers(-2, 3, size=d),
            x * 1e-300, x * 1e3, np.full(d, 5e-324),
        ])
        exact = _count_exact_picks(monkeypatch)
        picks = batch.argmax(words)
        assert np.array_equal(picks, _reference_table(batch, words))
        assert picks.dtype == np.intp and exact  # the ties above must reach the exact path

    def test_ties_and_near_ties_take_the_exact_path(self, monkeypatch):
        rng = np.random.default_rng(5)
        x = rng.normal(size=4)
        x_ulp = x.copy()
        x_ulp[0] = np.nextafter(x[0], -np.inf)
        bags = [
            Bag(id="tie", instances=[x, x]),
            Bag(id="ulp", instances=[x_ulp, x]),
            Bag(id="generic", instances=rng.normal(size=(5, 4))),
        ]
        batch = BagBatch(bags)
        words = rng.normal(size=(3, 4))
        exact = _count_exact_picks(monkeypatch)
        picks = batch.argmax(words)
        assert np.array_equal(picks, _reference_table(batch, words))
        assert picks[:, 0].tolist() == [0, 0, 0]
        assert sorted(exact) == [2] * 6  # both two-row bags, for each codeword

    def test_zero_codeword_is_exact_only_in_multi_instance_bags(self, monkeypatch):
        batch = BagBatch([bag([1.0, 2.0]), bag([3.0, 4.0], [-1.0, 0.5], [2.0, 2.0])])
        exact = _count_exact_picks(monkeypatch)
        assert batch.argmax(np.zeros((1, 2))).tolist() == [[0, 0]]
        assert exact == [3]

    def test_generic_data_takes_no_exact_path(self, monkeypatch):
        _, target = generate_synthetic(SynthConfig(), 11)
        batch = BagBatch(target)
        words = np.random.default_rng(11).normal(size=(20, batch.dim))
        exact = _count_exact_picks(monkeypatch)
        picks = batch.argmax(words)
        assert exact == []
        assert np.array_equal(picks, _reference_table(batch, words))

    def test_overflowing_dots_take_the_exact_path(self, monkeypatch):
        # dots that overflow to +inf tie, row-wise, at the first infinite one
        huge = np.full(3, 1e307)
        batch = BagBatch([
            Bag(id="inf", instances=[huge * 0.5, huge, huge]),
            Bag(id="finite", instances=[[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]]),
        ])
        words = np.array([[10.0, 10.0, 10.0], [1.0, 2.0, 3.0]])
        exact = _count_exact_picks(monkeypatch)
        with np.errstate(over="ignore"):
            picks = batch.argmax(words)
            assert np.array_equal(picks, _reference_table(batch, words))
        assert picks.tolist() == [[1, 1], [1, 1]]
        assert exact == [3, 3]

    def test_nan_dot_is_rejected(self):
        batch = BagBatch([Bag(id="b", instances=[[1e308, -1e308]])])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(InvalidInputError, match="codeword 0 has a NaN dot product"):
                batch.argmax([[10.0, 10.0]])

    def test_instance_norms_are_cached_only_when_argmax_runs(self):
        batch = BagBatch([bag([3.0, 4.0], [1e-320, 0.0]), bag([0.0, 1e200])])
        assert "_bag_norms" not in vars(batch)
        batch.argmax([[1.0, 0.0]])
        assert batch._bag_norms.tolist() == [5.0, 1e200]
        assert not batch._bag_norms.flags.writeable


class TestRecoverW:
    def test_zero_beta(self):
        prob = DualProblem(features=[[1.0, 2.0]], margins=[1.0], labels=[1], c1=1.0)
        assert recover_w([0.0], prob).tolist() == [0.0, 0.0]

    def test_scalar_arithmetic(self):
        prob = DualProblem(features=[[2.0, 0.0]], margins=[1.0], labels=[1], c1=2.0)
        assert recover_w([1.0], prob).tolist() == [1.0, 0.0]

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
            prob = DualProblem(features=z, margins=np.ones(n), labels=labels, c1=c1)
            np.testing.assert_allclose(recover_w(beta, prob), expected, rtol=0, atol=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            recover_w([1.0, 0.5], DualProblem(features=[[1.0]], margins=[1.0], labels=[1], c1=1.0))


class TestInitDictionary:
    def test_normalizes_single_instance(self):
        d = init_dictionary(BagBatch([bag([3.0, 4.0])]), size=1, seed=0)
        np.testing.assert_allclose(d.codewords, [[0.6, 0.8]], rtol=0, atol=1e-15)

    def test_deterministic_given_seed(self):
        batch = BagBatch([bag([1, 2], [3, 4]), bag([5, 6], [7, 8])])
        a = init_dictionary(batch, size=3, seed=42)
        b = init_dictionary(batch, size=3, seed=42)
        assert np.array_equal(a.codewords, b.codewords)

    def test_exhausts_pool_without_replacement(self):
        rows = [[1.0, 0.0], [0.0, 2.0], [3.0, 3.0], [-1.0, 1.0]]
        bags = [bag(*rows[:2], bag_id="b1"), bag(*rows[2:], bag_id="b2")]
        d = init_dictionary(BagBatch(bags), size=4, seed=7)
        normalized = sorted((np.asarray(r) / np.linalg.norm(r)).tolist() for r in rows)
        sampled = sorted(w.tolist() for w in d.codewords)
        assert np.allclose(normalized, sampled)

    def test_unit_norms(self):
        rng = np.random.default_rng(4)
        bags = [Bag(id=f"b{i}", instances=rng.normal(size=(5, 3)) * 10) for i in range(4)]
        d = init_dictionary(BagBatch(bags), size=8, seed=1)
        np.testing.assert_allclose(np.linalg.norm(d.codewords, axis=1), 1.0, rtol=0, atol=1e-12)

    def test_oversampling_with_replacement(self):
        d = init_dictionary(BagBatch([bag([1.0, 0.0])]), size=5, seed=0)
        assert d.size == 5

    def test_zero_instances_filtered(self):
        d = init_dictionary(BagBatch([bag([0.0, 0.0], [3.0, 4.0])]), size=2, seed=0)
        np.testing.assert_allclose(d.codewords, [[0.6, 0.8], [0.6, 0.8]])

    def test_all_zero_pool_rejected(self):
        with pytest.raises(DegenerateInputError):
            init_dictionary(BagBatch([bag([0.0, 0.0])]), size=1, seed=0)


def toy_source(d=2):
    return SourceModel(phi=Dictionary(codewords=np.eye(d)), v=np.zeros(d))


class TestFitDTC:
    def test_rejects_empty_and_unlabeled(self):
        with pytest.raises(InvalidInputError):
            fit_dtc([], toy_source(), Hyperparams())
        with pytest.raises(InvalidInputError):
            fit_dtc([bag([1, 2])], toy_source(), Hyperparams())

    def test_non_finite_descent_names_the_outer_round(self, monkeypatch):
        import dtmil.learn

        real, rounds = dtmil.learn.update_codeword, []

        def fails_in_round_3(psi, batch, beta, labels, hyper):
            rounds.append(len(rounds) + 1)
            if len(rounds) == 3:
                raise InvalidInputError("descent step 2: codeword 1 is not finite (step size eta=0.5)")
            return real(psi, batch, beta, labels, hyper)

        monkeypatch.setattr(dtmil.learn, "update_codeword", fails_in_round_3)
        train = [bag([1, 2], label=1, bag_id="a"), bag([2, 1], label=-1, bag_id="b")]
        with pytest.raises(InvalidInputError) as caught:
            fit_dtc(train, toy_source(), Hyperparams(kappa=2, max_outer=5, inner_iters=2, tol=1e-12))
        assert str(caught.value) == (
            "descent step 2: codeword 1 is not finite (step size eta=0.5) in outer round 3"
        )
        assert rounds == [1, 2, 3]

    def test_real_non_finite_descent_names_its_round(self, monkeypatch):
        # the unpatched descent at an overflowing step size: the round in the
        # message is the number of update_codeword calls made
        import dtmil.learn

        real, calls = dtmil.learn.update_codeword, []

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(dtmil.learn, "update_codeword", counted)
        _, target = generate_synthetic(SynthConfig(bags_per_class_target=5), 3)
        source = train_source(target, 4, 1.0, 3)
        with pytest.raises(InvalidInputError) as caught:
            fit_dtc(target, source, Hyperparams(kappa=4, eta=1e308, c1=0.01, inner_iters=5))
        message = str(caught.value)
        assert message.startswith("descent step ")
        assert message.endswith(f"is not finite (step size eta=1e+308) in outer round {len(calls)}")

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
        expected = init_dictionary(BagBatch(train), 3, 9)
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
            assert b.label * score_source(BagBatch([b]), source)[0] >= 1.0
        model, report = fit_dtc(train, source, Hyperparams(kappa=2, max_outer=4, inner_iters=3))
        assert np.array_equal(report.final_beta, np.zeros(4))
        assert np.array_equal(model.w, np.zeros(2))
        for b in train:
            assert score_target(BagBatch([b]), model)[0] == score_source(BagBatch([b]), source)[0]
        # beta = 0 is optimal here, which the KKT residual confirms
        labels = np.array([b.label for b in train])
        z = np.vstack([embed_bag(b, model.psi) for b in train])
        prob = DualProblem(features=z, margins=1 - labels * np.array(
            [score_source(BagBatch([b]), source)[0] for b in train]), labels=labels, c1=model.hyper.c1)
        assert kkt_residual(report.final_beta, prob) == 0.0

    def test_codewords_zeroed_in_round_one_stay_zero(self):
        # with every source margin met beta stays 0, so u = 0 and a step with
        # eta * c2 = 1 sends each codeword exactly to 0; round 2 must leave
        # the zero codewords in place rather than descend from them
        source = SourceModel(phi=Dictionary(codewords=[[1.0, 0.0]]), v=[2.0])
        train = [
            bag([1.0, 0.3], label=1, bag_id="p1"),
            bag([0.8, -0.2], label=1, bag_id="p2"),
            bag([-1.0, 0.1], label=-1, bag_id="n1"),
            bag([-0.9, 0.4], label=-1, bag_id="n2"),
        ]
        hyper = Hyperparams(kappa=2, c2=1.0, eta=1.0, inner_iters=1, max_outer=3)
        model, report = fit_dtc(train, source, hyper)
        assert report.outer_iterations == 2 and report.converged
        assert np.array_equal(model.psi.codewords, np.zeros((2, 2)))
        assert np.array_equal(model.w, np.zeros(2))

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

    def test_gram_of_embeddings_is_exactly_symmetric(self):
        # the solver reads rows of the Gram where the update needs columns;
        # DualProblem builds it as z @ z.T, which numpy evaluates as a
        # symmetric rank-k update, so it is symmetric bit for bit
        rng = np.random.default_rng(14)
        for n, m in ((1, 1), (30, 5), (400, 20)):
            bags = [Bag(id=f"b{i}", instances=rng.normal(size=(3, 4))) for i in range(n)]
            batch = BagBatch(bags)
            z = batch.embed(init_dictionary(batch, m, seed=n))
            prob = DualProblem(features=z, margins=np.ones(n), labels=np.ones(n), c1=1.0)
            assert np.array_equal(prob.gram, prob.gram.T)

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
        psi0 = init_dictionary(BagBatch(train), hyper.kappa, hyper.seed)
        z = np.vstack([embed_bag(b, psi0) for b in train])
        f = np.array([score_source(BagBatch([b]), source)[0] for b in train])
        prob = DualProblem(features=z, margins=1 - labels * f, labels=labels, c1=hyper.c1)
        beta = solve_box_qp(prob).beta
        w = recover_w(beta, prob)
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
            assert predict(score_source(BagBatch([b]), model))[0] == 1

    def test_small_c_keeps_decisions_on_separable_data(self):
        cfg = SynthConfig(d=5, bags_per_class_source=25, bags_per_class_target=5,
                          cluster_separation=5.0, shift_rotation_degrees=0.0,
                          shift_translation=0.0, noise_sigma=0.0)
        source_bags, _ = generate_synthetic(cfg, seed=1)
        strong = train_source(source_bags, iota=10, c=1e-6, seed=2)
        mild = train_source(source_bags, iota=10, c=1.0, seed=2)
        assert np.linalg.norm(strong.v) > np.linalg.norm(mild.v)
        agree = sum(
            predict(score_source(BagBatch([b]), strong))[0] == predict(score_source(BagBatch([b]), mild))[0]
            for b in source_bags
        )
        assert agree / len(source_bags) >= 0.95

    def test_capped_solve_warns(self, monkeypatch):
        import dtmil.learn
        from dtmil import solve_box_qp

        monkeypatch.setattr(
            dtmil.learn, "solve_box_qp",
            lambda prob, init=None: solve_box_qp(prob, init=init, max_sweeps=1),
        )
        source_bags, _ = generate_synthetic(SynthConfig(), seed=0)
        with pytest.warns(RuntimeWarning, match="sweep cap after 1 sweeps"):
            train_source(source_bags, iota=10, c=1.0, seed=0)

    def test_capped_warnings_name_seed_and_bag_count(self, monkeypatch):
        # distinct texts, so the default filter does not fold repeated calls into one line
        import dtmil.learn
        from dtmil import solve_box_qp

        monkeypatch.setattr(
            dtmil.learn, "solve_box_qp",
            lambda prob, init=None: solve_box_qp(prob, init=init, max_sweeps=1),
        )
        source_bags, _ = generate_synthetic(SynthConfig(), seed=0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            for seed in (0, 1, 2):
                train_source(source_bags, iota=10, c=1.0, seed=seed)
        messages = [str(w.message) for w in caught]
        assert len(messages) == 3
        for seed, message in zip((0, 1, 2), messages):
            assert message.endswith(f"without converging (seed {seed}, {len(source_bags)} bags)")

    def test_single_class_rejected(self):
        with pytest.raises(InvalidInputError):
            train_source([bag([1, 2], label=1)], iota=1, c=1.0, seed=0)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("iota", 2.5),
            ("iota", True),
            ("iota", 0),
            ("c", "1"),
            ("c", True),
            ("c", float("inf")),
            ("c", 0.0),
            ("seed", 1.5),
            ("seed", -1),
            ("seed", True),
        ],
    )
    def test_arguments_follow_hyperparams_rules(self, name, value):
        bags = [bag([1, 2], label=1, bag_id="p"), bag([2, 1], label=-1, bag_id="n")]
        with pytest.raises(InvalidInputError):
            train_source(bags, **{"iota": 1, "c": 1.0, "seed": 0, name: value})

    def test_shapes(self):
        rng = np.random.default_rng(11)
        bags = [
            Bag(id=f"b{i}", label=int(1 if i % 2 else -1), instances=rng.normal(size=(3, 4)))
            for i in range(6)
        ]
        model = train_source(bags, iota=5, c=0.5, seed=3)
        assert model.phi.size == 5 and model.v.shape == (5,)


def scaled(bags, factor):
    return [Bag(id=b.id, instances=b.instances * factor, label=b.label) for b in bags]


class TestLargeScaleFeatures:
    """Instances scaled x100 give Grams with entries near 1e6, whose
    eigenvalues round slightly below zero; the dual must still solve them."""

    def test_train_source_on_scaled_default_source(self):
        source, _ = generate_synthetic(SynthConfig(), 0)
        model = train_source(scaled(source, 100.0), iota=10, c=1.0, seed=0)
        assert np.isfinite(model.v).all() and np.any(model.v != 0.0)

    def test_fit_dtc_on_scaled_target(self):
        source, target = generate_synthetic(SynthConfig(), 0)
        model, report = fit_dtc(
            scaled(target, 100.0)[:40],
            train_source(source, iota=10, c=1.0, seed=0),
            Hyperparams(max_outer=2, inner_iters=2),
        )
        assert np.isfinite(model.w).all()
        assert report.dual_values[-1] >= report.warm_start_dual_values[-1]
