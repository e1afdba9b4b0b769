"""Tests for core types, embedding, bag batches, scoring and the primal objective."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dtmil.core as core
from dtmil import (
    AdaptedModel,
    Bag,
    BagBatch,
    Dictionary,
    DualProblem,
    Hyperparams,
    InvalidInputError,
    SourceModel,
    SynthConfig,
    codeword_gradient,
    codeword_objective,
    dual_value,
    embed_bag,
    fit_dtc,
    generate_synthetic,
    init_dictionary,
    kkt_residual,
    load_dataset,
    predict,
    primal_objective,
    recover_w,
    run_protocol,
    save_dataset,
    score_source,
    score_target,
    solve_box_qp,
    split_folds,
    sweep,
    train_source,
    update_codeword,
)


def bag(*rows, label=None, bag_id="b"):
    return Bag(id=bag_id, instances=np.array(rows, dtype=float), label=label)


class TestTypes:
    def test_bag_rejects_empty(self):
        with pytest.raises(InvalidInputError):
            Bag(id="e", instances=np.zeros((0, 2)))

    def test_bag_rejects_nan(self):
        with pytest.raises(InvalidInputError):
            bag([1.0, np.nan])

    def test_bag_rejects_bad_label(self):
        with pytest.raises(InvalidInputError):
            bag([1.0], label=2)

    def test_bag_arrays_are_frozen(self):
        b = bag([1.0, 2.0])
        with pytest.raises(ValueError):
            b.instances[0, 0] = 5.0

    def test_constructors_leave_caller_arrays_writable(self):
        instances, codewords, v, w = np.ones((2, 2)), np.eye(2), np.ones(2), np.ones(2)
        Bag(id="a", instances=instances)
        phi = Dictionary(codewords=codewords)
        source = SourceModel(phi=phi, v=v)
        AdaptedModel(source=source, psi=phi, w=w, hyper=Hyperparams())
        for arr in (instances, codewords, v, w):
            assert arr.flags.writeable
            arr[0] = 5.0
        assert np.array_equal(phi.codewords, np.eye(2)) and np.array_equal(source.v, np.ones(2))

    def test_dictionary_dimensions(self):
        d = Dictionary(codewords=[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        assert d.size == 3 and d.dim == 2

    def test_source_model_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            SourceModel(phi=Dictionary(codewords=[[1.0, 0.0]]), v=[1.0, 2.0])

    @pytest.mark.parametrize("psi, w, message", [
        ([[1.0, 0.0, 0.0]], [1.0], "^transfer dictionary dimension 3 does not match source dimension 2$"),
        ([[1.0, 0.0]], [1.0, 2.0], "^adaptation weight length 2 does not match dictionary size 1$"),
    ], ids=["psi-dimension", "w-length"])
    def test_adapted_model_shape_mismatch(self, psi, w, message):
        source = SourceModel(phi=Dictionary(codewords=[[1.0, 0.0]]), v=[1.0])
        with pytest.raises(InvalidInputError, match=message):
            AdaptedModel(source=source, psi=Dictionary(codewords=psi), w=w, hyper=Hyperparams())

    @pytest.mark.parametrize("field,value", [
        ("c1", 0.0), ("c1", -1.0), ("c2", 0.0), ("eta", 0.0), ("tol", 0.0),
        ("kappa", 0), ("inner_iters", -1), ("max_outer", -1), ("seed", -1),
    ])
    def test_hyperparams_validation(self, field, value):
        with pytest.raises(InvalidInputError):
            Hyperparams(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("c1", True), ("c2", True), ("eta", True), ("tol", True),
        ("kappa", True), ("inner_iters", True), ("max_outer", False), ("seed", False),
    ])
    def test_hyperparams_rejects_booleans(self, field, value):
        # each value would pass as the integer 0 or 1
        with pytest.raises(InvalidInputError):
            Hyperparams(**{field: value})

    def test_hyperparams_degenerate_budgets_are_legal(self):
        Hyperparams(inner_iters=0, max_outer=0)


def _scalar_sites():
    # (where, call taking the value under test, a value of the right type but
    # out of range, or None where every finite real is in range)
    pair = [Bag(id="p", label=1, instances=[[1.0, 2.0]]), Bag(id="n", label=-1, instances=[[2.0, 1.0]])]
    prob = DualProblem(features=[[1.0]], margins=[1.0], labels=[1], c1=1.0)
    tiny = SynthConfig(d=2, bags_per_class_source=1, bags_per_class_target=1)
    sites = [
        (f"Hyperparams.{name}", lambda v, name=name: Hyperparams(**{name: v}), bad)
        for name, bad in [("c1", 0.0), ("c2", -1.0), ("eta", 0.0), ("tol", 0.0), ("kappa", 0),
                          ("inner_iters", -1), ("max_outer", -1), ("seed", -1)]
    ]
    sites += [
        (f"SynthConfig.{name}", lambda v, name=name: SynthConfig(**{name: v}), bad)
        for name, bad in [("d", 0), ("bags_per_class_source", 0), ("bags_per_class_target", 0),
                          ("witness_rate", 1.5), ("cluster_separation", 0.0),
                          ("noise_sigma", -0.1), ("shift_translation", (1.0, 2.0))]
    ]
    return sites + [
        ("SynthConfig.instances_per_bag min", lambda v: SynthConfig(instances_per_bag=(v, 9)), 0),
        ("SynthConfig.instances_per_bag max", lambda v: SynthConfig(instances_per_bag=(5, v)), 4),
        ("SynthConfig.shift_rotation_degrees",
         lambda v: SynthConfig(d=1, shift_rotation_degrees=v), 10.0),
        ("SynthConfig.shift_translation entry", lambda v: SynthConfig(shift_translation=[v] * 10), None),
        ("generate_synthetic seed", lambda v: generate_synthetic(tiny, v), -1),
        ("init_dictionary size", lambda v: init_dictionary(BagBatch(pair), v, 0), 0),
        ("init_dictionary seed", lambda v: init_dictionary(BagBatch(pair), 1, v), -1),
        ("train_source iota", lambda v: train_source(pair, v, 1.0, 0), 0),
        ("train_source c", lambda v: train_source(pair, 1, v, 0), 0.0),
        ("train_source seed", lambda v: train_source(pair, 1, 1.0, v), -1),
        ("DualProblem.c1", lambda v: DualProblem(features=[[1.0]], margins=[1.0], labels=[1], c1=v), 0.0),
        ("solve_box_qp max_sweeps", lambda v: solve_box_qp(prob, max_sweeps=v), -1),
        ("split_folds k", lambda v: split_folds(pair, v, 0), 1),
        ("split_folds seed", lambda v: split_folds(pair, 2, v), -1),
    ]


class TestScalarRules:
    """Every scalar argument goes through core's integer or real rule, so a
    bool, a string, None, a non-finite or an out-of-range value raises
    InvalidInputError, never a TypeError or a silent coercion."""

    @pytest.mark.parametrize("call, value", [
        pytest.param(call, value, id=f"{where}={value!r:.8}")
        for where, call, out_of_range in _scalar_sites()
        for value in [True, "1", None, math.nan, math.inf, -math.inf, -(10**400)]
        + ([] if out_of_range is None else [out_of_range])
    ])
    def test_rejected_as_invalid_input(self, call, value):
        with pytest.raises(InvalidInputError):
            call(value)

    def test_message_names_the_argument_and_value(self):
        with pytest.raises(InvalidInputError, match=r"^c1 must be a positive finite real, got True$"):
            DualProblem(features=[[1.0]], margins=[1.0], labels=[1], c1=True)
        with pytest.raises(InvalidInputError, match=r"^kappa must be an integer >= 1, got '1'$"):
            Hyperparams(kappa="1")
        with pytest.raises(InvalidInputError, match=r"^noise_sigma must be a finite real >= 0, got nan$"):
            SynthConfig(noise_sigma=math.nan)
        # an int beyond float range is not finite, and does not overflow the check
        with pytest.raises(InvalidInputError, match=r"^c1 must be a positive finite real, got 1000"):
            Hyperparams(c1=10**400)

    def test_in_range_values_pass_unchanged(self):
        hyper = Hyperparams(c1=2, c2=0.5, kappa=1, inner_iters=0, max_outer=0, seed=0)
        assert hyper.c1 == 2 and type(hyper.c1) is int
        assert DualProblem(features=[[1.0]], margins=[1.0], labels=[1], c1=2).c1 == 2.0
        assert SynthConfig(noise_sigma=0, shift_rotation_degrees=-30).noise_sigma == 0


def _array_sites():
    # (where, the name its error gives the array, ndim, call taking the
    # array under test); every other argument is valid and has size 1, so
    # only the array rule can reject a bad value
    one = Dictionary(codewords=[[1.0]])
    source = SourceModel(phi=one, v=[1.0])
    prob = DualProblem(features=[[1.0]], margins=[1.0], labels=[1], c1=1.0)
    batch = BagBatch([Bag(id="a", instances=[[1.0]], label=1)])
    return [
        ("Bag.instances", "bag 'a' instances", 2, lambda x: Bag(id="a", instances=x)),
        ("Dictionary.codewords", "dictionary codewords", 2, lambda x: Dictionary(codewords=x)),
        ("SourceModel.v", "source classifier v", 1, lambda x: SourceModel(phi=one, v=x)),
        ("AdaptedModel.w", "adaptation weights w", 1,
         lambda x: AdaptedModel(source=source, psi=one, w=x, hyper=Hyperparams(kappa=1))),
        ("DualProblem.features", "features", 2,
         lambda x: DualProblem(features=x, margins=[1.0], labels=[1], c1=1.0)),
        ("DualProblem.margins", "margins", 1,
         lambda x: DualProblem(features=[[1.0]], margins=x, labels=[1], c1=1.0)),
        ("dual_value beta", "beta", 1, lambda x: dual_value(x, prob)),
        ("recover_w beta", "beta", 1, lambda x: recover_w(x, prob)),
        ("kkt_residual beta", "beta", 1, lambda x: kkt_residual(x, prob)),
        ("solve_box_qp init", "beta", 1, lambda x: solve_box_qp(prob, init=x)),
        ("predict", "scores", 1, predict),
        ("update_codeword beta", "beta", 1,
         lambda x: update_codeword(one, batch, x, [1], Hyperparams(kappa=1, inner_iters=1))),
        ("codeword_objective psi_k", "psi_k", 1, lambda x: codeword_objective(x, [1.0], 1.0, 1.0)),
        ("codeword_objective u", "u", 1, lambda x: codeword_objective([1.0], x, 1.0, 1.0)),
        ("codeword_gradient psi_k", "psi_k", 1, lambda x: codeword_gradient(x, [1.0], 1.0, 1.0)),
        ("codeword_gradient u", "u", 1, lambda x: codeword_gradient([1.0], x, 1.0, 1.0)),
        ("BagBatch.argmax codewords", "codewords", 2, batch.argmax),
    ]


# (what, its 2-D form, its 1-D form)
_BAD_ARRAYS = [
    ("str", [["1.5"]], ["1.5"]),
    ("bool", [[True]], [True]),
    ("None", [[None]], [None]),
    ("int beyond float range", [[10**400]], [10**400]),
    ("ragged", [[1.0, 2.0], [3.0]], [1.0, [2.0]]),
    ("scalar row", [[1.0], 2.0], 1.0),
    ("complex ndarray", np.array([[1 + 2j]]), np.array([1 + 2j])),
]


class TestArrayRule:
    """Every float array, built in memory or decoded from a file, goes
    through core's one array rule: a bool, a string, None, a complex value,
    an int beyond float range, a ragged row or a scalar row raises
    InvalidInputError naming the array, never a numpy error, a warning or a
    silent coercion."""

    @pytest.mark.parametrize("name, call, value", [
        pytest.param(name, call, two_d if ndim == 2 else one_d, id=f"{where}-{what}")
        for where, name, ndim, call in _array_sites()
        for what, two_d, one_d in _BAD_ARRAYS
    ])
    def test_rejected_as_invalid_input(self, name, call, value):
        with pytest.raises(InvalidInputError, match=f"^{name} "):
            call(value)

    def test_numpy_scalars_and_ndarray_rows_pass(self):
        rows = [np.array([1, 2], dtype=np.int32), [np.float32(0.5), np.int64(-3)]]
        assert Dictionary(codewords=rows).codewords.tolist() == [[1.0, 2.0], [0.5, -3.0]]
        assert predict([np.float64(-1.0), 2]).tolist() == [-1, 1]

    @pytest.mark.parametrize("labels", [[True, -1], np.array([True, True])])
    def test_dual_problem_labels_follow_the_label_rule(self, labels):
        with pytest.raises(InvalidInputError, match="labels"):
            DualProblem(features=np.eye(2), margins=[1.0, 1.0], labels=labels, c1=1.0)

    def test_update_codeword_labels_follow_the_label_rule(self):
        batch = BagBatch([Bag(id=f"b{i}", instances=[[1.0, float(i)]]) for i in range(4)])
        psi = Dictionary(codewords=[[1.0, 0.0]])
        with pytest.raises(InvalidInputError, match="^labels must be \\+1 or -1$"):
            update_codeword(psi, batch, [0.1] * 4, [5, 5, 5, 5], Hyperparams(kappa=1))

    def test_non_finite_beta_is_blamed_on_beta(self):
        batch = BagBatch([Bag(id="a", instances=[[1.0]])])
        psi = Dictionary(codewords=[[1.0]])
        with pytest.raises(InvalidInputError, match="^beta contains non-finite entries$"):
            update_codeword(psi, batch, [math.nan], [1], Hyperparams(kappa=1))

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_codewords_are_rejected_by_argmax(self, value):
        batch = BagBatch([Bag(id="a", instances=[[1.0, 2.0], [3.0, 4.0]])])
        with pytest.raises(InvalidInputError, match="^codewords contains non-finite entries$"):
            batch.argmax([[value, 0.0]])


def _match_sites():
    # (where, call taking a scratch directory tmp, the one error it must
    # raise, formatted with tmp): each call gives one size that does not match
    # another, every other argument valid, so only core's size rule rejects it
    line = bag([1.0, 2.0])
    batch = BagBatch([line, bag([3.0, 4.0])])
    phi = Dictionary(codewords=[[1.0, 0.0]])
    source = SourceModel(phi=phi, v=[1.0])
    two = [Bag(id=f"{i}", label=1 - 2 * (i % 2), instances=[[1.0, 2.0]]) for i in range(2)]
    three = [Bag(id=f"{i}", label=1 - 2 * (i % 2), instances=[[1.0, 2.0, 3.0]]) for i in range(2)]
    prob = DualProblem(features=[[1.0]], margins=[1.0], labels=[1], c1=1.0)
    hyper = Hyperparams(kappa=1, inner_iters=1)

    def load(tmp):
        path = tmp / "mixed.jsonl"
        path.write_text('{"id": "a", "label": 1, "instances": [[1.0, 2.0]]}\n'
                        '{"id": "b", "label": 1, "instances": [[1.0, 2.0, 3.0]]}\n')
        load_dataset(str(path))

    return [
        ("SourceModel v", lambda tmp: SourceModel(phi=phi, v=[1.0, 2.0]),
         "classifier length 2 does not match dictionary size 1"),
        ("AdaptedModel w", lambda tmp: AdaptedModel(source=source, psi=phi, w=[1.0, 2.0], hyper=hyper),
         "adaptation weight length 2 does not match dictionary size 1"),
        ("AdaptedModel psi", lambda tmp: AdaptedModel(
            source=source, psi=Dictionary(codewords=[[1.0, 0.0, 0.0]]), w=[1.0], hyper=hyper),
         "transfer dictionary dimension 3 does not match source dimension 2"),
        ("BagBatch bags", lambda tmp: BagBatch([line, bag([1.0, 2.0, 3.0], bag_id="c")]),
         "bag 'c' dimension 3 does not match first bag dimension 2"),
        ("BagBatch.embed", lambda tmp: batch.embed(Dictionary(codewords=[[1.0, 0.0, 0.0]])),
         "bag dimension 2 does not match dictionary dimension 3"),
        ("BagBatch.argmax", lambda tmp: batch.argmax([[1.0, 0.0, 0.0]]),
         "codeword dimension 3 does not match bag dimension 2"),
        ("codeword_objective", lambda tmp: codeword_objective([1.0, 2.0], [1.0, 2.0, 3.0], 1.0, 1.0),
         "psi_k length 2 does not match u length 3"),
        ("codeword_gradient", lambda tmp: codeword_gradient([1.0, 2.0, 3.0], [1.0], 1.0, 1.0),
         "psi_k length 3 does not match u length 1"),
        ("update_codeword psi", lambda tmp: update_codeword(
            Dictionary(codewords=[[1.0, 0.0, 0.0]]), batch, [0.1, 0.1], [1, -1], hyper),
         "dictionary dimension 3 does not match bag dimension 2"),
        ("update_codeword beta", lambda tmp: update_codeword(phi, batch, [0.1], [1, -1], hyper),
         "beta length 1 does not match bag count 2"),
        ("update_codeword labels", lambda tmp: update_codeword(phi, batch, [0.1, 0.1], [1, -1, 1], hyper),
         "labels length 3 does not match bag count 2"),
        ("DualProblem margins", lambda tmp: DualProblem(features=[[1.0]], margins=[1.0, 1.0], labels=[1], c1=1.0),
         "margins length 2 does not match feature rows 1"),
        ("DualProblem labels", lambda tmp: DualProblem(features=[[1.0]], margins=[1.0], labels=[1, -1], c1=1.0),
         "labels length 2 does not match feature rows 1"),
        ("dual_value beta", lambda tmp: dual_value([0.5, 0.5], prob),
         "beta length 2 does not match problem size 1"),
        ("load_dataset", load, "{tmp}/mixed.jsonl:2: bag 'b' dimension 3 does not match first bag dimension 2"),
        ("save_dataset", lambda tmp: save_dataset([two[0], three[1]], str(tmp / "out.jsonl")),
         "bag '1' dimension 3 does not match first bag dimension 2"),
        ("SynthConfig shift_translation", lambda tmp: SynthConfig(d=2, shift_translation=(1.0, 2.0, 3.0)),
         "shift_translation length 3 does not match d 2"),
        ("run_protocol", lambda tmp: run_protocol(two, three, hyper, k=2),
         "target dimension 3 does not match source dimension 2"),
        ("run_protocol source_model", lambda tmp: run_protocol([], three, hyper, k=2, source_model=source),
         "target dimension 3 does not match source dimension 2"),
        ("sweep", lambda tmp: sweep(three, two, hyper, [1.0], [1.0], k=2),
         "target dimension 2 does not match source dimension 3"),
        ("fit_dtc", lambda tmp: fit_dtc(three, source, hyper),
         "target training set dimension 3 does not match source dictionary dimension 2"),
        ("run_protocol source set", lambda tmp: run_protocol([two[0], three[1]], two, hyper, k=2),
         "source set bag '1' dimension 3 does not match first bag dimension 2"),
        ("sweep source set", lambda tmp: sweep([two[0], three[1]], two, hyper, [1.0], [1.0], k=2),
         "source set bag '1' dimension 3 does not match first bag dimension 2"),
    ]


class TestMatchRule:
    """Every pair of sizes that must agree goes through core's one size
    rule, so a mismatch raises InvalidInputError in one form, naming both
    sides and both values; a file adds its path and line."""

    @pytest.mark.parametrize("call, message", [
        pytest.param(call, message, id=where) for where, call, message in _match_sites()
    ])
    def test_one_form_names_both_sides(self, tmp_path, call, message):
        with pytest.raises(InvalidInputError) as caught:
            call(tmp_path)
        assert str(caught.value) == message.format(tmp=tmp_path)
        assert {path.name for path in tmp_path.iterdir()} <= {"mixed.jsonl"}  # nothing written


class TestEmbedBag:
    def test_single_instance_basis_codewords(self):
        assert embed_bag(bag([1.0, 2.0]), Dictionary(codewords=[[1, 0], [0, 1]])).tolist() == [1.0, 2.0]

    def test_tied_dot_products(self):
        assert embed_bag(bag([1.0, 0.0], [0.0, 1.0]), Dictionary(codewords=[[1, 1]])).tolist() == [1.0]

    def test_max_over_instances(self):
        # dots with [1, 1] are 1 and 2; the max wins
        assert embed_bag(bag([2.0, -1.0], [-1.0, 3.0]), Dictionary(codewords=[[1, 1]])).tolist() == [2.0]

    def test_dimension_mismatch_names_both(self):
        with pytest.raises(InvalidInputError, match="dimension 2.*dimension 3"):
            embed_bag(bag([1.0, 2.0]), Dictionary(codewords=[[1.0, 0.0, 0.0]]))

    def test_length_equals_dictionary_size(self):
        d = Dictionary(codewords=np.eye(4)[:3])
        assert embed_bag(bag([1.0, 2.0, 3.0, 4.0][:4]), d).shape == (3,)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_monotone_under_instance_addition(self, data):
        d = data.draw(st.integers(1, 6))
        m = data.draw(st.integers(1, 6))
        k = data.draw(st.integers(1, 4))
        vals = st.floats(-100, 100, allow_nan=False)
        rows = data.draw(st.lists(st.lists(vals, min_size=d, max_size=d), min_size=m, max_size=m))
        extra = data.draw(st.lists(vals, min_size=d, max_size=d))
        words = data.draw(st.lists(st.lists(vals, min_size=d, max_size=d), min_size=k, max_size=k))
        dictionary = Dictionary(codewords=np.array(words))
        smaller = embed_bag(bag(*rows), dictionary)
        larger = embed_bag(bag(*rows, extra), dictionary)
        assert np.all(larger >= smaller)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_permutation_invariance(self, data):
        d = data.draw(st.integers(1, 6))
        m = data.draw(st.integers(1, 8))
        vals = st.floats(-100, 100, allow_nan=False)
        rows = data.draw(st.lists(st.lists(vals, min_size=d, max_size=d), min_size=m, max_size=m))
        perm = data.draw(st.permutations(range(m)))
        word = data.draw(st.lists(vals, min_size=d, max_size=d))
        dictionary = Dictionary(codewords=np.array([word]))
        original = embed_bag(bag(*rows), dictionary)
        shuffled = embed_bag(bag(*[rows[i] for i in perm]), dictionary)
        assert np.array_equal(original, shuffled)

    def test_positive_homogeneity_per_codeword(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            d, m = rng.integers(1, 8), rng.integers(1, 8)
            instances = rng.normal(size=(m, d)) * 10
            words = rng.normal(size=(3, d))
            c = float(rng.uniform(0.01, 100.0))
            scaled = words.copy()
            scaled[1] *= c
            before = embed_bag(Bag(id="h", instances=instances), Dictionary(codewords=words))
            after = embed_bag(Bag(id="h", instances=instances), Dictionary(codewords=scaled))
            np.testing.assert_allclose(after[1], c * before[1], rtol=1e-9, atol=1e-9)
            assert after[0] == before[0] and after[2] == before[2]


class TestBagBatch:
    def test_offsets_and_read_only_instances(self):
        batch = BagBatch([bag([1, 2], [3, 4]), bag([5, 6]), bag([7, 8], [9, 0], [1, 1])])
        assert len(batch) == 3 and batch.dim == 2
        assert batch.starts.tolist() == [0, 2, 3]
        assert batch.counts.tolist() == [2, 1, 3]
        assert batch.instances.shape == (6, 2)
        for arr in (batch.instances, batch.starts, batch.counts):
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_frozen(self):
        batch = BagBatch([bag([1.0])])
        with pytest.raises(AttributeError):
            batch.starts = np.zeros(1, dtype=int)

    def test_rejects_empty_and_mixed_dimensions(self):
        with pytest.raises(InvalidInputError):
            BagBatch([])
        with pytest.raises(InvalidInputError, match="^bag 'b' dimension 3 does not match first bag dimension 2$"):
            BagBatch([bag([1.0, 2.0]), bag([1.0, 2.0, 3.0])])

    def test_embed_holds_one_codewords_dots(self, traced_peak):
        rng = np.random.default_rng(3)
        batch = BagBatch(
            [Bag(id=f"b{i}", instances=rng.normal(size=(int(rng.integers(40, 81)), 10))) for i in range(200)]
        )
        words = Dictionary(codewords=rng.normal(size=(50, 10)))
        peak = traced_peak(batch.embed, words)
        # all K x M codeword-instance dots at once would be K * M * 8 bytes
        assert peak < 50 * batch.instances.shape[0] * 8 / 2

    def test_embed_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            BagBatch([bag([1.0, 2.0])]).embed(Dictionary(codewords=[[1.0, 0.0, 0.0]]))


def _embed_case(rng, kind):
    # (batch, codewords) of one kind: Gaussian; small nonzero integers, whose
    # dots tie often, at the top too; one instance a bag; instances near the
    # largest float whose dots overflow to +-inf, each instance's entries of
    # one sign; and the same with mixed signs, whose dots can be inf - inf
    d, n = int(rng.integers(1, 12)), int(rng.integers(1, 40))
    counts = np.ones(n, dtype=int) if kind == "single" else rng.integers(1, 9, size=n)
    words = rng.normal(size=(int(rng.integers(1, 30)), d))
    rows = []
    for count in counts:
        x = rng.normal(size=(count, d))
        if kind == "ties":
            x = rng.choice([-3.0, -2.0, -1.0, 1.0, 2.0, 3.0], size=(count, d))
        elif kind == "overflow":
            x = np.abs(x) * rng.choice([1e306, -1e306], size=(count, 1))
        elif kind == "nan":
            x = x * 1e306
        rows.append(x)
    if kind == "ties":
        words = rng.choice([-2.0, -1.0, 1.0, 2.0], size=words.shape)
    elif kind in ("overflow", "nan"):
        words = np.abs(words) * 100.0
    return BagBatch([Bag(id=f"b{i}", instances=x) for i, x in enumerate(rows)]), words


class TestEmbedThroughArgmax:
    """``BagBatch.embed`` takes each feature as the row-wise dot of the
    certified argmax instance, over blocks of codewords: the bits of the
    row-wise maximum of every dot, on any BLAS, and one pass gives the
    argmax's picks too."""

    @pytest.mark.parametrize("kind", ["gaussian", "ties", "single", "overflow", "nan"])
    def test_matches_the_row_wise_maximum_bit_for_bit(self, kind, monkeypatch):
        rng = np.random.default_rng(["gaussian", "ties", "single", "overflow", "nan"].index(kind))
        seen_nan = seen_inf = 0
        for case in range(40):
            batch, words = _embed_case(rng, kind)
            # blocks of 1, 3 and 7 codewords (K need not be a multiple), or all at once
            per_block = [1, 3, 7, words.shape[0]][case % 4]
            monkeypatch.setattr(core, "_EMBED_CELLS", per_block * batch.instances.shape[0])
            with np.errstate(over="ignore", invalid="ignore"):
                features = batch.embed(Dictionary(codewords=words))
                reference = np.stack(
                    [np.maximum.reduceat(core._instance_dots(batch.instances, w), batch.starts) for w in words], axis=1
                )
            assert features.flags.c_contiguous and features.shape == reference.shape
            # NaN where the reference is NaN, and every other entry bit for bit;
            # the sign bit np.maximum gives a NaN depends on where it sits and
            # on the segment's length, and no output file holds a NaN
            nan = np.isnan(reference)
            assert np.array_equal(np.isnan(features), nan), (kind, case)
            assert features[~nan].tobytes() == reference[~nan].tobytes(), (kind, case)
            seen_nan += np.isnan(features).sum()
            seen_inf += np.isinf(features).sum()
        assert (seen_nan > 0) == (kind == "nan") and (seen_inf > 0) == (kind in ("overflow", "nan"))

    @pytest.mark.parametrize("kind", ["gaussian", "ties", "single", "overflow"])
    def test_picks_are_the_argmaxs(self, kind, monkeypatch):
        rng = np.random.default_rng(10)
        for case in range(20):
            batch, words = _embed_case(rng, kind)
            monkeypatch.setattr(core, "_EMBED_CELLS", (1 + case % 5) * batch.instances.shape[0])
            with np.errstate(over="ignore", invalid="ignore"):
                picks = batch._embed(words)[1]
                assert np.array_equal(picks, batch.argmax(words)), (kind, case)

    def test_a_nan_dot_embeds_as_nan_and_still_fails_the_argmax(self):
        batch = BagBatch([Bag(id="b", instances=[[1.0, 1.0], [1e308, -1e308], [2.0, 0.0]])])
        words = Dictionary(codewords=[[10.0, 10.0], [1.0, 0.0]])
        with np.errstate(over="ignore", invalid="ignore"):
            features = batch.embed(words)
            assert np.isnan(features[0, 0]) and features[0, 1] == 1e308
            with pytest.raises(InvalidInputError, match="codeword 0 has a NaN dot product"):
                batch.argmax(words.codewords)


class TestScoring:
    def test_zero_weights_score_zero(self):
        model = SourceModel(phi=Dictionary(codewords=[[1, 0], [0, 1]]), v=[0.0, 0.0])
        assert score_source(BagBatch([bag([3.0, -2.0])]), model)[0] == 0.0

    def test_single_word(self):
        model = SourceModel(phi=Dictionary(codewords=[[1.0, 0.0]]), v=[2.0])
        assert score_source(BagBatch([bag([1.0, 0.0])]), model)[0] == 2.0

    def test_opposing_weights_cancel(self):
        model = SourceModel(phi=Dictionary(codewords=[[1, 0], [0, 1]]), v=[1.0, -1.0])
        assert score_source(BagBatch([bag([1.0, 0.0], [0.0, 1.0])]), model)[0] == 0.0

    def test_target_equals_source_when_w_zero(self):
        source = SourceModel(phi=Dictionary(codewords=[[1, 0], [0, 1]]), v=[0.4, -1.2])
        adapted = AdaptedModel(source=source, psi=Dictionary(codewords=[[1.0, 1.0]]),
                               w=[0.0], hyper=Hyperparams())
        rng = np.random.default_rng(0)
        for _ in range(20):
            b = BagBatch([Bag(id="r", instances=rng.normal(size=(rng.integers(1, 6), 2)))])
            assert score_target(b, adapted)[0] == score_source(b, source)[0]

    def test_target_adds_adaptation_term(self):
        source = SourceModel(phi=Dictionary(codewords=[[1.0, 0.0]]), v=[1.0])
        adapted = AdaptedModel(source=source, psi=Dictionary(codewords=[[0.0, 1.0]]),
                               w=[2.0], hyper=Hyperparams())
        # f = 1, adaptation = 2 * 1
        assert score_target(BagBatch([bag([1.0, 1.0])]), adapted)[0] == 3.0

    def test_scores_do_not_depend_on_the_batch(self):
        # scores match an exactly rounded per-bag sum, and each bag gets the same
        # bits alone, in the full batch and permuted
        rng = np.random.default_rng(12)
        for _ in range(20):
            d, iota, kappa = (int(k) for k in rng.integers(1, [9, 41, 41]))
            source = SourceModel(phi=Dictionary(codewords=rng.normal(size=(iota, d))),
                                 v=rng.normal(size=iota))
            adapted = AdaptedModel(source=source, psi=Dictionary(codewords=rng.normal(size=(kappa, d))),
                                   w=rng.normal(size=kappa), hyper=Hyperparams())
            bags = [Bag(id=f"b{i}", instances=rng.normal(size=(rng.integers(1, 9), d)))
                    for i in range(50)]
            perm = rng.permutation(len(bags))
            reference = np.array([
                math.fsum(source.v * embed_bag(b, source.phi)) for b in bags
            ])
            np.testing.assert_allclose(score_source(BagBatch(bags), source), reference,
                                       rtol=0, atol=1e-12)
            for score, model in ((score_source, source), (score_target, adapted)):
                full = score(BagBatch(bags), model)
                alone = np.array([score(BagBatch([b]), model)[0] for b in bags])
                assert np.array_equal(alone, full)
                assert np.array_equal(score(BagBatch([bags[i] for i in perm]), model), full[perm])


class TestPredict:
    @pytest.mark.parametrize("score,label", [(0.3, 1), (-2.0, -1), (0.0, 1)])
    def test_sign_with_tie_break(self, score, label):
        assert predict(np.array([score])).tolist() == [label]

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            predict(np.array([1.0, float("nan")]))


def hinge_only_objective(score, label):
    # one bag whose source score is exactly ``score``, w = 0 and a zero
    # codeword, so the primal objective is the bag's hinge loss alone
    source = SourceModel(phi=Dictionary(codewords=[[1.0]]), v=[score])
    model = AdaptedModel(source=source, psi=Dictionary(codewords=[[0.0]]),
                         w=[0.0], hyper=Hyperparams())
    return primal_objective([bag([1.0], label=label)], model)


class TestHingeLoss:
    """The hinge term max(0, 1 - label * score) of the primal objective."""

    @pytest.mark.parametrize("score,label,expected", [
        (2.0, 1, 0.0), (0.5, 1, 0.5), (-1.0, -1, 0.0), (0.0, 1, 1.0), (-1.0, 1, 2.0),
    ])
    def test_values(self, score, label, expected):
        assert hinge_only_objective(score, label) == expected

    @given(st.floats(-1e6, 1e6), st.sampled_from([1, -1]))
    def test_nonnegative_and_zero_iff_margin_met(self, score, label):
        loss = hinge_only_objective(score, label)
        assert loss >= 0.0
        assert (loss == 0.0) == (label * score >= 1.0)


class TestPrimalObjective:
    def test_only_dictionary_regularizer_survives(self):
        # source classifies with margin >= 1, w = 0, one unit codeword
        source = SourceModel(phi=Dictionary(codewords=[[1.0]]), v=[1.0])
        model = AdaptedModel(source=source, psi=Dictionary(codewords=[[1.0]]),
                             w=[0.0], hyper=Hyperparams(c1=1.0, c2=1.0))
        train = [bag([2.0], label=1, bag_id="p"), bag([-3.0], label=-1, bag_id="n")]
        assert primal_objective(train, model) == 0.5

    def test_sum_of_three_known_terms(self):
        # hinge 0.4 (f = 0.6 on a positive bag), (c1/2)||w||^2 = 1, zero codeword
        source = SourceModel(phi=Dictionary(codewords=[[1.0, 0.0]]), v=[0.6])
        model = AdaptedModel(source=source, psi=Dictionary(codewords=[[0.0, 0.0]]),
                             w=[1.0], hyper=Hyperparams(c1=2.0, c2=1.0))
        train = [bag([1.0, 0.0], label=1)]
        np.testing.assert_allclose(primal_objective(train, model), 1.4, rtol=0, atol=1e-15)

    def test_empty_training_set_rejected(self):
        source = SourceModel(phi=Dictionary(codewords=[[1.0]]), v=[1.0])
        model = AdaptedModel(source=source, psi=Dictionary(codewords=[[1.0]]),
                             w=[0.0], hyper=Hyperparams())
        with pytest.raises(InvalidInputError):
            primal_objective([], model)

    def test_unlabeled_bag_rejected(self):
        source = SourceModel(phi=Dictionary(codewords=[[1.0]]), v=[1.0])
        model = AdaptedModel(source=source, psi=Dictionary(codewords=[[1.0]]),
                             w=[0.0], hyper=Hyperparams())
        with pytest.raises(InvalidInputError):
            primal_objective([bag([1.0])], model)

    def test_hinges_use_the_scores_of_score_target(self):
        # bit for bit, so the primal judges the scores accuracy judges; one
        # bag at a time, since a mean can round an ulp of one score away
        _, bags = generate_synthetic(SynthConfig(), seed=24)
        rng = np.random.default_rng(0)
        source = SourceModel(phi=Dictionary(codewords=rng.normal(size=(20, 10))), v=rng.normal(size=20))
        model = AdaptedModel(source=source, psi=Dictionary(codewords=rng.normal(size=(20, 10))),
                             w=rng.normal(size=20), hyper=Hyperparams(c1=0.7, c2=1.3))
        for train in [[bag] for bag in bags] + [bags]:
            labels = np.array([bag.label for bag in train])
            hinges = np.maximum(0.0, 1.0 - labels * score_target(BagBatch(train), model))
            assert primal_objective(train, model) == (
                float(np.mean(hinges))
                + 0.5 * 0.7 * float(model.w @ model.w)
                + 0.5 * 1.3 * float(np.sum(model.psi.codewords**2))
            )

    def test_matches_reference_loop(self):
        rng = np.random.default_rng(11)
        for trial in range(10):
            d, iota, kappa, n = 4, 3, 2, 6
            source = SourceModel(
                phi=Dictionary(codewords=rng.normal(size=(iota, d))),
                v=rng.normal(size=iota),
            )
            hyper = Hyperparams(c1=float(rng.uniform(0.1, 3)), c2=float(rng.uniform(0.1, 3)))
            model = AdaptedModel(
                source=source,
                psi=Dictionary(codewords=rng.normal(size=(kappa, d))),
                w=rng.normal(size=kappa),
                hyper=hyper,
            )
            train = [
                Bag(id=f"b{i}", label=int(rng.choice([1, -1])),
                    instances=rng.normal(size=(rng.integers(1, 5), d)))
                for i in range(n)
            ]

            # independent reference: per-bag hinge summed by hand
            total = 0.0
            for b in train:
                z_phi = [max(float(word @ x) for x in b.instances) for word in source.phi.codewords]
                z_psi = [max(float(word @ x) for x in b.instances) for word in model.psi.codewords]
                g = float(np.dot(source.v, z_phi)) + float(np.dot(model.w, z_psi))
                total += max(0.0, 1.0 - b.label * g)
            expected = (
                total / n
                + 0.5 * hyper.c1 * float(np.dot(model.w, model.w))
                + 0.5 * hyper.c2 * float(np.sum(model.psi.codewords ** 2))
            )
            np.testing.assert_allclose(primal_objective(train, model), expected, rtol=0, atol=1e-12)
