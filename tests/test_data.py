"""Tests for dataset / model serialization and the synthetic generator."""

import json
import os
import stat
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dtmil import (
    AdaptedModel,
    Bag,
    BagBatch,
    DatasetFormatError,
    Dictionary,
    Hyperparams,
    InvalidInputError,
    ModelFormatError,
    SourceModel,
    generate_synthetic,
    load_adapted_model,
    load_dataset,
    load_model,
    load_source_model,
    save_dataset,
    save_model,
    score_target,
)
from dtmil.core import _is_real
from dtmil.data import SynthConfig, _json_reals, write_text_atomic


class TestWriteTextAtomic:
    def test_directory_target_raises_and_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "out"
        target.mkdir()
        with pytest.raises(OSError):
            write_text_atomic(str(target), "text\n")
        assert [p.name for p in tmp_path.iterdir()] == ["out"]
        assert list(target.iterdir()) == []

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
    def test_new_file_mode_follows_umask(self, tmp_path, umask, mode):
        target = tmp_path / "out.txt"
        old = os.umask(umask)
        try:
            write_text_atomic(str(target), "text\n")
        finally:
            os.umask(old)
        assert stat.S_IMODE(target.stat().st_mode) == mode
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


class TestDatasetIO:
    def test_single_record(self, tmp_path):
        path = tmp_path / "one.jsonl"
        path.write_text('{"id":"b1","label":1,"instances":[[1.0,2.0]]}\n')
        bags = load_dataset(str(path))
        assert len(bags) == 1
        assert bags[0].size == 1 and bags[0].dim == 2
        assert bags[0].label == 1

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "blank.jsonl"
        path.write_text('\n{"id":"b1","label":-1,"instances":[[1.0]]}\n\n')
        assert len(load_dataset(str(path))) == 1

    def test_parse_error_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id":"b1","label":1,"instances":[[1.0]]}\nnot json\n')
        with pytest.raises(DatasetFormatError, match=":2"):
            load_dataset(str(path))

    def test_dimension_mix_names_bag(self, tmp_path):
        path = tmp_path / "mix.jsonl"
        path.write_text(
            '{"id":"b1","label":1,"instances":[[1.0,2.0]]}\n'
            '{"id":"b2","label":-1,"instances":[[1.0,2.0,3.0]]}\n'
        )
        with pytest.raises(DatasetFormatError, match="b2"):
            load_dataset(str(path))

    def test_empty_bag_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text('{"id":"b1","label":1,"instances":[]}\n')
        with pytest.raises(DatasetFormatError, match="no instances"):
            load_dataset(str(path))

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        path.write_text(
            '{"id":"b1","label":1,"instances":[[1.0]]}\n'
            '{"id":"b1","label":-1,"instances":[[2.0]]}\n'
        )
        with pytest.raises(DatasetFormatError, match="duplicate"):
            load_dataset(str(path))

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "extra.jsonl"
        path.write_text('{"id":"b1","label":1,"instances":[[1.0]],"note":"x"}\n')
        with pytest.raises(DatasetFormatError, match="note"):
            load_dataset(str(path))

    def test_bad_label_rejected(self, tmp_path):
        path = tmp_path / "label.jsonl"
        path.write_text('{"id":"b1","label":2,"instances":[[1.0]]}\n')
        with pytest.raises(DatasetFormatError, match="label"):
            load_dataset(str(path))

    def test_ragged_instances_rejected(self, tmp_path):
        path = tmp_path / "ragged.jsonl"
        path.write_text('{"id":"b1","label":1,"instances":[[1.0,2.0],[3.0]]}\n')
        with pytest.raises(DatasetFormatError):
            load_dataset(str(path))

    @pytest.mark.parametrize("instances", [
        '[["1.5", "2"]]',
        '[[1, true]]',
        '[[false, 0.5]]',
        '[[1, null]]',
        '[1, 2]',
        '[[1, 2], 3]',
        '[[1, 2], [3]]',
        '[[1' + '0' * 400 + ']]',
    ])
    def test_instances_must_be_rows_of_json_numbers(self, tmp_path, instances):
        path = tmp_path / "numbers.jsonl"
        path.write_text('{"id":"a","label":1,"instances":%s}\n' % instances)
        with pytest.raises(DatasetFormatError, match=":1: bag 'a' instances"):
            load_dataset(str(path))

    def test_non_finite_error_names_the_bag_once(self, tmp_path):
        path = tmp_path / "inf.jsonl"
        path.write_text('{"id":"a","label":1,"instances":[[1e999]]}\n')
        with pytest.raises(DatasetFormatError) as info:
            load_dataset(str(path))
        assert str(info.value) == f"{path}:1: bag 'a' instances contains non-finite entries"

    @pytest.mark.parametrize("text", ["1", "-2.5", "true", "false", "null", '"1"', "[1]", "{}"])
    def test_number_rule_is_core_is_real(self, text):
        value = json.loads(text)
        assert _json_reals([[value]], 2) == _json_reals([value], 1) == _is_real(value)

    def test_round_trip_identity(self, tmp_path):
        rng = np.random.default_rng(0)
        bags = [
            Bag(
                id=f"bag-{i}",
                label=int(rng.choice([1, -1])),
                instances=rng.normal(size=(int(rng.integers(1, 6)), 3)) * 1e3,
            )
            for i in range(10)
        ]
        path = tmp_path / "round.jsonl"
        save_dataset(bags, str(path))
        loaded = load_dataset(str(path))
        assert [b.id for b in loaded] == [b.id for b in bags]
        assert [b.label for b in loaded] == [b.label for b in bags]
        for orig, back in zip(bags, loaded):
            assert np.array_equal(orig.instances, back.instances)

    def test_save_requires_labels(self, tmp_path):
        with pytest.raises(InvalidInputError):
            save_dataset([Bag(id="b", instances=[[1.0]])], str(tmp_path / "x.jsonl"))

    def test_save_shares_the_labeled_check(self, tmp_path):
        with pytest.raises(InvalidInputError, match="^dataset file is empty$"):
            save_dataset([], str(tmp_path / "x.jsonl"))
        with pytest.raises(InvalidInputError, match="^bag 'b' in dataset file is unlabeled$"):
            save_dataset([Bag(id="b", instances=[[1.0]])], str(tmp_path / "x.jsonl"))
        assert not (tmp_path / "x.jsonl").exists()


# candidate bag fields, valid or not: the constructor decides
_IDS = st.one_of(st.text(max_size=6), st.integers(-3, 3), st.none())
_LABELS = st.sampled_from(
    [1, -1, 1.0, -1.0, np.float64(-1.0), True, False, np.int64(1), 0, 2, 0.5, float("nan"), "1", None]
)
_VALUES = st.one_of(st.floats(), st.integers(-(2**70), 2**70))


class TestSavedDatasetLoads:
    """Bag owns the id and label rules, so a dataset that saves also loads."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_every_accepted_bag_round_trips(self, data):
        d = data.draw(st.integers(1, 3))
        rows = st.lists(st.lists(_VALUES, min_size=d, max_size=d), min_size=1, max_size=3)
        bags = {}
        for bag_id, label, instances in data.draw(st.lists(st.tuples(_IDS, _LABELS, rows), min_size=1, max_size=6)):
            try:
                bag = Bag(id=bag_id, label=label, instances=instances)
            except InvalidInputError:
                continue
            # a file needs labels and unique ids, which save_dataset checks
            if bag.label is not None:
                bags.setdefault(bag.id, bag)
        bags = list(bags.values())
        assume(bags)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "bags.jsonl")
            save_dataset(bags, path)
            loaded = load_dataset(path)
        assert [(b.id, b.label, type(b.label)) for b in loaded] == [(b.id, b.label, int) for b in bags]
        for orig, back in zip(bags, loaded):
            assert back.instances.shape == orig.instances.shape
            assert back.instances.tobytes() == orig.instances.tobytes()

    @pytest.mark.parametrize("field, value", [
        ("id", 3), ("id", ""), ("id", None), ("label", True), ("label", np.int64(1)), ("label", "1"),
    ])
    def test_fields_a_file_cannot_hold_are_rejected_at_construction(self, field, value):
        with pytest.raises(InvalidInputError):
            Bag(**{"id": "b", "label": 1, "instances": [[1.0]], field: value})

    def test_real_label_is_stored_as_int(self, tmp_path):
        bag = Bag(id="b", label=-1.0, instances=[[1.0]])
        assert type(bag.label) is int and bag.label == -1
        save_dataset([bag], str(tmp_path / "b.jsonl"))
        assert (tmp_path / "b.jsonl").read_text() == '{"id": "b", "label": -1, "instances": [[1.0]]}\n'

    def test_save_rejects_mixed_dimensions(self, tmp_path):
        bags = [Bag(id="a", label=1, instances=[[1.0]]), Bag(id="b", label=-1, instances=[[1.0, 2.0]])]
        with pytest.raises(InvalidInputError, match="one dimension"):
            save_dataset(bags, str(tmp_path / "x.jsonl"))
        assert not (tmp_path / "x.jsonl").exists()

    @pytest.mark.parametrize("record, message", [
        ('{"id":3,"label":1,"instances":[[1.0]]}', "bag id must be a nonempty string, got 3"),
        ('{"id":"","label":1,"instances":[[1.0]]}', "bag id must be a nonempty string, got ''"),
        ('{"id":["a"],"label":1,"instances":[[1.0]]}', "bag id must be a nonempty string, got ['a']"),
        ('{"id":"b","label":true,"instances":[[1.0]]}', "bag 'b' label must be +1 or -1, got True"),
        ('{"id":"b","label":"1","instances":[[1.0]]}', "bag 'b' label must be +1 or -1, got '1'"),
        ('{"id":"b","label":null,"instances":[[1.0]]}', "bag 'b' is unlabeled"),
    ])
    def test_load_wraps_the_bag_rule_with_file_and_line(self, tmp_path, record, message):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id":"a","label":1,"instances":[[1.0]]}\n' + record + "\n")
        with pytest.raises(DatasetFormatError) as info:
            load_dataset(str(path))
        assert str(info.value) == f"{path}:2: {message}"


def make_adapted(rng):
    source = SourceModel(
        phi=Dictionary(codewords=rng.normal(size=(4, 3))), v=rng.normal(size=4)
    )
    return AdaptedModel(
        source=source,
        psi=Dictionary(codewords=rng.normal(size=(2, 3))),
        w=rng.normal(size=2),
        hyper=Hyperparams(c1=0.7, c2=0.3, kappa=2, eta=0.05, inner_iters=9, max_outer=4, tol=1e-5, seed=11),
    )


class TestModelIO:
    def test_source_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        model = SourceModel(
            phi=Dictionary(codewords=rng.normal(size=(5, 2)) * 1e-7), v=rng.normal(size=5)
        )
        path = tmp_path / "source.json"
        save_model(model, str(path))
        loaded = load_source_model(str(path))
        assert np.array_equal(loaded.phi.codewords, model.phi.codewords)
        assert np.array_equal(loaded.v, model.v)

    def test_adapted_round_trip_scores_bit_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        model = make_adapted(rng)
        path = tmp_path / "adapted.json"
        save_model(model, str(path))
        loaded = load_adapted_model(str(path))
        assert loaded.hyper == model.hyper
        for _ in range(100):
            b = BagBatch([Bag(id="r", instances=rng.normal(size=(int(rng.integers(1, 5)), 3)))])
            assert score_target(b, loaded)[0] == score_target(b, model)[0]

    def test_version_mismatch(self, tmp_path):
        rng = np.random.default_rng(3)
        path = tmp_path / "versioned.json"
        save_model(make_adapted(rng), str(path))
        doc = json.loads(path.read_text())
        doc["format_version"] = 999
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="expected format_version 1, found 999"):
            load_model(str(path))

    def test_source_file_via_adapted_loader_is_type_error(self, tmp_path):
        rng = np.random.default_rng(4)
        source = SourceModel(phi=Dictionary(codewords=rng.normal(size=(2, 2))), v=rng.normal(size=2))
        path = tmp_path / "source.json"
        save_model(source, str(path))
        with pytest.raises(ModelFormatError, match="source model"):
            load_adapted_model(str(path))

    def test_adapted_file_via_source_loader_is_type_error(self, tmp_path):
        rng = np.random.default_rng(5)
        path = tmp_path / "adapted.json"
        save_model(make_adapted(rng), str(path))
        with pytest.raises(ModelFormatError, match="adapted model"):
            load_source_model(str(path))

    def test_unknown_top_level_key_rejected(self, tmp_path):
        rng = np.random.default_rng(6)
        path = tmp_path / "extra.json"
        save_model(make_adapted(rng), str(path))
        doc = json.loads(path.read_text())
        doc["comment"] = "hello"
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="comment"):
            load_model(str(path))

    def test_partial_adaptation_fields_rejected(self, tmp_path):
        rng = np.random.default_rng(7)
        path = tmp_path / "partial.json"
        save_model(make_adapted(rng), str(path))
        doc = json.loads(path.read_text())
        doc["w"] = None
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="all null"):
            load_model(str(path))

    @pytest.mark.parametrize("field,value", [("kappa", True), ("c1", True), ("seed", False)])
    def test_boolean_hyper_rejected(self, tmp_path, field, value):
        rng = np.random.default_rng(9)
        path = tmp_path / "bool.json"
        save_model(make_adapted(rng), str(path))
        doc = json.loads(path.read_text())
        doc["hyper"][field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match=field):
            load_model(str(path))

    @pytest.mark.parametrize("key", ["phi", "v", "psi", "w"])
    @pytest.mark.parametrize("value", ["1", True, None])
    def test_model_arrays_must_hold_json_numbers(self, tmp_path, key, value):
        rng = np.random.default_rng(10)
        path = tmp_path / "numbers.json"
        save_model(make_adapted(rng), str(path))
        doc = json.loads(path.read_text())
        row = doc[key][0] if key in ("phi", "psi") else doc[key]
        row[0] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match=f": {key} must be a"):
            load_model(str(path))

    @pytest.mark.parametrize("key,fields", [("phi", "source"), ("w", "adaptation")])
    def test_integer_beyond_float_range_rejected(self, tmp_path, key, fields):
        rng = np.random.default_rng(11)
        path = tmp_path / "huge.json"
        save_model(make_adapted(rng), str(path))
        doc = json.loads(path.read_text())
        (doc[key][0] if key == "phi" else doc[key])[0] = 10**400
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match=f"invalid {fields} fields: int too large"):
            load_model(str(path))

    def test_load_model_returns_matching_kind(self, tmp_path):
        rng = np.random.default_rng(8)
        adapted = make_adapted(rng)
        p1, p2 = tmp_path / "a.json", tmp_path / "s.json"
        save_model(adapted, str(p1))
        save_model(adapted.source, str(p2))
        assert isinstance(load_model(str(p1)), AdaptedModel)
        assert isinstance(load_model(str(p2)), SourceModel)


class TestSynthConfig:
    def test_defaults_valid(self):
        SynthConfig()

    @pytest.mark.parametrize("kwargs", [
        {"d": 0},
        {"witness_rate": 0.0},
        {"witness_rate": 1.5},
        {"cluster_separation": 0.0},
        {"noise_sigma": -0.1},
        {"instances_per_bag": (5, 2)},
        {"instances_per_bag": (0, 2)},
        {"bags_per_class_source": 0},
        {"d": 1, "shift_rotation_degrees": 10.0},
        {"shift_translation": (1.0, 2.0)},  # wrong length for d=10
        {"d": 2, "shift_translation": ("1.5", "2")},
        {"instances_per_bag": 5},
    ])
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(InvalidInputError):
            SynthConfig(**kwargs)

    def test_scalar_translation_magnitude(self):
        cfg = SynthConfig(d=4, shift_translation=2.0)
        vec = cfg.translation_vector()
        assert vec.shape == (4,)
        np.testing.assert_allclose(np.linalg.norm(vec), 2.0, rtol=1e-12)

    def test_vector_translation_passthrough(self):
        cfg = SynthConfig(d=3, shift_translation=(1.0, -1.0, 0.5))
        assert cfg.translation_vector().tolist() == [1.0, -1.0, 0.5]

    @pytest.mark.parametrize("raw", [
        {"d": True, "shift_rotation_degrees": 0.0, "shift_translation": 0.0},
        {"bags_per_class_source": True},
        {"bags_per_class_target": True},
        {"instances_per_bag": [True, 2]},
        {"witness_rate": True},
        {"cluster_separation": True},
        {"shift_rotation_degrees": False},
        {"shift_translation": True},
        {"shift_translation": [True] * 10},
        {"noise_sigma": False},
    ], ids=lambda raw: next(iter(raw)))
    def test_from_dict_rejects_booleans(self, raw):
        # JSON true/false would otherwise pass as the numbers 1 and 0
        with pytest.raises(InvalidInputError):
            SynthConfig.from_dict(raw)

    def test_from_dict_rejects_unknown(self):
        with pytest.raises(InvalidInputError):
            SynthConfig.from_dict({"dimension": 4})


class TestGenerateSynthetic:
    def test_counts_and_labels(self):
        cfg = SynthConfig(bags_per_class_source=7, bags_per_class_target=3)
        source, target = generate_synthetic(cfg, seed=0)
        assert len(source) == 14 and len(target) == 6
        assert sum(b.label == 1 for b in source) == 7
        assert sum(b.label == -1 for b in target) == 3

    def test_instances_per_bag_range(self):
        cfg = SynthConfig(instances_per_bag=(2, 4), bags_per_class_source=20, bags_per_class_target=5)
        source, target = generate_synthetic(cfg, seed=1)
        for b in source + target:
            assert 2 <= b.size <= 4

    def test_deterministic_byte_level(self, tmp_path):
        cfg = SynthConfig(bags_per_class_source=5, bags_per_class_target=5)
        for name, seed in (("a", 9), ("b", 9)):
            source, target = generate_synthetic(cfg, seed=seed)
            save_dataset(source, str(tmp_path / f"src-{name}.jsonl"))
            save_dataset(target, str(tmp_path / f"tgt-{name}.jsonl"))
        assert (tmp_path / "src-a.jsonl").read_bytes() == (tmp_path / "src-b.jsonl").read_bytes()
        assert (tmp_path / "tgt-a.jsonl").read_bytes() == (tmp_path / "tgt-b.jsonl").read_bytes()

    def test_distinct_seeds_differ(self):
        cfg = SynthConfig(bags_per_class_source=5, bags_per_class_target=5)
        s1, _ = generate_synthetic(cfg, seed=1)
        s2, _ = generate_synthetic(cfg, seed=2)
        assert not np.array_equal(s1[0].instances, s2[0].instances)

    def test_null_shift_leaves_target_untransformed(self):
        cfg = SynthConfig(d=4, bags_per_class_source=2, bags_per_class_target=4,
                          shift_rotation_degrees=0.0, shift_translation=0.0, noise_sigma=0.0)
        _, target = generate_synthetic(cfg, seed=5)
        # identity transform: regenerating with the same seed and comparing
        # against the rotation-free pipeline must give identical instances
        _, again = generate_synthetic(cfg, seed=5)
        for a, b in zip(target, again):
            assert np.array_equal(a.instances, b.instances)

    def test_full_witness_rate_fills_positive_bags(self):
        # separation far beyond noise: every instance of a positive bag must
        # sit near the concept mean in the first coordinate
        cfg = SynthConfig(d=3, bags_per_class_source=10, bags_per_class_target=2,
                          witness_rate=1.0, cluster_separation=100.0,
                          shift_rotation_degrees=0.0, shift_translation=0.0, noise_sigma=0.0)
        source, _ = generate_synthetic(cfg, seed=2)
        for b in source:
            if b.label == 1:
                assert np.all(b.instances[:, 0] > 50.0)
            else:
                assert np.all(b.instances[:, 0] < 50.0)

    def test_witness_count_at_least_rate_fraction(self):
        cfg = SynthConfig(d=2, bags_per_class_source=30, bags_per_class_target=2,
                          witness_rate=0.5, cluster_separation=50.0,
                          shift_rotation_degrees=0.0, shift_translation=0.0, noise_sigma=0.0)
        source, _ = generate_synthetic(cfg, seed=3)
        for b in source:
            if b.label == 1:
                witnesses = int(np.sum(b.instances[:, 0] > 25.0))
                assert witnesses >= int(np.ceil(0.5 * b.size))

    def test_rotation_moves_concept_direction(self):
        cfg = SynthConfig(d=2, bags_per_class_source=50, bags_per_class_target=50,
                          witness_rate=1.0, cluster_separation=20.0,
                          shift_rotation_degrees=90.0, shift_translation=0.0, noise_sigma=0.0)
        source, target = generate_synthetic(cfg, seed=4)
        src_pos = np.vstack([b.instances for b in source if b.label == 1])
        tgt_pos = np.vstack([b.instances for b in target if b.label == 1])
        # 90 degrees sends the concept mean from e1 to e2
        assert abs(src_pos[:, 0].mean() - 20.0) < 1.0
        assert abs(tgt_pos[:, 1].mean() - 20.0) < 1.0
        assert abs(tgt_pos[:, 0].mean()) < 1.0
