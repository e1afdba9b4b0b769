"""Tests for dataset / model serialization and the synthetic generator."""

import json
import os
import re
import stat
import tempfile
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
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
from dtmil.core import _frozen, _is_real
from dtmil.data import SynthConfig, load_synth_config, write_text_atomic


# load_model's error wording per model key: (fields group, array name, ndim)
MODEL_ARRAYS = {
    "phi": ("source", "dictionary codewords", 2),
    "v": ("source", "source classifier v", 1),
    "psi": ("adaptation", "dictionary codewords", 2),
    "w": ("adaptation", "adaptation weights w", 1),
}

# JSON nested past the decoder's recursion limit
DEEP_JSON = "[" * 200000 + "]" * 200000


class TestWriteTextAtomic:
    def test_uncreatable_output_is_named_by_its_path(self, tmp_path):
        target = str(tmp_path / "nodir" / "out.jsonl")
        with pytest.raises(FileNotFoundError) as info:
            save_dataset([Bag(id="a", label=1, instances=[[1.0]])], target)
        assert info.value.filename == target
        assert repr(target) in str(info.value) and ".tmp-" not in str(info.value)
        assert list(tmp_path.iterdir()) == []

    def test_output_that_is_a_directory_is_named_by_its_path(self, tmp_path):
        # the rename fails, after the temporary file was written in full
        target = tmp_path / "out"
        target.mkdir()
        with pytest.raises(IsADirectoryError) as info:
            save_dataset([Bag(id="a", label=1, instances=[[1.0]])], str(target))
        assert (info.value.filename, info.value.filename2) == (str(target), None)
        assert repr(str(target)) in str(info.value) and ".tmp-" not in str(info.value)
        assert [p.name for p in tmp_path.iterdir()] == ["out"]
        assert list(target.iterdir()) == []

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


def wide_bags(n, seed=0):
    rng = np.random.default_rng(seed)
    return [
        Bag(id=f"b{i}", label=1 - 2 * (i % 2), instances=rng.normal(size=(int(rng.integers(40, 81)), 10)))
        for i in range(n)
    ]


class TestSaveDatasetStreams:
    """save_dataset writes each bag's line as it encodes it."""

    def test_peak_memory_is_a_small_share_of_the_file(self, tmp_path, traced_peak):
        path = str(tmp_path / "wide.jsonl")
        bags = wide_bags(200)
        peak = traced_peak(save_dataset, bags, path)
        # a file held whole, as a line list, joined, and with its newline, is 3x
        assert peak < os.path.getsize(path) / 4

    @pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
    def test_encoding_error_leaves_no_file_and_the_old_one_intact(self, tmp_path, monkeypatch, existing):
        import dtmil.data

        path = tmp_path / "out.jsonl"
        if existing:
            path.write_text("old contents\n")
        real, calls = dtmil.data.json.dumps, []

        def fails_on_third_bag(obj, *args, **kwargs):
            calls.append(1)
            if len(calls) == 3:
                raise ValueError("cannot encode bag 3")
            return real(obj, *args, **kwargs)

        monkeypatch.setattr(dtmil.data.json, "dumps", fails_on_third_bag)
        with pytest.raises(ValueError, match="bag 3"):
            save_dataset(wide_bags(5), str(path))
        assert len(calls) == 3
        assert [p.name for p in tmp_path.iterdir()] == (["out.jsonl"] if existing else [])
        if existing:
            assert path.read_text() == "old contents\n"


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

    @pytest.mark.parametrize("text, message", [
        ("[1, 2]\n", ":1: bag record must be a JSON object"),
        ('{"id":"a","label":1,"instances":[[1.0]]}\n"a"\n', ":2: bag record must be a JSON object"),
        ('{"id":"a","label":1}\n',
         ":1: bag record keys must be exactly ['id', 'instances', 'label']; missing ['instances']"),
        ("\n  \n\t\n", ": dataset holds no bags"),
        ('{"id":"a","label":1,"instances":[[1.0]]}\n' + DEEP_JSON + "\n", ":2: invalid JSON (nested too deeply)"),
    ], ids=["array", "string", "missing-key", "only-blank-lines", "nested-too-deeply"])
    def test_file_of_json_objects_with_exact_keys(self, tmp_path, text, message):
        path = tmp_path / "bad.jsonl"
        path.write_text(text)
        with pytest.raises(DatasetFormatError) as info:
            load_dataset(str(path))
        assert str(info.value) == f"{path}{message}"

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
        with pytest.raises(DatasetFormatError, match="bag 'b1' instances must be a nonempty 2-D array"):
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
        # files and memory share core's array rule, for lists and ndarrays alike
        value = json.loads(text)

        def accepts(values, ndim):
            try:
                _frozen(values, "x", ndim)
            except InvalidInputError:
                return False
            return True

        rows = [[value]], [value]
        assert [accepts(v, 2 - i) for i, v in enumerate(rows)] == [_is_real(value)] * 2
        assert [accepts(np.array(v), 2 - i) for i, v in enumerate(rows)] == [_is_real(value)] * 2

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
# fields that the constructor always accepts
_GOOD_IDS = st.text(min_size=1, max_size=6)
_GOOD_LABELS = st.sampled_from([1, -1, 1.0, -1.0, np.float64(-1.0)])
_FINITE_VALUES = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.integers(-(2**70), 2**70))


class TestSavedDatasetLoads:
    """Bag owns the id and label rules, so a dataset that saves also loads."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_every_accepted_bag_round_trips(self, data):
        d = data.draw(st.integers(1, 3))
        rows = st.lists(st.lists(_VALUES, min_size=d, max_size=d), min_size=1, max_size=3)
        candidates = data.draw(st.lists(st.tuples(_IDS, _LABELS, rows), min_size=1, max_size=6))
        # one candidate that is always accepted, at a drawn place, so that
        # every example saves a nonempty dataset
        finite = st.lists(st.lists(_FINITE_VALUES, min_size=d, max_size=d), min_size=1, max_size=3)
        good = data.draw(st.tuples(_GOOD_IDS, _GOOD_LABELS, finite))
        candidates.insert(data.draw(st.integers(0, len(candidates))), good)
        bags = {}
        for bag_id, label, instances in candidates:
            try:
                bag = Bag(id=bag_id, label=label, instances=instances)
            except InvalidInputError:
                continue
            # a file needs labels and unique ids, which save_dataset checks
            if bag.label is not None:
                bags.setdefault(bag.id, bag)
        bags = list(bags.values())
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

    @pytest.mark.parametrize("second, message", [
        (Bag(id="b", label=-1, instances=[[1.0, 2.0]]), "^bags in a dataset file must share one dimension$"),
        (Bag(id="a", label=-1, instances=[[2.0]]), "^bag ids must be unique within a dataset file$"),
    ], ids=["mixed-dimensions", "duplicate-ids"])
    def test_save_rejects_what_load_would_refuse(self, tmp_path, second, message):
        bags = [Bag(id="a", label=1, instances=[[1.0]]), second]
        with pytest.raises(InvalidInputError, match=message):
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

    # JSON true and 1.0 compare equal to 1, but the version is the integer 1
    @pytest.mark.parametrize("version", [999, True, 1.0, "1"])
    def test_version_mismatch(self, tmp_path, version):
        rng = np.random.default_rng(3)
        path = tmp_path / "versioned.json"
        save_model(make_adapted(rng), str(path))
        doc = json.loads(path.read_text())
        doc["format_version"] = version
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError) as info:
            load_model(str(path))
        assert str(info.value) == f"{path}: expected format_version 1, found {version!r}"

    @pytest.mark.parametrize("text, message", [
        ("[1, 2]", "model must be a JSON object"),
        ('"model"', "model must be a JSON object"),
        ("not json", "invalid JSON (Expecting value)"),
        ('{"format_version": 1', "invalid JSON (Expecting ',' delimiter)"),
        (DEEP_JSON, "invalid JSON (nested too deeply)"),
    ], ids=["array", "string", "not-json", "truncated", "nested-too-deeply"])
    def test_file_must_hold_one_json_object(self, tmp_path, text, message):
        path = tmp_path / "model.json"
        path.write_text(text)
        with pytest.raises(ModelFormatError) as info:
            load_model(str(path))
        assert str(info.value) == f"{path}: {message}"

    @pytest.mark.parametrize("edit, message", [
        (lambda hyper: [hyper], "hyper must be a JSON object"),
        (lambda hyper: 0.5, "hyper must be a JSON object"),
        (lambda hyper: {k: v for k, v in hyper.items() if k != "tol"},
         f"hyper keys must be exactly {sorted(f.name for f in fields(Hyperparams))}; missing ['tol']"),
        (lambda hyper: {**hyper, "note": 1},
         f"hyper keys must be exactly {sorted(f.name for f in fields(Hyperparams))}; unexpected ['note']"),
    ], ids=["array", "number", "missing-key", "extra-key"])
    def test_hyper_must_be_an_object_with_exact_keys(self, tmp_path, edit, message):
        rng = np.random.default_rng(12)
        path = tmp_path / "hyper.json"
        save_model(make_adapted(rng), str(path))
        doc = json.loads(path.read_text())
        doc["hyper"] = edit(doc["hyper"])
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError) as info:
            load_model(str(path))
        assert str(info.value) == f"{path}: {message}"

    @pytest.mark.parametrize("obj", [Dictionary(codewords=[[1.0]]), {"v": [1.0]}, None])
    def test_save_rejects_objects_that_are_no_model(self, tmp_path, obj):
        path = tmp_path / "model.json"
        with pytest.raises(InvalidInputError, match=f"^cannot serialize object of type {type(obj).__name__}$"):
            save_model(obj, str(path))
        assert not path.exists()

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
        with pytest.raises(ModelFormatError, match=r"; unexpected \['comment'\]$"):
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
        group, name, ndim = MODEL_ARRAYS[key]
        message = f": invalid {group} fields: {name} must be a nonempty {ndim}-D array of real numbers$"
        with pytest.raises(ModelFormatError, match=message):
            load_model(str(path))

    @pytest.mark.parametrize("key,fields", [("phi", "source"), ("w", "adaptation")])
    def test_integer_beyond_float_range_rejected(self, tmp_path, key, fields):
        rng = np.random.default_rng(11)
        path = tmp_path / "huge.json"
        save_model(make_adapted(rng), str(path))
        doc = json.loads(path.read_text())
        (doc[key][0] if key == "phi" else doc[key])[0] = 10**400
        path.write_text(json.dumps(doc))
        name = MODEL_ARRAYS[key][1]
        with pytest.raises(ModelFormatError, match=f"invalid {fields} fields: {name} contains non-finite entries$"):
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

    @staticmethod
    def config_file(tmp_path, raw) -> str:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        return str(path)

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
    def test_config_file_rejects_booleans(self, tmp_path, raw):
        # JSON true/false would otherwise pass as the numbers 1 and 0
        path = self.config_file(tmp_path, raw)
        with pytest.raises(InvalidInputError, match=f"^{re.escape(path)}: "):
            load_synth_config(path)

    @pytest.mark.parametrize("raw, message", [
        ({"dimension": 4}, "synthetic config keys must be among "
                           f"{sorted(f.name for f in fields(SynthConfig))}; unexpected ['dimension']"),
        ({"d": 0}, "d must be an integer >= 1, got 0"),
        ({"d": 2, "shift_translation": [1.0]}, "shift_translation must have length d=2, got 1"),
    ], ids=["unexpected key", "field", "vector field"])
    def test_config_file_errors_name_the_file(self, tmp_path, raw, message):
        path = self.config_file(tmp_path, raw)
        with pytest.raises(InvalidInputError, match=f"^{re.escape(f'{path}: {message}')}$"):
            load_synth_config(path)

    @pytest.mark.parametrize("raw", [[], [["d", 4]], "d", None], ids=repr)
    def test_config_file_rejects_a_non_object(self, tmp_path, raw):
        path = self.config_file(tmp_path, raw)
        with pytest.raises(InvalidInputError, match=f"^{re.escape(path)}: synthetic config must be a JSON object$"):
            load_synth_config(path)

    def test_config_file_nested_too_deeply_names_the_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(DEEP_JSON)
        with pytest.raises(InvalidInputError) as info:
            load_synth_config(str(path))
        assert str(info.value) == f"{path}: invalid JSON (nested too deeply)"

    def test_config_file_overrides_a_subset(self, tmp_path):
        path = self.config_file(tmp_path, {"d": 3, "instances_per_bag": [2, 4], "shift_translation": [1, 2, 3]})
        assert load_synth_config(path) == SynthConfig(
            d=3, instances_per_bag=(2, 4), shift_translation=(1.0, 2.0, 3.0))
        assert load_synth_config(self.config_file(tmp_path, {})) == SynthConfig()


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
