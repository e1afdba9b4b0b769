"""Dataset and model serialization, plus a synthetic cross-domain generator.

Datasets are UTF-8 JSON lines, one bag per line:

    {"id": "b1", "label": 1, "instances": [[1.0, 2.0], [0.5, -1.0]]}

Blank lines are ignored; anything else that deviates is an error.  A dataset
is written one bag line at a time, never held whole.  Models are a single
JSON document with a pinned ``format_version``; a source-only model stores
null for the adaptation fields.  Numbers are serialized with full round-trip
precision, so save/load is bit-exact.  A synth config file is one JSON object
overriding any subset of the ``SynthConfig`` fields.  Every input file is
read here, and each of its errors names the file.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields

import numpy as np

from .core import (
    AdaptedModel,
    Bag,
    Dictionary,
    Hyperparams,
    SourceModel,
    _check_int,
    _check_labeled,
    _check_real,
)
from .errors import DatasetFormatError, InvalidInputError, ModelFormatError

MODEL_FORMAT_VERSION = 1
_MODEL_KEYS = {"format_version", "phi", "v", "psi", "w", "hyper"}
_BAG_KEYS = {"id", "label", "instances"}
_HYPER_KEYS = {f.name for f in fields(Hyperparams)}


@contextmanager
def _atomic_output(path: str):
    # a handle on a temporary file beside ``path``, renamed over it on success
    # and removed on any error, which leaves ``path`` as it was
    directory = os.path.dirname(os.path.abspath(path))
    tmp_path = os.path.join(directory, f".tmp-{os.urandom(8).hex()}~")
    # mode 0o666 through the umask, as for any new file; mkstemp forces 0o600
    try:
        fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        exc.filename = path  # the output asked for, not its temporary name
        raise
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            yield handle
        try:
            os.replace(tmp_path, path)
        except OSError as exc:  # named as the output asked for, as above
            raise OSError(exc.errno, exc.strerror, path) from exc
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def write_text_atomic(path: str, text: str) -> None:
    """Write via a temporary file in the target directory, then rename, so a
    failure never leaves a partial output file behind."""
    with _atomic_output(path) as handle:
        handle.write(text)


@contextmanager
def _naming(where: str, error: type[InvalidInputError] = InvalidInputError):
    # the one error rule: an input error raised inside is re-raised as
    # ``error`` prefixed with ``where``, a path, path:line or field group
    try:
        yield
    except InvalidInputError as exc:
        raise error(f"{where}: {exc}") from exc


def _decode_json(raw: bytes):
    # the one JSON reading rule: UTF-8 text holding one JSON value
    try:
        return json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise InvalidInputError(f"not UTF-8 text ({exc.reason})") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"invalid JSON ({exc.msg})") from exc
    except RecursionError:
        raise InvalidInputError("invalid JSON (nested too deeply)") from None


def _check_keys(value, keys: set[str], what: str, subset: bool = False) -> None:
    # the one key rule: a JSON object holding exactly ``keys``, or any subset of them
    if not isinstance(value, dict):
        raise InvalidInputError(f"{what} must be a JSON object")
    extra, missing = sorted(set(value) - keys), [] if subset else sorted(keys - set(value))
    if extra or missing:
        raise InvalidInputError(
            f"{what} keys must be {'among' if subset else 'exactly'} {sorted(keys)}"
            + (f"; unexpected {extra}" if extra else "")
            + (f"; missing {missing}" if missing else "")
        )


def load_dataset(path: str) -> list[Bag]:
    """Read a JSON-lines dataset, validating ids, labels and dimensions."""
    bags: list[Bag] = []
    seen_ids: set[str] = set()
    with open(path, "rb") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            with _naming(f"{path}:{lineno}", DatasetFormatError):
                record = _decode_json(line)
                _check_keys(record, _BAG_KEYS, "bag record")
                # Bag owns the id, label and array rules; a file adds labels and unique ids
                bag = Bag(id=record["id"], label=record["label"], instances=record["instances"])
                if bag.label is None:
                    raise InvalidInputError(f"bag {bag.id!r} is unlabeled")
                if bag.id in seen_ids:
                    raise InvalidInputError(f"duplicate bag id {bag.id!r}")
                if bags and bag.dim != bags[0].dim:
                    raise InvalidInputError(
                        f"bag {bag.id!r} has dimension {bag.dim}, "
                        f"but the file started with dimension {bags[0].dim}"
                    )
            seen_ids.add(bag.id)
            bags.append(bag)
    if not bags:
        raise DatasetFormatError(f"{path}: dataset holds no bags")
    return bags


def save_dataset(bags: list[Bag], path: str) -> None:
    """Write labeled bags with unique ids and one dimension as JSON lines that load back."""
    _check_labeled(bags, "dataset file")
    if len({bag.id for bag in bags}) != len(bags):
        raise InvalidInputError("bag ids must be unique within a dataset file")
    if len({bag.dim for bag in bags}) != 1:
        raise InvalidInputError("bags in a dataset file must share one dimension")
    with _atomic_output(path) as handle:
        for bag in bags:
            record = {"id": bag.id, "label": bag.label, "instances": bag.instances.tolist()}
            handle.write(json.dumps(record) + "\n")


def save_model(model: SourceModel | AdaptedModel, path: str) -> None:
    """Serialize either model kind to a single JSON document."""
    if isinstance(model, AdaptedModel):
        source, psi, w, hyper = model.source, model.psi.codewords.tolist(), model.w.tolist(), asdict(model.hyper)
    elif isinstance(model, SourceModel):
        source, psi, w, hyper = model, None, None, None
    else:
        raise InvalidInputError(f"cannot serialize object of type {type(model).__name__}")
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "phi": source.phi.codewords.tolist(),
        "v": source.v.tolist(),
        "psi": psi,
        "w": w,
        "hyper": hyper,
    }
    write_text_atomic(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load_model(path: str) -> SourceModel | AdaptedModel:
    """Load whichever model kind the file holds."""
    with open(path, "rb") as handle:
        raw = handle.read()
    with _naming(path, ModelFormatError):
        doc = _decode_json(raw)
        _check_keys(doc, _MODEL_KEYS, "model")
        version = doc["format_version"]
        if type(version) is not int or version != MODEL_FORMAT_VERSION:  # JSON true == 1
            raise InvalidInputError(f"expected format_version {MODEL_FORMAT_VERSION}, found {version!r}")
        with _naming("invalid source fields"):
            source = SourceModel(phi=Dictionary(codewords=doc["phi"]), v=doc["v"])
        adaptation = (doc["psi"], doc["w"], doc["hyper"])
        if all(part is None for part in adaptation):
            return source
        if any(part is None for part in adaptation):
            raise InvalidInputError("psi, w and hyper must be all null (source model) or all present")
        _check_keys(doc["hyper"], _HYPER_KEYS, "hyper")
        with _naming("invalid hyperparameters"):
            hyper = Hyperparams(**doc["hyper"])
        with _naming("invalid adaptation fields"):
            return AdaptedModel(source=source, psi=Dictionary(codewords=doc["psi"]), w=doc["w"], hyper=hyper)


def load_source_model(path: str) -> SourceModel:
    model = load_model(path)
    if not isinstance(model, SourceModel):
        raise ModelFormatError(f"{path}: holds an adapted model, not a source model")
    return model


def load_adapted_model(path: str) -> AdaptedModel:
    model = load_model(path)
    if not isinstance(model, AdaptedModel):
        raise ModelFormatError(f"{path}: holds a source model, not an adapted model")
    return model


def load_synth_config(path: str) -> SynthConfig:
    """Read a synth config file: a JSON object overriding any subset of the
    ``SynthConfig`` fields."""
    with open(path, "rb") as handle:
        raw = handle.read()
    with _naming(path):
        config = _decode_json(raw)
        _check_keys(config, {f.name for f in fields(SynthConfig)}, "synthetic config", subset=True)
        # the dataclass checks the values and accepts lists for its vector fields
        return SynthConfig(**config)


@dataclass(frozen=True)
class SynthConfig:
    """Parameters of the synthetic two-cluster cross-domain generator.

    Positive bags mix concept-cluster instances (at ``witness_rate``) with
    background instances; negative bags are all background.  Target bags are
    drawn from the same distribution, then rotated in the first two
    coordinates, translated, and perturbed with Gaussian noise.
    """

    d: int = 10
    bags_per_class_source: int = 100
    bags_per_class_target: int = 50
    instances_per_bag: tuple[int, int] = (5, 15)
    witness_rate: float = 0.5
    cluster_separation: float = 5.0
    shift_rotation_degrees: float = 30.0
    shift_translation: float | tuple[float, ...] = 4.0
    noise_sigma: float = 2.0

    def __post_init__(self):
        for name in ("d", "bags_per_class_source", "bags_per_class_target"):
            _check_int(getattr(self, name), name, 1)
        rng = self.instances_per_bag
        if not (isinstance(rng, (tuple, list)) and len(rng) == 2):
            raise InvalidInputError(f"instances_per_bag must be a pair (min, max), got {rng!r}")
        _check_int(rng[0], "instances_per_bag min", 1)
        _check_int(rng[1], "instances_per_bag max", rng[0])
        object.__setattr__(self, "instances_per_bag", tuple(rng))
        if _check_real(self.witness_rate, "witness_rate", positive=True) > 1:
            raise InvalidInputError(f"witness_rate must lie in (0, 1], got {self.witness_rate!r}")
        _check_real(self.cluster_separation, "cluster_separation", positive=True)
        if _check_real(self.shift_rotation_degrees, "shift_rotation_degrees") != 0.0 and self.d < 2:
            raise InvalidInputError("rotation shift requires dimension >= 2")
        _check_real(self.noise_sigma, "noise_sigma", minimum=0)
        raw = self.shift_translation
        if isinstance(raw, (tuple, list)):
            if len(raw) != self.d:
                raise InvalidInputError(f"shift_translation must have length d={self.d}, got {len(raw)}")
            translation = tuple(float(_check_real(v, "shift_translation entry")) for v in raw)
        else:
            translation = float(_check_real(raw, "shift_translation"))
        object.__setattr__(self, "shift_translation", translation)

    def translation_vector(self) -> np.ndarray:
        """The translation as a d-vector; a scalar magnitude spreads evenly
        over all coordinates (unit direction (1, ..., 1)/sqrt(d))."""
        if isinstance(self.shift_translation, float):
            return np.full(self.d, self.shift_translation / math.sqrt(self.d))
        return np.asarray(self.shift_translation)


def _rotation_matrix(d: int, degrees: float) -> np.ndarray:
    rot = np.eye(d)
    if degrees != 0.0:
        theta = math.radians(degrees)
        rot[0, 0] = math.cos(theta)
        rot[0, 1] = -math.sin(theta)
        rot[1, 0] = math.sin(theta)
        rot[1, 1] = math.cos(theta)
    return rot


def generate_synthetic(config: SynthConfig, seed: int) -> tuple[list[Bag], list[Bag]]:
    """Draw a (source, target) pair of labeled bag datasets.

    Deterministic given ``seed``; the target differs from the source only by
    the configured rotation / translation / noise transform.
    """
    rng = np.random.default_rng(_check_int(seed, "seed", 0))
    concept_mean = np.zeros(config.d)
    concept_mean[0] = config.cluster_separation
    lo, hi = config.instances_per_bag
    rotation = _rotation_matrix(config.d, config.shift_rotation_degrees)
    translation = config.translation_vector()

    def draw_bag(bag_id: str, label: int) -> Bag:
        m = int(rng.integers(lo, hi + 1))
        if label == 1:
            witnesses = math.ceil(config.witness_rate * m)
            concept = rng.normal(size=(witnesses, config.d)) + concept_mean
            background = rng.normal(size=(m - witnesses, config.d))
            instances = np.vstack([concept, background]) if m > witnesses else concept
        else:
            instances = rng.normal(size=(m, config.d))
        return Bag(id=bag_id, label=label, instances=instances)

    def shift(bag: Bag) -> Bag:
        moved = bag.instances @ rotation.T + translation
        if config.noise_sigma > 0:
            moved = moved + rng.normal(scale=config.noise_sigma, size=moved.shape)
        return Bag(id=bag.id, label=bag.label, instances=moved)

    source = [draw_bag(f"src-pos-{i:04d}", 1) for i in range(config.bags_per_class_source)]
    source += [draw_bag(f"src-neg-{i:04d}", -1) for i in range(config.bags_per_class_source)]
    target = [draw_bag(f"tgt-pos-{i:04d}", 1) for i in range(config.bags_per_class_target)]
    target += [draw_bag(f"tgt-neg-{i:04d}", -1) for i in range(config.bags_per_class_target)]
    return source, [shift(bag) for bag in target]
