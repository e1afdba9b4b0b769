"""Dataset and model serialization, plus a synthetic cross-domain generator.

Datasets are UTF-8 JSON lines, one bag per line:

    {"id": "b1", "label": 1, "instances": [[1.0, 2.0], [0.5, -1.0]]}

Blank lines are ignored; anything else that deviates is an error.  A dataset
is written one bag line at a time, never held whole.  Models are a single
JSON document with a pinned ``format_version``; a source-only model stores
null for the adaptation fields.  Numbers are serialized with full round-trip
precision, so save/load is bit-exact.
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
    fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            yield handle
        os.replace(tmp_path, path)
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


def load_dataset(path: str) -> list[Bag]:
    """Read a JSON-lines dataset, validating ids, labels and dimensions."""
    bags: list[Bag] = []
    seen_ids: set[str] = set()
    dim: int | None = None
    with open(path, "rb") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            where = f"{path}:{lineno}"
            try:
                record = json.loads(line.decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise DatasetFormatError(f"{where}: not UTF-8 text ({exc.reason})") from exc
            except json.JSONDecodeError as exc:
                raise DatasetFormatError(f"{where}: invalid JSON ({exc.msg})") from exc
            if not isinstance(record, dict):
                raise DatasetFormatError(f"{where}: expected a JSON object per line")
            extra = set(record) - _BAG_KEYS
            missing = _BAG_KEYS - set(record)
            if extra or missing:
                raise DatasetFormatError(
                    f"{where}: bag record keys must be exactly {sorted(_BAG_KEYS)}"
                    + (f"; unexpected {sorted(extra)}" if extra else "")
                    + (f"; missing {sorted(missing)}" if missing else "")
                )
            # Bag owns the id, label and array rules; a file adds labels and unique ids
            try:
                bag = Bag(id=record["id"], label=record["label"], instances=record["instances"])
            except InvalidInputError as exc:
                raise DatasetFormatError(f"{where}: {exc}") from exc
            if bag.label is None:
                raise DatasetFormatError(f"{where}: bag {bag.id!r} is unlabeled")
            if bag.id in seen_ids:
                raise DatasetFormatError(f"{where}: duplicate bag id {bag.id!r}")
            if dim is None:
                dim = bag.dim
            elif bag.dim != dim:
                raise DatasetFormatError(
                    f"{where}: bag {bag.id!r} has dimension {bag.dim}, "
                    f"but the file started with dimension {dim}"
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


def _hyper_from_dict(raw, path: str) -> Hyperparams:
    if not isinstance(raw, dict) or set(raw) != _HYPER_KEYS:
        raise ModelFormatError(f"{path}: hyper must hold exactly the keys {sorted(_HYPER_KEYS)}")
    try:
        return Hyperparams(**raw)
    except (InvalidInputError, TypeError) as exc:
        raise ModelFormatError(f"{path}: invalid hyperparameters: {exc}") from exc


def save_model(model: SourceModel | AdaptedModel, path: str) -> None:
    """Serialize either model kind to a single JSON document."""
    if isinstance(model, AdaptedModel):
        doc = {
            "format_version": MODEL_FORMAT_VERSION,
            "phi": model.source.phi.codewords.tolist(),
            "v": model.source.v.tolist(),
            "psi": model.psi.codewords.tolist(),
            "w": model.w.tolist(),
            "hyper": asdict(model.hyper),
        }
    elif isinstance(model, SourceModel):
        doc = {
            "format_version": MODEL_FORMAT_VERSION,
            "phi": model.phi.codewords.tolist(),
            "v": model.v.tolist(),
            "psi": None,
            "w": None,
            "hyper": None,
        }
    else:
        raise InvalidInputError(f"cannot serialize object of type {type(model).__name__}")
    write_text_atomic(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load_model(path: str) -> SourceModel | AdaptedModel:
    """Load whichever model kind the file holds."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except UnicodeDecodeError as exc:
            raise ModelFormatError(f"{path}: not UTF-8 text ({exc.reason})") from exc
        except json.JSONDecodeError as exc:
            raise ModelFormatError(f"{path}: invalid JSON ({exc.msg})") from exc
    if not isinstance(doc, dict):
        raise ModelFormatError(f"{path}: model file must hold a JSON object")
    if set(doc) != _MODEL_KEYS:
        unknown = sorted(set(doc) - _MODEL_KEYS)
        missing = sorted(_MODEL_KEYS - set(doc))
        raise ModelFormatError(
            f"{path}: model keys must be exactly {sorted(_MODEL_KEYS)}"
            + (f"; unknown {unknown}" if unknown else "")
            + (f"; missing {missing}" if missing else "")
        )
    version = doc["format_version"]
    if version != MODEL_FORMAT_VERSION:
        raise ModelFormatError(
            f"{path}: expected format_version {MODEL_FORMAT_VERSION}, found {version!r}"
        )
    try:
        source = SourceModel(phi=Dictionary(codewords=doc["phi"]), v=doc["v"])
    except InvalidInputError as exc:
        raise ModelFormatError(f"{path}: invalid source fields: {exc}") from exc
    adaptation = (doc["psi"], doc["w"], doc["hyper"])
    if all(part is None for part in adaptation):
        return source
    if any(part is None for part in adaptation):
        raise ModelFormatError(
            f"{path}: psi, w and hyper must be all null (source model) or all present"
        )
    hyper = _hyper_from_dict(doc["hyper"], path)
    try:
        return AdaptedModel(
            source=source, psi=Dictionary(codewords=doc["psi"]), w=doc["w"], hyper=hyper
        )
    except InvalidInputError as exc:
        raise ModelFormatError(f"{path}: invalid adaptation fields: {exc}") from exc


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

    @classmethod
    def from_dict(cls, raw: dict) -> "SynthConfig":
        if not isinstance(raw, dict):
            raise InvalidInputError("synthetic config must be a JSON object")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(raw) - known
        if unknown:
            raise InvalidInputError(f"unknown synthetic config keys: {sorted(unknown)}")
        # the dataclass checks the values and accepts lists for its vector fields
        return cls(**raw)


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
