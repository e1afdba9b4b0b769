"""Core domain types and pure scoring functions.

A *bag* is a set of d-dimensional instance vectors sharing one binary label.
A *dictionary* maps a bag to a fixed-length feature vector whose k-th entry
is the maximum dot product between codeword k and the bag's instances.  A
source-domain model scores a bag linearly in that feature space; an adapted
model adds a correction term computed against a second, transfer dictionary.

A ``BagBatch`` stacks a list of bags once so that embedding and argmax
assignment run over all of them in one pass.  Everything in this module is
stateless and immutable after construction; all functions may be called
concurrently without coordination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

VALID_LABELS = (1, -1)


def _as_matrix(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise InvalidInputError(f"{name} must be a 2-D array, got ndim={arr.ndim}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise InvalidInputError(f"{name} must be nonempty, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


def _as_vector(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise InvalidInputError(f"{name} must be a 1-D array, got ndim={arr.ndim}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


def _instance_dots(instances: np.ndarray, codeword: np.ndarray) -> np.ndarray:
    # Row-wise sums keep each instance's dot product bit-identical no matter
    # how many other instances the bag holds or in what order; BLAS gemm does
    # not guarantee that, and the embedding properties are asserted exactly.
    return (instances * codeword).sum(axis=1)


@dataclass(frozen=True)
class Bag:
    """An identified collection of instance vectors, optionally labeled.

    ``instances`` is an (m, d) matrix with one instance per row, m >= 1.
    ``label`` is +1 or -1 when known, None for unlabeled inference data.
    """

    id: str
    instances: np.ndarray
    label: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "instances", _as_matrix(self.instances, f"bag {self.id!r} instances"))
        if self.label is not None and self.label not in VALID_LABELS:
            raise InvalidInputError(f"bag {self.id!r} label must be +1 or -1, got {self.label!r}")

    @property
    def size(self) -> int:
        return self.instances.shape[0]

    @property
    def dim(self) -> int:
        return self.instances.shape[1]


@dataclass(frozen=True)
class Dictionary:
    """An ordered set of codewords, one per row of ``codewords`` (size, d)."""

    codewords: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "codewords", _as_matrix(self.codewords, "dictionary codewords"))

    @property
    def size(self) -> int:
        return self.codewords.shape[0]

    @property
    def dim(self) -> int:
        return self.codewords.shape[1]


@dataclass(frozen=True)
class Hyperparams:
    """Knobs of the adaptation learner.

    c1 weighs the adaptation-weight regularizer, c2 the transfer-dictionary
    regularizer.  kappa is the transfer dictionary size, eta the codeword
    step size, inner_iters the per-codeword descent steps, max_outer and tol
    the outer-loop budget and relative-dual-change stop, seed the single
    entropy source.  inner_iters = 0 and max_outer = 0 are legal degenerate
    budgets (they leave the corresponding block untouched).
    """

    c1: float = 1.0
    c2: float = 0.1
    kappa: int = 20
    eta: float = 0.01
    inner_iters: int = 50
    max_outer: int = 30
    tol: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        for name in ("c1", "c2", "eta", "tol"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
                raise InvalidInputError(f"{name} must be a positive finite real, got {value!r}")
        if not (isinstance(self.kappa, int) and self.kappa >= 1):
            raise InvalidInputError(f"kappa must be a positive integer, got {self.kappa!r}")
        for name in ("inner_iters", "max_outer"):
            value = getattr(self, name)
            if not (isinstance(value, int) and value >= 0):
                raise InvalidInputError(f"{name} must be a non-negative integer, got {value!r}")
        if not (isinstance(self.seed, int) and self.seed >= 0):
            raise InvalidInputError(f"seed must be a non-negative integer, got {self.seed!r}")


@dataclass(frozen=True)
class SourceModel:
    """A source-domain dictionary plus its bag-level linear classifier."""

    phi: Dictionary
    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "v", _as_vector(self.v, "source classifier v"))
        if self.v.shape[0] != self.phi.size:
            raise InvalidInputError(
                f"classifier length {self.v.shape[0]} != dictionary size {self.phi.size}"
            )

    @property
    def dim(self) -> int:
        return self.phi.dim


@dataclass(frozen=True)
class AdaptedModel:
    """A source model extended with a transfer dictionary and adaptation
    weights; scores a bag as the source response plus w . z(bag, psi)."""

    source: SourceModel
    psi: Dictionary
    w: np.ndarray
    hyper: Hyperparams

    def __post_init__(self):
        object.__setattr__(self, "w", _as_vector(self.w, "adaptation weights w"))
        if self.w.shape[0] != self.psi.size:
            raise InvalidInputError(
                f"adaptation weight length {self.w.shape[0]} != dictionary size {self.psi.size}"
            )
        if self.psi.dim != self.source.phi.dim:
            raise InvalidInputError(
                f"transfer dictionary dimension {self.psi.dim} != source dimension {self.source.phi.dim}"
            )

    @property
    def dim(self) -> int:
        return self.source.dim


def _segment_max_dots(instances: np.ndarray, starts: np.ndarray, codewords: np.ndarray) -> np.ndarray:
    # The one embedding kernel: column k holds each segment's maximum of the
    # row-wise dots with codeword k, so a bag's features do not depend on
    # which other bags share the stack.
    out = np.empty((starts.shape[0], codewords.shape[0]))
    for k, word in enumerate(codewords):
        out[:, k] = np.maximum.reduceat(_instance_dots(instances, word), starts)
    return out


_ONE_SEGMENT = np.zeros(1, dtype=np.intp)
_ONE_SEGMENT.setflags(write=False)


@dataclass(frozen=True, init=False, eq=False)
class BagBatch:
    """A list of bags with their instances stacked once.

    ``instances`` is the read-only (M, d) matrix of every bag's rows in
    order; bag i owns rows ``starts[i]`` to ``starts[i] + counts[i] - 1``.
    """

    instances: np.ndarray
    starts: np.ndarray
    counts: np.ndarray

    def __init__(self, bags: list[Bag]):
        if not bags:
            raise InvalidInputError("cannot stack an empty bag list")
        dim = bags[0].dim
        for bag in bags:
            if bag.dim != dim:
                raise InvalidInputError(f"bag {bag.id!r} has dimension {bag.dim}, expected {dim}")
        counts = np.array([bag.size for bag in bags], dtype=np.intp)
        starts = np.zeros(len(bags), dtype=np.intp)
        np.cumsum(counts[:-1], out=starts[1:])
        instances = np.vstack([bag.instances for bag in bags])
        for name, arr in (("instances", instances), ("starts", starts), ("counts", counts)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return self.starts.shape[0]

    @property
    def dim(self) -> int:
        return self.instances.shape[1]

    def embed(self, dictionary: Dictionary) -> np.ndarray:
        """Features of every bag, one row per bag; row i equals
        ``embed_bag(bag_i, dictionary)`` bit for bit."""
        if self.dim != dictionary.dim:
            raise InvalidInputError(
                f"bags have dimension {self.dim} but dictionary has dimension {dictionary.dim}"
            )
        return _segment_max_dots(self.instances, self.starts, dictionary.codewords)

    def argmax(self, codeword) -> np.ndarray:
        """For each bag, the index within the bag of the instance maximizing
        the dot product with ``codeword``; ties resolve to the lowest index."""
        codeword = np.asarray(codeword, dtype=np.float64)
        if codeword.shape != (self.dim,):
            raise InvalidInputError(
                f"codeword must have shape ({self.dim},), got {codeword.shape}"
            )
        dots = _instance_dots(self.instances, codeword)
        seg_max = np.maximum.reduceat(dots, self.starts)
        positions = np.arange(dots.shape[0])
        firsts = np.minimum.reduceat(
            np.where(dots == np.repeat(seg_max, self.counts), positions, dots.shape[0]),
            self.starts,
        )
        return firsts - self.starts


def embed_bag(bag: Bag, dictionary: Dictionary) -> np.ndarray:
    """Map a bag to its bag-level feature vector.

    Entry k is the maximum dot product between codeword k and the bag's
    instances; the result has length ``dictionary.size``.
    """
    if bag.dim != dictionary.dim:
        raise InvalidInputError(
            f"bag {bag.id!r} has dimension {bag.dim} but dictionary has dimension {dictionary.dim}"
        )
    return _segment_max_dots(bag.instances, _ONE_SEGMENT, dictionary.codewords)[0]


def score_source(bag: Bag, model: SourceModel) -> float:
    """Response of the source-domain classifier: v . z(bag, phi)."""
    return float(model.v @ embed_bag(bag, model.phi))


def score_target(bag: Bag, model: AdaptedModel) -> float:
    """Response of the adapted classifier: source score plus w . z(bag, psi)."""
    return score_source(bag, model.source) + float(model.w @ embed_bag(bag, model.psi))


def predict(score: float) -> int:
    """Binary decision from a real score; the tie at exactly 0 resolves to +1."""
    if not math.isfinite(score):
        raise InvalidInputError(f"score must be finite, got {score!r}")
    return 1 if score >= 0 else -1


def _primal_from_cache(
    source_scores: np.ndarray,
    z: np.ndarray,
    w: np.ndarray,
    labels: np.ndarray,
    psi: Dictionary,
    hyper: Hyperparams,
) -> float:
    # the primal formula, from precomputed source scores and psi features
    hinges = np.maximum(0.0, 1.0 - labels * (source_scores + z @ w))
    return (
        float(np.mean(hinges))
        + 0.5 * hyper.c1 * float(w @ w)
        + 0.5 * hyper.c2 * float(np.sum(psi.codewords**2))
    )


def primal_objective(train: list[Bag], model: AdaptedModel) -> float:
    """Regularized training objective of an adapted model.

    Mean hinge loss max(0, 1 - y * score) of the adapted scores over
    ``train`` plus (c1/2)||w||^2 plus (c2/2) * sum of squared codeword norms
    of psi.
    """
    if not train:
        raise InvalidInputError("training set is empty")
    for bag in train:
        if bag.label is None:
            raise InvalidInputError(f"bag {bag.id!r} is unlabeled")
    labels = np.array([bag.label for bag in train], dtype=np.float64)
    source_scores = np.array([score_source(bag, model.source) for bag in train])
    z = BagBatch(train).embed(model.psi)
    return _primal_from_cache(source_scores, z, model.w, labels, model.psi, model.hyper)
