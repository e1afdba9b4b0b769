"""Core domain types and pure scoring functions.

A *bag* is a set of d-dimensional instance vectors sharing one binary label.
A *dictionary* maps a bag to a fixed-length feature vector whose k-th entry
is the maximum dot product between codeword k and the bag's instances.  A
source-domain model scores a bag linearly in that feature space; an adapted
model adds a correction term computed against a second, transfer dictionary.

A ``BagBatch`` stacks a list of bags once so that embedding, scoring and
argmax assignment run over all of them in one pass; it is the only way from
a bag list to scores.  Features and scores sum every dot product row-wise,
so they are the same bits in any batch.  Only the argmax reads a gemm, and
only where a rounding-error bound proves that the gemm picks the row-wise
argmax; it recomputes every other pick row-wise.  Everything in this module
is immutable after construction (a batch's instance norms are cached on
first use, deterministically); all functions may be called concurrently
without coordination.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidInputError

VALID_LABELS = (1, -1)

_EPS = np.finfo(np.float64).eps
_TINY = np.finfo(np.float64).smallest_subnormal


def _frozen(values, name: str, ndim: int) -> np.ndarray:
    # the one input rule for float arrays: a nonempty, finite ndim-D copy,
    # frozen so that the caller's own array stays writable
    arr = np.array(values, dtype=np.float64, order="C")
    if arr.ndim != ndim:
        raise InvalidInputError(f"{name} must be a {ndim}-D array, got ndim={arr.ndim}")
    if arr.size == 0:
        raise InvalidInputError(f"{name} must be nonempty, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    arr.setflags(write=False)
    return arr


def _check_labeled(bags: list[Bag], what: str) -> np.ndarray:
    # the one "nonempty and labeled" rule; returns the labels as ints
    if not bags:
        raise InvalidInputError(f"{what} is empty")
    labels = []
    for bag in bags:
        if bag.label is None:
            raise InvalidInputError(f"bag {bag.id!r} in {what} is unlabeled")
        labels.append(bag.label)
    return np.asarray(labels, dtype=np.int64)


def _is_real(value) -> bool:
    # bool subclasses int, so a JSON true would otherwise pass as 1
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_int(value, name: str, minimum: int):
    # the one rule for an integer argument: an exact int, so no bool or
    # numpy integer passes; returns it unchanged
    if not (type(value) is int and value >= minimum):
        raise InvalidInputError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return value


def _check_real(value, name: str, positive: bool = False, minimum: float | None = None):
    # the one rule for a real argument; returns it unchanged.  Finiteness is
    # compared exactly, so an int beyond float range fails instead of overflowing
    ok = _is_real(value) and abs(value) <= sys.float_info.max
    if positive:
        ok, what = ok and value > 0, "a positive finite real"
    elif minimum is not None:
        ok, what = ok and value >= minimum, f"a finite real >= {minimum}"
    else:
        what = "a finite real"
    if not ok:
        raise InvalidInputError(f"{name} must be {what}, got {value!r}")
    return value


def _instance_dots(instances: np.ndarray, codeword: np.ndarray) -> np.ndarray:
    # Row-wise sums keep each instance's dot product bit-identical no matter
    # how many other instances the bag holds or in what order; BLAS gemm does
    # not guarantee that, and the embedding properties are asserted exactly.
    # Every feature and score goes through here; the argmax's gemm only
    # decides which instance wins (see BagBatch.argmax).
    return (instances * codeword).sum(axis=1)


def _row_norms(rows: np.ndarray) -> np.ndarray:
    # 2-norm of each row, each row divided by its largest magnitude first, so
    # that squares of tiny entries do not underflow and those of huge entries
    # do not overflow; a non-finite row gives NaN
    top = np.abs(rows).max(axis=1)
    unit = rows / np.where(top > 0, top, 1.0)[:, None]
    return top * np.sqrt((unit * unit).sum(axis=1))


@dataclass(frozen=True)
class Bag:
    """An identified collection of instance vectors, optionally labeled.

    ``id`` is a nonempty string, ``instances`` an (m, d) matrix with one
    instance per row, m >= 1.  ``label`` is +1 or -1 (a real, not a bool,
    stored as an int) when known, None for unlabeled inference data.
    """

    id: str
    instances: np.ndarray
    label: int | None = None

    def __post_init__(self):
        # the one bag rule, so that every bag built here saves and loads back
        if not (isinstance(self.id, str) and self.id):
            raise InvalidInputError(f"bag id must be a nonempty string, got {self.id!r}")
        if self.label is not None and not (_is_real(self.label) and self.label in VALID_LABELS):
            raise InvalidInputError(f"bag {self.id!r} label must be +1 or -1, got {self.label!r}")
        object.__setattr__(self, "label", None if self.label is None else int(self.label))
        object.__setattr__(self, "instances", _frozen(self.instances, f"bag {self.id!r} instances", 2))

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
        object.__setattr__(self, "codewords", _frozen(self.codewords, "dictionary codewords", 2))

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
            _check_real(getattr(self, name), name, positive=True)
        _check_int(self.kappa, "kappa", 1)
        for name in ("inner_iters", "max_outer", "seed"):
            _check_int(getattr(self, name), name, 0)


@dataclass(frozen=True)
class SourceModel:
    """A source-domain dictionary plus its bag-level linear classifier."""

    phi: Dictionary
    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "v", _frozen(self.v, "source classifier v", 1))
        if self.v.shape[0] != self.phi.size:
            raise InvalidInputError(
                f"classifier length {self.v.shape[0]} != dictionary size {self.phi.size}"
            )


@dataclass(frozen=True)
class AdaptedModel:
    """A source model extended with a transfer dictionary and adaptation
    weights; scores a bag as the source response plus w . z(bag, psi)."""

    source: SourceModel
    psi: Dictionary
    w: np.ndarray
    hyper: Hyperparams

    def __post_init__(self):
        object.__setattr__(self, "w", _frozen(self.w, "adaptation weights w", 1))
        if self.w.shape[0] != self.psi.size:
            raise InvalidInputError(
                f"adaptation weight length {self.w.shape[0]} != dictionary size {self.psi.size}"
            )
        if self.psi.dim != self.source.phi.dim:
            raise InvalidInputError(
                f"transfer dictionary dimension {self.psi.dim} != source dimension {self.source.phi.dim}"
            )


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
        """Features of every bag, one row per bag; a bag's row does not
        depend on which other bags share the batch."""
        if self.dim != dictionary.dim:
            raise InvalidInputError(
                f"bags have dimension {self.dim} but dictionary has dimension {dictionary.dim}"
            )
        # row k holds every instance's dot with codeword k, so that the
        # per-bag reductions run along contiguous rows
        dots = np.empty((dictionary.size, self.instances.shape[0]))
        for k, word in enumerate(dictionary.codewords):
            dots[k] = _instance_dots(self.instances, word)
        # a C-order copy, so that scoring sums each bag's row in one order
        return np.ascontiguousarray(np.maximum.reduceat(dots, self.starts, axis=1).T)

    @cached_property
    def _bag_norms(self) -> np.ndarray:
        # each bag's largest instance 2-norm, for the argmax certificate;
        # lazy, so that building a batch to score it costs nothing more
        norms = np.maximum.reduceat(_row_norms(self.instances), self.starts)
        norms.setflags(write=False)
        return norms

    def argmax(self, codewords) -> np.ndarray:
        """For each of the (K, d) ``codewords`` and each bag, the index within
        the bag of the instance maximizing the dot product; (K, n), ties
        resolve to the lowest index.

        The picks are those of the row-wise dots that ``embed`` maximizes,
        bit for bit, on any BLAS.  The dots come from one gemm, and a pick
        is taken from it only where a rounding-error bound proves it the
        same; ties, near-ties and dots that could overflow are recomputed
        row-wise.  A NaN dot product raises ``InvalidInputError``.
        """
        codewords = np.asarray(codewords, dtype=np.float64)
        if codewords.ndim != 2 or codewords.shape[1] != self.dim:
            raise InvalidInputError(
                f"codewords must have shape (K, {self.dim}), got {codewords.shape}"
            )
        # Whatever order a gemm sums in, fused or not, its dot and the
        # row-wise dot each lie within gamma_d * sum_j |x_j w_j| <=
        # (d eps / 2) ||w|| ||x|| of the exact value, plus d times the smallest
        # subnormal for products that underflow (Higham, Accuracy and
        # Stability of Numerical Algorithms, 2nd ed., sec. 3.1).  So the two
        # differ by at most D = d eps ||w|| X + d * smallest subnormal, X the
        # bag's largest instance norm.  When exactly one instance has a gemm
        # dot within 2 err = 8 D of the bag's top, its row-wise dot beats
        # every other row-wise dot strictly, with room for the rounding of
        # the threshold itself.
        d, m = self.dim, self.instances.shape[0]
        with np.errstate(over="ignore", invalid="ignore"):
            dots = codewords @ self.instances.T
            top = np.maximum.reduceat(dots, self.starts, axis=1)
            # 2d ||w|| X is infinite, and so is the threshold, wherever a
            # product or partial sum of a dot could overflow (or a codeword
            # is not finite); a finite threshold thus vouches for every dot
            bound = np.multiply.outer(_row_norms(codewords), self._bag_norms) * (2 * d)
            thresholds = top - 2 * (bound * (2 * _EPS) + 4 * d * _TINY)
            near = dots >= np.repeat(thresholds, self.counts, axis=1)
        sure = np.isfinite(thresholds) & (np.add.reduceat(near, self.starts, axis=1, dtype=np.intp) == 1)
        # where exactly one instance is near the top, this sum is its index
        picks = np.add.reduceat(near * np.arange(m), self.starts, axis=1) - self.starts
        if not sure.all():
            for k, i in zip(*np.nonzero(~sure)):
                start = self.starts[i]
                exact = _instance_dots(self.instances[start : start + self.counts[i]], codewords[k])
                hits = np.flatnonzero(exact == exact.max())
                if hits.size == 0:
                    raise InvalidInputError(f"codeword {k} has a NaN dot product with an instance of bag {i}")
                picks[k, i] = hits[0]
        return picks


def embed_bag(bag: Bag, dictionary: Dictionary) -> np.ndarray:
    """Map a bag to its bag-level feature vector.

    Entry k is the maximum dot product between codeword k and the bag's
    instances; the result has length ``dictionary.size``.
    """
    return BagBatch([bag]).embed(dictionary)[0]


def score_source(batch: BagBatch, model: SourceModel) -> np.ndarray:
    """Responses of the source-domain classifier, v . z(bag, phi), one per bag."""
    return _instance_dots(batch.embed(model.phi), model.v)


def score_target(batch: BagBatch, model: AdaptedModel) -> np.ndarray:
    """Responses of the adapted classifier, one per bag: the source score
    plus w . z(bag, psi)."""
    return score_source(batch, model.source) + _instance_dots(batch.embed(model.psi), model.w)


def predict(scores) -> np.ndarray:
    """Binary decisions from real scores; the tie at exactly 0 resolves to +1."""
    scores = np.asarray(scores, dtype=np.float64)
    if not np.all(np.isfinite(scores)):
        raise InvalidInputError("scores must be finite")
    return np.where(scores >= 0, 1, -1)


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
    labels = _check_labeled(train, "training set")
    batch = BagBatch(train)
    source_scores = score_source(batch, model.source)
    z = batch.embed(model.psi)
    return _primal_from_cache(source_scores, z, model.w, labels, model.psi, model.hyper)
