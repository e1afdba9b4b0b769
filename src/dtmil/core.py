"""Core domain types and pure scoring functions.

A *bag* is a set of d-dimensional instance vectors sharing one binary label.
A *dictionary* maps a bag to a fixed-length feature vector whose k-th entry
is the maximum dot product between codeword k and the bag's instances.  A
source-domain model scores a bag linearly in that feature space; an adapted
model adds a correction term computed against a second, transfer dictionary.

A ``BagBatch`` stacks a list of bags once so that embedding, scoring and
argmax assignment run over all of them; it is the only way from a bag list
to scores.  Every dot product here and in ``learn`` is a row-wise sum, the
same bits in any batch and on any BLAS kernel, except the argmax's gemm,
read only where a rounding-error bound proves the row-wise pick; every other
pick is recomputed row-wise.  Embedding is that argmax over blocks of
codewords plus each pick's row-wise dot, so one pass gives features and
picks.  A descent step hands the argmax the previous step's picks,
re-certified against the same bound.
Everything in this module is immutable after construction (a batch's
instance norms are cached on first use, deterministically); all functions
may be called concurrently without coordination.
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
_REAL_TYPES = (int, float, np.integer, np.floating)
# dots a block of the embedding's argmax holds (256 kB), one codeword's at least
_EMBED_CELLS = 1 << 15


def _frozen(values, name: str, ndim: int) -> np.ndarray:
    # the one rule for float arrays, in memory or from JSON: a nonempty,
    # finite ndim-D float64 copy of real numbers, frozen so that the caller's
    # array stays writable.  Conversion alone takes "1.5", True or 1+2j, so a
    # non-ndarray's distinct element types are checked first (bool is an int)
    try:
        if isinstance(values, np.ndarray):
            real = values.dtype.kind in "iuf"
        else:
            kinds = {type(x) for row in (values if ndim == 2 else [values]) for x in row}
            real = all(issubclass(kind, _REAL_TYPES) and kind is not bool for kind in kinds)
        arr = np.array(values, dtype=np.float64, order="C") if real else None
    except OverflowError:  # an int beyond float range, as non-finite as 1e999
        raise InvalidInputError(f"{name} contains non-finite entries") from None
    except (TypeError, ValueError):  # a scalar where a row belongs, or ragged rows
        arr = None
    if arr is None or arr.ndim != ndim or arr.size == 0:
        raise InvalidInputError(f"{name} must be a nonempty {ndim}-D array of real numbers")
    if not np.isfinite(arr).all():
        raise InvalidInputError(f"{name} contains non-finite entries")
    arr.setflags(write=False)
    return arr


def _check_labels(labels) -> np.ndarray:
    # the one label-vector rule: the array rule (no bool), each entry +1 or -1
    arr = _frozen(labels, "labels", 1)
    if not set(arr.tolist()) <= set(VALID_LABELS):
        raise InvalidInputError("labels must be +1 or -1")
    return arr.astype(np.int64)


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


def _check_match(value: int, expected: int, what: str, against: str) -> None:
    # the one rule for two sizes that must agree (a length, dimension or
    # count against another's): the error names both sides and both values
    if value != expected:
        raise InvalidInputError(f"{what} {value} does not match {against} {expected}")


def _instance_dots(instances: np.ndarray, codeword: np.ndarray) -> np.ndarray:
    # Row-wise sums over the last axis keep each dot product bit-identical
    # however many other rows share the array, in any order and on any BLAS
    # kernel; a BLAS dot or gemm guarantees neither.  Every dot of this module
    # and of ``learn`` goes through here, except the argmax's certified gemm.
    return (instances * codeword).sum(axis=-1)


def _row_norms(rows: np.ndarray) -> np.ndarray:
    # 2-norm of each row, divided by its largest magnitude first so that squares
    # of tiny entries do not underflow nor huge ones overflow, squared in place
    # (one (M, d) copy at a time); a non-finite row gives NaN
    top = np.abs(rows).max(axis=1)
    unit = rows / np.where(top > 0, top, 1.0)[:, None]
    return top * np.sqrt(np.square(unit, out=unit).sum(axis=1))


def _unit_rows(rows: np.ndarray) -> np.ndarray:
    # each nonzero finite row divided by its largest magnitude, then by its
    # norm, which then lies in [1, sqrt(d)] and so neither over- nor underflows
    unit = rows / np.abs(rows).max(axis=1)[:, None]
    return unit / np.sqrt(_instance_dots(unit, unit))[:, None]


def _certified_picks(dots, firsts, counts, margins) -> np.ndarray:
    # the pick of each segment of ``dots``' last axis that starts at one of
    # ``firsts``, where exactly one dot is at or above the segment's top
    # minus its margin (see BagBatch._argmax), and -1 where not
    thresholds = np.maximum.reduceat(dots, firsts, axis=-1) - margins
    near = dots >= np.repeat(thresholds, counts, axis=-1)
    sure = np.isfinite(thresholds) & (np.add.reduceat(near, firsts, axis=-1, dtype=np.intp) == 1)
    # where exactly one dot is near the top, this sum is its index
    picks = np.add.reduceat(near * np.arange(dots.shape[-1]), firsts, axis=-1) - firsts
    return np.where(sure, picks, -1)


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
        _check_match(self.v.shape[0], self.phi.size, "classifier length", "dictionary size")


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
        _check_match(self.w.shape[0], self.psi.size, "adaptation weight length", "dictionary size")
        _check_match(self.psi.dim, self.source.phi.dim, "transfer dictionary dimension", "source dimension")


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
        for bag in bags:
            _check_match(bag.dim, bags[0].dim, f"bag {bag.id!r} dimension", "first bag dimension")
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
        _check_match(self.dim, dictionary.dim, "bag dimension", "dictionary dimension")
        return self._embed(dictionary.codewords)[0]

    def _embed(self, codewords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # (features, ``argmax``'s table): a feature is the row-wise dot of its
        # certified argmax instance, np.maximum.reduceat's value (NaN for a NaN
        # dot); no (K, M) array exists; C order, so scoring sums a row one way
        features = np.empty((len(self), codewords.shape[0]))
        picks = np.empty((codewords.shape[0], len(self)), dtype=np.intp)
        block = max(1, _EMBED_CELLS // self.instances.shape[0])
        for lo in range(0, codewords.shape[0], block):
            picks[lo : lo + block] = self._argmax(codewords[lo : lo + block], nan_picks=True)
            rows = self.instances[self.starts + picks[lo : lo + block]]
            features[:, lo : lo + block] = _instance_dots(rows, codewords[lo : lo + block, None]).T
        return features, picks

    @cached_property
    def _bag_norms(self) -> np.ndarray:
        # each bag's largest instance 2-norm, for the argmax certificate;
        # lazy, so that building a batch costs nothing more
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
        codewords = _frozen(codewords, "codewords", 2)
        _check_match(codewords.shape[1], self.dim, "codeword dimension", "bag dimension")
        return self._argmax(codewords)

    def _argmax(self, codewords: np.ndarray, previous: np.ndarray | None = None, nan_picks=False) -> np.ndarray:
        # argmax of checked codewords; of a (K, n) table ``previous`` of
        # in-range indices it keeps the picks the certificate below still
        # proves, and re-certifies the other cells: the same picks for any table.
        # A NaN dot raises, or with ``nan_picks`` picks the bag's first one
        # Whatever order a gemm sums in, fused or not, its dot and the
        # row-wise dot each lie within gamma_d * sum_j |x_j w_j| <=
        # (d eps / 2) ||w|| ||x|| of the exact value, plus d times the smallest
        # subnormal for products that underflow (Higham, Accuracy and
        # Stability of Numerical Algorithms, 2nd ed., sec. 3.1).  So the two
        # differ by at most D = d eps ||w|| X + d * smallest subnormal, X the
        # bag's largest instance norm.  When exactly one instance has a gemm
        # dot within 2 err = 8 D of the bag's top, its row-wise dot beats
        # every other row-wise dot strictly, with room for the rounding of
        # the threshold itself.  A previous pick whose gemm dot is the only
        # one within 8 D of its own is the top, and so passes the same test.
        d, m = self.dim, self.instances.shape[0]
        with np.errstate(over="ignore", invalid="ignore"):
            dots = codewords @ self.instances.T
            # 2d ||w|| X is infinite, and so is the margin, wherever a
            # product or partial sum of a dot could overflow; a finite
            # threshold thus vouches for every dot
            bound = np.multiply.outer(_row_norms(codewords), self._bag_norms) * (2 * d)
            margins = 2 * (bound * (2 * _EPS) + 4 * d * _TINY)
            if previous is None:
                picks = _certified_picks(dots, self.starts, self.counts, margins)
            else:
                # where each cell's segment and previous pick sit in the flat dots
                flat = dots.ravel()
                firsts = np.arange(0, flat.size, m)[:, None] + self.starts
                at = firsts + previous
                thresholds = flat[at] - margins
                near = dots >= np.repeat(thresholds, self.counts, axis=1)
                near.ravel()[at] = False
                # the cells where another instance comes near go through the
                # certificate again, their segments gathered flat (a 1-D
                # nonzero is far cheaper than a 2-D one)
                redo = ~np.isfinite(thresholds)
                j = np.flatnonzero(near)
                redo[j // m, np.searchsorted(self.starts, j % m, side="right") - 1] = True
                cells = np.flatnonzero(redo)
                counts = self.counts[cells % len(self)]
                offsets = np.cumsum(counts) - counts
                segments = np.arange(counts.sum()) + np.repeat(firsts.ravel()[cells] - offsets, counts)
                picks = previous.copy()
                picks.ravel()[cells] = _certified_picks(flat[segments], offsets, counts, margins.ravel()[cells])
        for cell in np.flatnonzero(picks < 0):
            k, i = divmod(int(cell), picks.shape[1])
            start = self.starts[i]
            exact = _instance_dots(self.instances[start : start + self.counts[i]], codewords[k])
            hits = np.flatnonzero((exact == exact.max()) | (nan_picks & np.isnan(exact)))
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
    """Binary decisions from a 1-D array of real scores; the tie at exactly 0 resolves to +1."""
    return np.where(_frozen(scores, "scores", 1) >= 0, 1, -1)


def _primal_from_cache(
    source_scores: np.ndarray,
    z: np.ndarray,
    w: np.ndarray,
    labels: np.ndarray,
    psi: Dictionary,
    hyper: Hyperparams,
) -> float:
    # the primal formula, from precomputed source scores and psi features
    hinges = np.maximum(0.0, 1.0 - labels * (source_scores + _instance_dots(z, w)))
    return (
        float(np.mean(hinges))
        + 0.5 * hyper.c1 * float(_instance_dots(w, w))
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
