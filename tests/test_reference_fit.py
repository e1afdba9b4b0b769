"""The whole fit against a composition of the layer oracles, bit for bit.

``_reference_fit`` joins the exact per-layer references: per-bag features
from ``_instance_dots``, ``DualProblem`` for the Gram, ``_reference_solve``
(test_qp) warm-started from the last beta, ``_reference_update_codeword``
(test_learn) once per codeword, and the same ``tol`` rule.  Each layer has
its own exact test; this one checks the joins between them: the warm
start, the dual recorded per round, the stop rule and the final embedding.
Beyond the types it shares only ``DualProblem``, ``init_dictionary``,
``dual_value`` and ``recover_w`` with the code under test, and
``split_folds`` and ``derive_seed`` for a protocol fold's inputs.
"""

import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_learn import _reference_update_codeword
from test_qp import _reference_solve

import dtmil.evaluate
from dtmil import (
    Bag,
    BagBatch,
    Dictionary,
    DualProblem,
    Hyperparams,
    SourceModel,
    dual_value,
    fit_dtc,
    init_dictionary,
    recover_w,
    run_protocol,
    split_folds,
    train_source,
)
from dtmil.core import _instance_dots
from dtmil.evaluate import _SEED_FIT, _SEED_SOURCE, derive_seed
from dtmil.qp import DEFAULT_MAX_SWEEPS


def _embed(bags, codewords):
    # z[i, k] = max over bag i's instances of its dot with codeword k
    return np.array([[_instance_dots(bag.instances, word).max() for word in codewords] for bag in bags])


def _labels(bags):
    return np.array([bag.label for bag in bags], dtype=np.int64)


def _reference_source(bags, iota, c, seed):
    # (phi, v, capped): the source trainer's one cold solve with zero
    # source scores, and the warnings it issues: one, naming the seed and the
    # bag count, when that solve stops at its sweep cap
    phi = init_dictionary(BagBatch(bags), iota, seed).codewords
    prob = DualProblem(features=_embed(bags, phi), margins=np.ones(len(bags)), labels=_labels(bags), c1=c)
    beta, _, _, converged = _reference_solve(prob)
    capped = [] if converged else [
        f"source training: dual solve stopped at its sweep cap after {DEFAULT_MAX_SWEEPS} sweeps "
        f"without converging (seed {seed}, {len(bags)} bags)"
    ]
    return phi, recover_w(beta, prob), capped


def _runtime_warnings(call, *args, **kwargs):
    # (call's value, the text of every RuntimeWarning it issued); any other
    # warning still meets the suite's filters
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        value = call(*args, **kwargs)
    return value, [str(w.message) for w in caught]


def _reference_fit(bags, phi, v, hyper):
    """(psi, w, record): the alternating fit, one layer oracle per step.

    ``record`` holds every round's warm-start and solved dual, whether the
    ``tol`` rule stopped the loop, and the final dual and beta.
    """
    batch, labels = BagBatch(bags), _labels(bags)
    margins = 1.0 - labels * _instance_dots(_embed(bags, phi), v)
    psi = init_dictionary(batch, hyper.kappa, hyper.seed).codewords
    beta = np.zeros(len(bags))
    record = {"warm": [], "duals": [], "converged": False}
    for outer in range(hyper.max_outer):
        prob = DualProblem(features=_embed(bags, psi), margins=margins, labels=labels, c1=hyper.c1)
        record["warm"].append(dual_value(beta, prob))
        beta, objective, _, _ = _reference_solve(prob, beta)
        record["duals"].append(objective)
        tally = {"tie": 0, "cap": 0}
        psi = np.vstack([_reference_update_codeword(word, batch, beta, labels, hyper, tally) for word in psi])
        if outer >= 1:
            prev, curr = record["duals"][-2:]
            if abs(curr - prev) < hyper.tol * max(abs(prev), 1e-12):
                record["converged"] = True
                break
    prob = DualProblem(features=_embed(bags, psi), margins=margins, labels=labels, c1=hyper.c1)
    if hyper.max_outer == 0:
        beta = _reference_solve(prob)[0]
    record["final_dual"], record["final_beta"] = dual_value(beta, prob), beta
    return psi, recover_w(beta, prob), record


def _assert_same_record(report, record):
    assert np.array_equal(report.final_beta, record["final_beta"])
    assert (report.warm_start_dual_values, report.dual_values, report.converged, report.final_dual_value) \
        == (record["warm"], record["duals"], record["converged"], record["final_dual"])


def _problem(d, data_seed, integral, source_per_class, target_per_class, hyper):
    # (source bags, target bags, hyper): integer instances force argmax ties,
    # and one instance of each set is nonzero so that init_dictionary always
    # has a pool
    rng = np.random.default_rng(data_seed)

    def bags(tag, per_class):
        out = []
        for i in range(2 * per_class):
            size = (int(rng.integers(1, 5)), d)
            if integral:
                rows = rng.integers(-3, 4, size=size).astype(float)
            else:
                rows = rng.normal(size=size) + (1.0 if i % 2 else -1.0)
            if i == 0:
                rows[0] = 1.0
            out.append(Bag(id=f"{tag}{i}", label=1 if i % 2 else -1, instances=rows))
        return out

    return bags("s", source_per_class), bags("t", target_per_class), hyper


@st.composite
def _problems(draw):
    # 3-6 bags per class, d <= 4, kappa <= 4
    d = draw(st.integers(1, 4), label="d")
    data_seed = draw(st.integers(0, 2**32 - 1), label="data seed")
    integral = draw(st.booleans(), label="integer instances")
    source_per_class = draw(st.integers(3, 6), label="source bags per class")
    target_per_class = draw(st.integers(3, 6), label="target bags per class")
    hyper = Hyperparams(
        c1=draw(st.sampled_from([0.05, 1.0, 4.0]), label="c1"),
        c2=draw(st.sampled_from([0.01, 0.1, 1.0]), label="c2"),
        kappa=draw(st.integers(1, 4), label="kappa"),
        eta=draw(st.sampled_from([0.01, 0.3]), label="eta"),
        inner_iters=draw(st.integers(0, 5), label="inner_iters"),
        max_outer=draw(st.integers(0, 3), label="max_outer"),
        tol=draw(st.sampled_from([1e-4, 0.05, 0.5]), label="tol"),
        seed=draw(st.integers(0, 1000), label="seed"),
    )
    return _problem(d, data_seed, integral, source_per_class, target_per_class, hyper)


# a draw of _problems whose source solve stops at its sweep cap, at seed 50
# and at the source seed a protocol derives from seed 317 (both sample the
# same codeword): two of its features, 3.227691 and 3.225978, nearly tie, so
# exact coordinate ascent needs 23 511 sweeps, past DEFAULT_MAX_SWEEPS
_CAPPED = _problem(4, 77744, False, 6, 6, Hyperparams(
    c1=0.05, c2=0.1, kappa=1, eta=0.01, inner_iters=0, max_outer=1, tol=0.5, seed=317))
_CAPPED_SEED = 50


def _fixed_problem():
    rng = np.random.default_rng(5)
    return tuple(
        [Bag(id=f"{tag}{i}", label=1 if i % 2 else -1,
             instances=rng.normal(size=(3, 2)) + (1.0 if i % 2 else -1.0)) for i in range(8)]
        for tag in "st"
    )


def _assert_fit_matches(source, target, hyper):
    # fit_dtc on the reference source model against the composed fit
    phi, v, _ = _reference_source(source, hyper.kappa, hyper.c1, hyper.seed)
    model, report = fit_dtc(target, SourceModel(phi=Dictionary(codewords=phi), v=v), hyper)
    psi, w, record = _reference_fit(target, phi, v, hyper)
    assert np.array_equal(model.psi.codewords, psi)
    assert np.array_equal(model.w, w)
    _assert_same_record(report, record)
    return record


class TestReferenceFit:
    @settings(max_examples=30, deadline=None)
    @given(_problems())
    def test_fit_dtc_matches_the_composed_layers(self, problem):
        _assert_fit_matches(*problem)

    @pytest.mark.parametrize("tol, max_outer, rounds, converged", [
        (0.5, 3, 2, True), (1e-12, 3, 3, False), (1e-4, 0, 0, False),
    ], ids=["tol", "budget", "cold"])
    def test_each_exit_of_the_fit_loop(self, tol, max_outer, rounds, converged):
        # one fixed fit through each exit: the stop rule, the spent budget
        # and the single cold solve, whatever the draws above reach
        hyper = Hyperparams(kappa=3, inner_iters=5, eta=0.3, max_outer=max_outer, tol=tol, seed=1)
        record = _assert_fit_matches(*_fixed_problem(), hyper)
        assert (len(record["duals"]), record["converged"]) == (rounds, converged)

    @settings(max_examples=30, deadline=None)
    @example(problem=(*_CAPPED[:2], replace(_CAPPED[2], seed=_CAPPED_SEED)))
    @given(_problems())
    def test_train_source_matches_the_composed_layers(self, problem):
        source, _, hyper = problem
        model, caught = _runtime_warnings(train_source, source, hyper.kappa, hyper.c1, hyper.seed)
        phi, v, capped = _reference_source(source, hyper.kappa, hyper.c1, hyper.seed)
        assert np.array_equal(model.phi.codewords, phi)
        assert np.array_equal(model.v, v)
        assert caught == capped

    def test_the_pinned_draws_stop_at_the_sweep_cap(self):
        # so that the @example draws above and below test the warning
        source, _, hyper = _CAPPED
        for seed in (_CAPPED_SEED, derive_seed(hyper.seed, _SEED_SOURCE)):
            assert _reference_source(source, hyper.kappa, hyper.c1, seed)[2]


# forced workers fork this process even where a multi-threaded BLAS runs;
# Python 3.12 and later warn about that fork
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
class TestReferenceProtocolFold:
    @settings(max_examples=20, deadline=None)
    @example(problem=_CAPPED, k_fold=(2, 0), conventional=False)
    @given(_problems(), st.integers(2, 4).flatmap(lambda k: st.tuples(st.just(k), st.integers(0, k - 1))),
           st.booleans())
    def test_a_fold_matches_the_composed_layers(self, problem, k_fold, conventional):
        source, target, hyper = problem
        k, fold = k_fold
        split = split_folds(target, k, hyper.seed)
        inside = [bag for bag in target if split.assignments[bag.id] == fold]
        outside = [bag for bag in target if split.assignments[bag.id] != fold]
        train, test = (outside, inside) if conventional else (inside, outside)
        phi, v, capped = _reference_source(source, hyper.kappa, hyper.c1, derive_seed(hyper.seed, _SEED_SOURCE))
        fold_hyper = replace(hyper, seed=derive_seed(hyper.seed, _SEED_FIT, fold))
        psi, w, record = _reference_fit(train, phi, v, fold_hyper)
        scores = _instance_dots(_embed(test, phi), v) + _instance_dots(_embed(test, psi), w)
        expected = np.count_nonzero(np.where(scores >= 0, 1, -1) == _labels(test)) / len(test)
        for workers in (2, 1):
            reports = {}
            with mock.patch.object(dtmil.evaluate, "_fold_workers", lambda jobs: workers):
                protocol, caught = _runtime_warnings(
                    run_protocol, source, target, hyper, k, conventional=conventional,
                    on_fit=lambda f, report: reports.setdefault(f, report))
            # the shared source model trains in the caller, so its capped
            # solve warns here; each fold's baseline goes to its report
            assert caught == capped, workers
            _assert_same_record(reports[fold], record)
            assert protocol.per_fold_accuracy[fold] == expected, workers
