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

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
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


def _embed(bags, codewords):
    # z[i, k] = max over bag i's instances of its dot with codeword k
    return np.array([[_instance_dots(bag.instances, word).max() for word in codewords] for bag in bags])


def _labels(bags):
    return np.array([bag.label for bag in bags], dtype=np.int64)


def _reference_source(bags, iota, c, seed):
    # (phi, v): the source trainer's one cold solve with zero source scores
    phi = init_dictionary(BagBatch(bags), iota, seed).codewords
    prob = DualProblem(features=_embed(bags, phi), margins=np.ones(len(bags)), labels=_labels(bags), c1=c)
    return phi, recover_w(_reference_solve(prob)[0], prob)


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


@st.composite
def _problems(draw):
    # (source bags, target bags, hyper): 3-6 bags per class, d <= 4, kappa <= 4;
    # integer instances force argmax ties, and one instance of each set is
    # nonzero so that init_dictionary always has a pool
    d = draw(st.integers(1, 4), label="d")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="data seed"))
    integral = draw(st.booleans(), label="integer instances")

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

    source = bags("s", draw(st.integers(3, 6), label="source bags per class"))
    target = bags("t", draw(st.integers(3, 6), label="target bags per class"))
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
    return source, target, hyper


def _fixed_problem():
    rng = np.random.default_rng(5)
    return tuple(
        [Bag(id=f"{tag}{i}", label=1 if i % 2 else -1,
             instances=rng.normal(size=(3, 2)) + (1.0 if i % 2 else -1.0)) for i in range(8)]
        for tag in "st"
    )


def _assert_fit_matches(source, target, hyper):
    # fit_dtc on the reference source model against the composed fit
    phi, v = _reference_source(source, hyper.kappa, hyper.c1, hyper.seed)
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
    @given(_problems())
    def test_train_source_matches_the_composed_layers(self, problem):
        source, _, hyper = problem
        model = train_source(source, hyper.kappa, hyper.c1, hyper.seed)
        phi, v = _reference_source(source, hyper.kappa, hyper.c1, hyper.seed)
        assert np.array_equal(model.phi.codewords, phi)
        assert np.array_equal(model.v, v)


# forced workers fork this process even where a multi-threaded BLAS runs;
# Python 3.12 and later warn about that fork
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
class TestReferenceProtocolFold:
    @settings(max_examples=20, deadline=None)
    @given(_problems(), st.integers(2, 4), st.data())
    def test_a_fold_matches_the_composed_layers(self, problem, k, data):
        source, target, hyper = problem
        conventional = data.draw(st.booleans(), label="conventional")
        fold = data.draw(st.integers(0, k - 1), label="fold")
        split = split_folds(target, k, hyper.seed)
        inside = [bag for bag in target if split.assignments[bag.id] == fold]
        outside = [bag for bag in target if split.assignments[bag.id] != fold]
        train, test = (outside, inside) if conventional else (inside, outside)
        phi, v = _reference_source(source, hyper.kappa, hyper.c1, derive_seed(hyper.seed, _SEED_SOURCE))
        fold_hyper = replace(hyper, seed=derive_seed(hyper.seed, _SEED_FIT, fold))
        psi, w, record = _reference_fit(train, phi, v, fold_hyper)
        scores = _instance_dots(_embed(test, phi), v) + _instance_dots(_embed(test, psi), w)
        expected = np.count_nonzero(np.where(scores >= 0, 1, -1) == _labels(test)) / len(test)
        for workers in (2, 1):
            reports = {}
            with mock.patch.object(dtmil.evaluate, "_fold_workers", lambda jobs: workers):
                protocol = run_protocol(source, target, hyper, k, conventional=conventional,
                                        on_fit=lambda f, report: reports.setdefault(f, report))
            _assert_same_record(reports[fold], record)
            assert protocol.per_fold_accuracy[fold] == expected, workers
