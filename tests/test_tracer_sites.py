"""The benchmark tracer's call sites, checked in the unit suite.

``perfbench/tracer.py`` wraps dtmil functions at the module attributes through
which the benchmark reaches them, and refuses to install if one is missing.
Installing it here makes a rename or re-import that breaks a traced site fail
the unit tests, not only the benchmark's smoke test.
"""

import importlib.util
import sys
from pathlib import Path

import dtmil
import dtmil.cli  # noqa: F401  (the tracer wraps its call sites too)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer(monkeypatch):
    # loaded from its file without writing bytecode next to it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("dtmil_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def dtmil_attributes():
    return {
        (name, attr): value
        for name, mod in sys.modules.items()
        if name == "dtmil" or name.startswith("dtmil.")
        for attr, value in vars(mod).items()
    }


def test_install_wraps_every_call_site_and_uninstall_restores(monkeypatch):
    tracer = load_tracer(monkeypatch)
    before = dtmil_attributes()
    t = tracer.Tracer()
    t.install()
    try:
        for func, sites in tracer.CALL_SITES.items():
            for site in sites:
                assert hasattr(getattr(sys.modules[site], func), "__wrapped__"), f"{site}.{func}"
    finally:
        t.uninstall()
    after = dtmil_attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_counters_follow_one_fit(monkeypatch):
    # the per-layer counters read update_codeword's ``hyper`` argument and
    # count one span per dictionary update, i.e. one per outer round
    tracer = load_tracer(monkeypatch)
    config = dtmil.SynthConfig(bags_per_class_source=6, bags_per_class_target=6, instances_per_bag=(2, 4))
    source, target = dtmil.generate_synthetic(config, 3)
    source_model = dtmil.train_source(source, 3, 1.0, 3)
    hyper = dtmil.Hyperparams(kappa=3, inner_iters=2, max_outer=3, tol=1e-12, seed=3)
    t = tracer.Tracer()
    with t.installed(), t.unit(0):
        _, report = dtmil.fit_dtc(target, source_model, hyper)
    metrics = tracer.layer_metrics(t.spans)
    assert report.outer_iterations == 3
    assert metrics["learn.codeword_updates"] == report.outer_iterations
    assert metrics["learn.descent_steps"] == report.outer_iterations * hyper.inner_iters
    assert metrics["learn.fits"] == 1
