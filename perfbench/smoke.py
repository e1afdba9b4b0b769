"""Smoke test of the benchmark harness at tiny sizes, with tracing on and off.

    python3 -m pytest -q perfbench/smoke.py

Kept out of the repository's test suite (pytest collects only ``test_*.py``)
so that it adds nothing to that suite's run time; it takes a few seconds.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run._prepare_imports()

import dtmil  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_lists_every_workload():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(name):
    result, record = run.run_workload(name, seed=0, seconds=0.05, trace=False, tiny=True)
    assert result["correct"], record["failures"]
    assert result["attempted"] >= workloads.WORKLOADS[name].inputs
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert record["meta"]["src_lines"] > 0


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_run_reports_every_layer_metric(name):
    result, record = run.run_workload(name, seed=0, seconds=0.05, trace=True, tiny=True)
    assert result["correct"], record["failures"]
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["per_layer"]]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["trace.unattributed_frac"] < 0.05
    if name == "cli-score-io":
        assert metrics["qp.solves"] == 0 and metrics["learn.fits"] == 0
        assert metrics["cli.commands"] == 4 and metrics["data.bytes_written"] > 0
    else:
        assert metrics["qp.solves"] > 0 and metrics["qp.sweeps"] > 0


def test_self_times_add_up_to_the_unit():
    tracer = tracing.Tracer()
    inputs = workloads.WORKLOADS["protocol-quick"].setup(0, run.OUT_DIR, True)
    with tracer.installed(), tracer.unit(0):
        workloads.WORKLOADS["protocol-quick"].unit(inputs)
    spans = tracer.spans
    child = {}
    for span in spans:
        if span.parent is not None:
            child[span.parent] = child.get(span.parent, 0.0) + span.duration
    total_self = sum(span.duration - child.get(span.id, 0.0) for span in spans)
    assert total_self == pytest.approx(spans[0].duration, rel=1e-9)
    assert {span.unit for span in spans} == {0}


def test_install_fails_when_a_call_site_no_longer_refers_to_the_function(monkeypatch):
    # a module that stopped importing solve_box_qp by name (say, after a
    # refactor) must make the traced run fail, not report zero sweeps
    monkeypatch.setattr(dtmil.learn, "solve_box_qp", lambda *a, **k: None)
    with pytest.raises(RuntimeError, match="dtmil.learn.solve_box_qp"):
        tracing.Tracer().install()
    assert dtmil.qp.solve_box_qp.__module__ == "dtmil.qp"
    assert not hasattr(dtmil.qp.solve_box_qp, "__wrapped__")


def test_install_fails_when_a_traced_function_is_gone(monkeypatch):
    monkeypatch.delattr(dtmil.learn, "update_codeword")
    with pytest.raises(RuntimeError, match="update_codeword"):
        tracing.Tracer().install()


def test_uninstall_restores_every_original():
    originals = {(m, f): getattr(sys.modules[m], f) for m, f, _, _ in tracing.TRACED}
    tracer = tracing.Tracer()
    with tracer.installed():
        assert hasattr(dtmil.learn.fit_dtc, "__wrapped__")
    assert all(getattr(sys.modules[m], f) is fn for (m, f), fn in originals.items())
