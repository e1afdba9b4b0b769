import os
import subprocess
import sys
import tracemalloc

import pytest

import dtmil

# a 40x10 @ 10x10 gemm, whose bytes show whether a forced kernel took effect
_CONTROL_GEMM = """
import hashlib
import numpy as np
rng = np.random.default_rng(0)
print(hashlib.sha256((rng.normal(size=(40, 10)) @ rng.normal(size=(10, 10))).tobytes()).hexdigest())
"""


@pytest.fixture
def traced_peak():
    """``peak(call, *args)``: the most bytes, numpy's buffers included, that
    ``call(*args)`` held at once beyond what was allocated before it."""

    def peak(call, *args):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            call(*args)
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    return peak


@pytest.fixture
def under_two_blas_kernels():
    """``run(code)``: the whitespace-separated words that ``code`` prints in
    a fresh interpreter that imports this dtmil, under the default BLAS
    kernel and under Prescott, as a pair of lists.

    OPENBLAS_CORETYPE forces a kernel of numpy's DYNAMIC_ARCH OpenBLAS;
    Prescott runs on every x86-64 CPU.  A gemm is the control: if its bytes
    match too, forcing the kernel changed nothing here, and the calling
    test is skipped, since it would test nothing.
    """
    path = os.path.dirname(os.path.dirname(dtmil.__file__))
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_CORETYPE"}

    def run(code):
        script = f"import sys\nsys.path.insert(0, {path!r})\n{code}\n{_CONTROL_GEMM}"
        default, prescott = (
            subprocess.run([sys.executable, "-c", script], env={**env, **forced}, capture_output=True,
                           text=True, check=True, timeout=60).stdout.split()
            for forced in ({}, {"OPENBLAS_CORETYPE": "Prescott"})
        )
        if default[-1] == prescott[-1]:
            pytest.skip("forcing the Prescott kernel left a gemm's bytes unchanged, so it tests nothing here")
        return default[:-1], prescott[:-1]

    return run


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print one line per acceptance criterion after the run."""
    module = sys.modules.get("test_acceptance")
    log = getattr(module, "ACCEPTANCE_LOG", None) if module else None
    if log:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in log:
            terminalreporter.write_line(line)
