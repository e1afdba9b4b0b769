import sys
import tracemalloc

import pytest


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


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print one line per acceptance criterion after the run."""
    module = sys.modules.get("test_acceptance")
    log = getattr(module, "ACCEPTANCE_LOG", None) if module else None
    if log:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in log:
            terminalreporter.write_line(line)
