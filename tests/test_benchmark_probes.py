"""The benchmark's probe list still names functions that exist.

``benchmarks/spans.py`` wraps handrift functions by name, and entering its
``Tracer`` raises AttributeError for a probe whose target was renamed or
removed. Entering it here makes such a rename fail this suite, not only the
benchmark's own tests.
"""

import importlib.util
import sys
from pathlib import Path

from handrift import denoiser

SPANS = Path(__file__).resolve().parent.parent / "benchmarks" / "spans.py"


def test_benchmark_tracer_installs_every_probe_and_restores():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = spans
    try:
        spec.loader.exec_module(spans)
        original = denoiser.Denoiser.forward_free
        with spans.Tracer():
            assert denoiser.Denoiser.forward_free is not original
        assert denoiser.Denoiser.forward_free is original
    finally:
        del sys.modules[spec.name]
