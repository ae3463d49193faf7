"""The benchmark's per-layer spans still find the library names they wrap.

``perfbench/spans.py`` times each layer by replacing names that the pipeline
modules import, and records a name that no longer exists as absent instead of
failing.  A rename in ``src/`` would so turn one per-layer metric into a
silent zero; this test fails on any absent target beyond those already known.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# Targets the library no longer defines: a benchmark change may drop them.
KNOWN_ABSENT = {
    "smoothcert.runtime.certify_rayleigh_closed_form",
    "smoothcert.runtime.certify_inverse_rayleigh",
    "smoothcert.runtime.log_space_radius",
    "smoothcert.realistic.certify_rayleigh",
}


def test_no_more_wrap_targets_are_absent(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    tracer = spans.Tracer()
    with tracer.installed(spans.library_targets(tracer)):
        pass
    assert set(tracer.absent) <= KNOWN_ABSENT
