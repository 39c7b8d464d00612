"""The benchmark's trace points still resolve.

``perfbench/tracing.py`` wraps greedylab functions where their callers look
them up; a site that no longer exists breaks only traced benchmark runs.
This test reads the site table and changes nothing in ``perfbench/``.
"""

import importlib.util
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize("span,owner,attr", [
    (span, owner, attr) for span, sites in tracing.SITES.items() for owner, attr in sites])
def test_trace_site_resolves(span, owner, attr):
    assert callable(tracing.site_object(tracing.owner_of(owner), attr)), span
