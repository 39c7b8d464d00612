"""The benchmark's trace points still resolve, and every import kept only
for them still has a trace point.

``perfbench/tracing.py`` wraps greedylab functions where their callers look
them up; a site that no longer exists breaks only traced benchmark runs.  A
module that imports a name it never calls, marked ``# noqa: F401``, keeps it
only for such a site; once the site is gone, the import is dead code.
These tests read the site table and change nothing in ``perfbench/``.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_TRACING = _ROOT / "perfbench" / "tracing.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize("span,owner,attr", [
    (span, owner, attr) for span, sites in tracing.SITES.items() for owner, attr in sites])
def test_trace_site_resolves(span, owner, attr):
    assert callable(tracing.site_object(tracing.owner_of(owner), attr)), span


def trace_only_imports() -> list[tuple[str, str]]:
    """(module, name) of every ``# noqa: F401`` import under src/greedylab."""
    found = []
    for path in sorted((_ROOT / "src" / "greedylab").glob("*.py")):
        lines = path.read_text().splitlines()
        module = "greedylab" if path.stem == "__init__" else f"greedylab.{path.stem}"
        for node in ast.walk(ast.parse("\n".join(lines))):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                    "noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
                found += [(module, alias.asname or alias.name) for alias in node.names]
    return found


def test_trace_only_imports_are_trace_sites():
    sites = {site for sites in tracing.SITES.values() for site in sites}
    for module, name in trace_only_imports():
        assert (module, name) in sites, (
            f"{module} imports {name} for a trace site that perfbench/tracing.py "
            f"no longer has; delete the import")
