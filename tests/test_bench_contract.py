"""The names of ``hooksq`` that the benchmark in ``bench/`` relies on.

The bench tracer patches functions by (module, attribute) and its child
process imports a few names directly; a rename would otherwise show only
when the benchmark runs.  ``bench/tracing.py`` is read with ``runpy``,
which writes no bytecode next to it.
"""

import importlib
import runpy
from pathlib import Path

import pytest

TRACING = runpy.run_path(str(Path(__file__).resolve().parent.parent / "bench" / "tracing.py"))


@pytest.mark.parametrize(
    "module, attribute",
    [(module, name) for module, name, _ in TRACING["PATCHES"] + TRACING["GENERATOR_PATCHES"]],
)
def test_traced_names_exist(module, attribute):
    assert callable(getattr(importlib.import_module(module), attribute))


def test_child_imports_exist():
    # bench/child.py parses each table with the class it imports from the
    # oracle's module, and reads the row cache's statistics through the
    # tracer's wrapper
    import hooksq.characters as characters
    from hooksq.characters import MultiplicityTable

    assert callable(MultiplicityTable.from_json_dict)
    assert characters.irreducible_character.cache_info().maxsize is None
