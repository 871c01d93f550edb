"""The mutants of scripts/mutants.py stay applicable to the tree: each edit's
text occurs exactly once in its file, and each recorded killer names a test
that its file defines.  A rewrite that breaks a mutant shows here, without
running the sweep."""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
mutants = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutants)


def _defines(path: Path, names: list[str]) -> bool:
    """Whether the module at path defines the class or function names[0],
    holding names[1], and so on."""
    body = ast.parse(path.read_text(), filename=str(path)).body
    for name in names:
        node = next((n for n in body if isinstance(n, (ast.ClassDef, ast.FunctionDef))
                     and n.name == name), None)
        if node is None:
            return False
        body = node.body
    return True


@pytest.mark.parametrize("name", list(mutants.MUTANTS))
def test_each_edit_occurs_once_in_its_file(name):
    for rel, text, _ in mutants.MUTANTS[name].edits:
        assert (ROOT / rel).read_text().count(text) == 1, f"{text!r} in {rel}"


@pytest.mark.parametrize("name", [n for n, m in mutants.MUTANTS.items() if m.killer])
def test_recorded_killer_is_defined(name):
    path, *names = mutants.MUTANTS[name].killer.split("::")
    names[-1] = names[-1].split("[")[0]   # a parametrized test's function
    assert (ROOT / path).is_file() and _defines(ROOT / path, names)
