"""Guard: every public function, class and method in the package has a
caller outside the tests.

A public function or class counts as used when it appears as an
identifier (a name or an attribute) anywhere in `src/` or `scripts/` other
than its own definition, or as a word in `pyproject.toml`.  A public method
counts as used only as an attribute (`.name`) or such a word, so a local
variable that shares its name does not count.  Matching is by name, so a
method shares its uses with every other attribute of the same name.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "contact_stab"

# Kept without a caller outside the tests: acceptance-criterion and
# reference functions, and the reader of the snapshot format.
ALLOWED = {
    "first_variation",
    "boundary_quadratic_form",
    "two_sided_signature",
    "w_congruence_check",
    "characteristic_speeds",
    "bc_residual",
    "read_snapshot",
}


def _public_definitions():
    """(qualified name, bare name, is_method) of each public def and class."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            if not isinstance(node, defs) or node.name.startswith("_"):
                continue
            yield f"{path.stem}.{node.name}", node.name, False
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, defs[:2]) and not item.name.startswith("_"):
                        yield f"{path.stem}.{node.name}.{item.name}", item.name, True


def _used_names() -> tuple[set[str], set[str]]:
    """(bare names, attribute names) used in the sources; both hold the
    words of `pyproject.toml`."""
    names: set[str] = set()
    attrs: set[str] = set()
    sources = list((ROOT / "src").rglob("*.py")) + list((ROOT / "scripts").rglob("*.py"))
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
    words = set(re.findall(r"[A-Za-z_]\w*", (ROOT / "pyproject.toml").read_text()))
    return names | words, attrs | words


def test_no_public_code_is_reached_only_from_tests():
    names, attrs = _used_names()
    unused = sorted(qual for qual, name, is_method in _public_definitions()
                    if name not in attrs and (is_method or name not in names)
                    and name not in ALLOWED)
    assert not unused, "public code with no caller outside the tests: " + ", ".join(unused)


def test_allowlist_names_existing_definitions():
    defined = {name for _, name, _ in _public_definitions()}
    assert ALLOWED <= defined, sorted(ALLOWED - defined)
