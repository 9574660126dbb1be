"""Every public function, class and method of ``spincalc`` has a use.

A name counts as used when ``src/spincalc`` refers to it outside its own
definition, or when README.md names it.  A reference is a name, an
attribute, or a string constant that is exactly the name (``dsl.KINDS``
names its builders by string).  Imports and ``__all__`` do not count:
re-exporting a name is not using it.  Dunders are exempt, and so are the
methods of ``Value``, the protocol every value type shares.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import spincalc
from spincalc._value import Value

SRC = Path(spincalc.__file__).resolve().parent
README = SRC.parent.parent / "README.md"
EXEMPT = set(vars(Value))


def public_definitions(tree: ast.Module) -> list[tuple[str, str]]:
    """(qualified name, name) of each public top-level def and class and each method."""
    out = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            out.append((node.name, node.name))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    out.append((f"{node.name}.{item.name}", item.name))
    return out


class References(ast.NodeVisitor):
    """Counts references to each name, skipping those inside a def of that name."""

    def __init__(self) -> None:
        self.counts: Counter[str] = Counter()
        self.enclosing: list[str] = []

    def note(self, name: str) -> None:
        if name not in self.enclosing:
            self.counts[name] += 1

    def visit_def(self, node) -> None:
        self.enclosing.append(node.name)
        self.generic_visit(node)
        self.enclosing.pop()

    visit_FunctionDef = visit_ClassDef = visit_def

    def visit_Name(self, node: ast.Name) -> None:
        self.note(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self.note(node.attr)
        self.generic_visit(node)

    def visit_Constant(self, node: ast.Constant) -> None:
        if isinstance(node.value, str) and node.value.isidentifier():
            self.note(node.value)

    def visit_Import(self, node) -> None:
        pass

    visit_ImportFrom = visit_Import

    def visit_Assign(self, node: ast.Assign) -> None:
        if not any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            self.generic_visit(node)


def test_no_public_name_is_unused():
    refs = References()
    definitions = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        refs.visit(tree)
        definitions += [(f"{path.stem}.{qual}", name) for qual, name in public_definitions(tree)]
    readme = README.read_text()
    unused = [
        qual for qual, name in definitions
        if name not in EXEMPT
        and not refs.counts[name]
        and not re.search(rf"\b{re.escape(name)}\b", readme)
    ]
    assert unused == []


def test_readme_lists_exactly_the_public_api():
    section = README.read_text().split("The public API is the names in `spincalc.__all__`:")[1]
    listed = re.findall(r"`(\w+)`", section.split("Every other name is internal.")[0])
    assert sorted(listed) == sorted(spincalc.__all__)
