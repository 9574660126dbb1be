"""The construction expression language: parser, printer, evaluator.

Grammar (whitespace insensitive, one expression per input):

    expr := "S" "(" nat ")" | "CP" "(" nat ")" | "Sigma" "(" nat ")"
          | "L" "(" nat "," nat ")" | "N" "(" nat ")" | "IHS3"
          | "E" "(" nat "," int ")"
          | "spin" "(" nat "," expr ")"
          | "csum" "(" expr "," expr ")"
          | "prod" "(" expr "," expr ")"

Node kinds are declared in one place, :data:`KINDS`: a row per AST
class with the kinds of its fields and its construction in
:mod:`construct`.  The parser, the unknown-name message and
:func:`evaluate` read that table; the DSL name is the class's ``name``,
which ``str`` prints, so printing an AST round-trips through :func:`parse`.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from . import construct
from .construct import ConstructionExpr, ManifoldDescriptor

NAT, INT, EXPR = "nat", "int", "expr"


class Kind(NamedTuple):
    node: type[ConstructionExpr]
    fields: tuple[str, ...]  # NAT, INT or EXPR per field (``__match_args__``), in order
    # the construction in ``construct``, looked up by name at each call so
    # that a rebound module attribute (a tracing wrapper) is the one called
    build: str


KINDS = (
    Kind(construct.Sphere, (NAT,), "sphere"),
    Kind(construct.CP, (NAT,), "cp"),
    Kind(construct.Surface, (NAT,), "surface"),
    Kind(construct.Lens, (NAT, NAT), "lens"),
    Kind(construct.DehnRHS, (NAT,), "dehn_rhs"),
    Kind(construct.IHS3, (), "ihs3"),
    Kind(construct.Bundle, (NAT, INT), "bundle"),
    Kind(construct.Spin, (NAT, EXPR), "spin"),
    Kind(construct.CSum, (EXPR, EXPR), "connected_sum"),
    Kind(construct.Prod, (EXPR, EXPR), "product"),
)
_BY_NAME = {kind.node.name: kind for kind in KINDS}
_BY_NODE = {kind.node: kind for kind in KINDS}


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


_TOKEN_RE = re.compile(
    r"(?P<name>[A-Za-z][A-Za-z0-9]*)|(?P<int>-?\d+)|(?P<punct>[(),])|(?P<other>\S)"
)


def _error(text: str, offset: int, message: str) -> ParseError:
    """A ParseError at ``offset``, with its 1-based line and column."""
    column = offset - text.rfind("\n", 0, offset)
    return ParseError(message, text.count("\n", 0, offset) + 1, column)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, offset) per token; kind is "name", "int", "(", ")", "," or "end"."""
    tokens = []
    for match in _TOKEN_RE.finditer(text):
        kind, tok = match.lastgroup, match.group()
        if kind == "punct":
            kind = tok
        elif kind == "other":
            # any other single letter (``str.isalpha``) is a name
            if not tok.isalpha():
                raise _error(text, match.start(), f"unexpected character {tok!r}")
            kind = "name"
        tokens.append((kind, tok, match.start()))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def expect(self, kind: str, what: str | None = None) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            shown = tok[1] or "end of input"
            raise _error(self.text, tok[2], f"expected {what or kind!r}, found {shown!r}")
        self.pos += 1
        return tok

    def parse_int(self, nonnegative: bool = False) -> int:
        _, text, offset = self.expect("int", "an integer")
        value = int(text)
        if nonnegative and value < 0:
            raise _error(self.text, offset, f"expected a nonnegative integer, found {value}")
        return value

    def parse_expr(self) -> ConstructionExpr:
        _, name, offset = self.expect("name", "a generator or combinator name")
        kind = _BY_NAME.get(name)
        if kind is not None and not kind.fields:
            return kind.node()
        self.expect("(")
        if kind is None:
            raise _error(
                self.text, offset,
                f"unknown name {name!r}; expected one of {', '.join(_BY_NAME)}",
            )
        args: list = []
        for field in kind.fields:
            if args:
                self.expect(",")
            args.append(self.parse_expr() if field == EXPR else self.parse_int(field == NAT))
        self.expect(")")
        return kind.node(*args)


def parse(text: str) -> ConstructionExpr:
    parser = _Parser(text)
    expr = parser.parse_expr()
    kind, trailing, offset = parser.tokens[parser.pos]
    if kind != "end":
        raise _error(text, offset, f"unexpected trailing input {trailing!r}")
    return expr


def evaluate(ast: ConstructionExpr) -> ManifoldDescriptor:
    """Dispatch an AST into the construction calculus."""
    kind = _BY_NODE.get(type(ast))
    if kind is None:
        raise TypeError(f"not a construction expression: {ast!r}")
    args = []
    for name, field in zip(ast.__match_args__, kind.fields):
        value = getattr(ast, name)
        args.append(evaluate(value) if field == EXPR else value)
    return getattr(construct, kind.build)(*args)


def evaluate_text(text: str) -> ManifoldDescriptor:
    return evaluate(parse(text))
