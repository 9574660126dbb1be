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
from dataclasses import dataclass
from typing import NamedTuple

from . import construct
from .construct import ConstructionExpr, ManifoldDescriptor

NAT, INT, EXPR = "nat", "int", "expr"


class Kind(NamedTuple):
    node: type[ConstructionExpr]
    fields: tuple[str, ...]  # NAT, INT or EXPR per dataclass field, in order
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


@dataclass(frozen=True)
class _Token:
    kind: str  # "name" | "int" | "(" | ")" | "," | "end"
    text: str
    line: int
    column: int


_TOKEN_RE = re.compile(
    r"(?P<name>[A-Za-z][A-Za-z0-9]*)|(?P<int>-?\d+)|(?P<punct>[(),])|(?P<newline>\n)|(?P<other>\S)"
)


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, line_start = 1, 0
    for match in _TOKEN_RE.finditer(text):
        kind, tok, column = match.lastgroup, match.group(), match.start() - line_start + 1
        if kind == "newline":
            line, line_start = line + 1, match.end()
            continue
        if kind == "punct":
            kind = tok
        elif kind == "other":
            # any other single letter (``str.isalpha``) is a name
            if not tok.isalpha():
                raise ParseError(f"unexpected character {tok!r}", line, column)
            kind = "name"
        tokens.append(_Token(kind, tok, line, column))
    tokens.append(_Token("end", "", line, len(text) - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def expect(self, kind: str, what: str | None = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            shown = tok.text or "end of input"
            raise ParseError(
                f"expected {what or kind!r}, found {shown!r}", tok.line, tok.column
            )
        self.pos += 1
        return tok

    def parse_int(self, nonnegative: bool = False) -> int:
        tok = self.expect("int", "an integer")
        value = int(tok.text)
        if nonnegative and value < 0:
            raise ParseError(f"expected a nonnegative integer, found {value}", tok.line, tok.column)
        return value

    def parse_expr(self) -> ConstructionExpr:
        tok = self.expect("name", "a generator or combinator name")
        kind = _BY_NAME.get(tok.text)
        if kind is not None and not kind.fields:
            return kind.node()
        self.expect("(")
        if kind is None:
            raise ParseError(
                f"unknown name {tok.text!r}; expected one of {', '.join(_BY_NAME)}",
                tok.line, tok.column,
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
    trailing = parser.peek()
    if trailing.kind != "end":
        raise ParseError(
            f"unexpected trailing input {trailing.text!r}", trailing.line, trailing.column
        )
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
