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

The parser hash-conses every node into one table for the whole process,
and keeps each line it parses in full, so a line is parsed once however
many commands read it.  The constructions look descriptors up in the
rule table of :mod:`construct`, keyed on the identity of their operand
descriptors, so the descriptor of each distinct sub-expression is made
and validated by the first command to evaluate it and returned as it is
after that, until the table, which bounds its own size, is emptied.  A
:class:`Memo` serves one command: :func:`evaluate` walks a node's
children and calls its construction at the node's first and second
evaluation in the command, and from the third on returns the descriptor
kept from the second without a walk.  Evaluation is a pure function of
the AST, hyperbolic pi_1 tags included (they are numbered only when
printed), so a reused descriptor is the one a rebuild would give.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from . import construct
from .construct import ConstructionExpr
from .manifold import ManifoldDescriptor

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


# The hash-consing table of the process (Filliatre and Conchon 2006).
# ``_nodes`` interns every parsed node on (class, ints, child ids), so
# equal sub-expressions are one object and a node's id stands for its value
# while the table holds it.  ``_lines`` maps each line parsed in full to its
# node.  Sharing it between commands changes no output; :class:`Memo` says
# when it is emptied.
TABLE_CAP = 100_000
_nodes: dict[tuple, ConstructionExpr] = {}
_lines: dict[str, ConstructionExpr] = {}


class Memo:
    """What one command keeps while it runs its lines; drop it with the command.

    ``kept`` maps the id of each node evaluated to None after its first
    evaluation and to its descriptor from its second on: only repeated
    nodes keep a descriptor, so for a batch of distinct lines the memo
    keeps none.  The descriptors the lines made stay in the rule table
    of :mod:`construct`, which bounds its own size.

    Making a memo starts a command, and is the one time the table is
    emptied, if it holds more than ``TABLE_CAP`` nodes and lines: ``kept``
    stands on node ids, which must not be reused while it lives.  So use
    one memo at a time.
    """

    __slots__ = ("kept",)

    def __init__(self) -> None:
        if len(_nodes) + len(_lines) > TABLE_CAP:
            _nodes.clear()
            _lines.clear()
        self.kept: dict[int, ManifoldDescriptor | None] = {}


def _intern(kind: Kind, args: list) -> ConstructionExpr:
    """The one node equal to ``kind.node(*args)``, whose children are interned."""
    key = (kind.node, *[id(a) if f == EXPR else a for f, a in zip(kind.fields, args)])
    node = _nodes.get(key)
    if node is None:
        node = _nodes[key] = kind.node(*args)
    return node


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
        args: list = []
        if kind is None or kind.fields:
            self.expect("(")
            if kind is None:
                raise _error(
                    self.text, offset,
                    f"unknown name {name!r}; expected one of {', '.join(_BY_NAME)}",
                )
            for field in kind.fields:
                if args:
                    self.expect(",")
                args.append(self.parse_expr() if field == EXPR else self.parse_int(field == NAT))
            self.expect(")")
        return _intern(kind, args)


def parse(text: str) -> ConstructionExpr:
    """The AST of one expression, its nodes interned in the table of the process.

    A line parsed in full before is looked up, not parsed again.  A line
    that fails, even after a prefix that parses, is not kept, so it fails
    the same way each time.
    """
    expr = _lines.get(text)
    if expr is None:
        parser = _Parser(text)
        expr = parser.parse_expr()
        kind, trailing, offset = parser.tokens[parser.pos]
        if kind != "end":
            raise _error(text, offset, f"unexpected trailing input {trailing!r}")
        _lines[text] = expr
    return expr


def evaluate(ast: ConstructionExpr, memo: Memo | None = None) -> ManifoldDescriptor:
    """Dispatch an AST into the construction calculus.

    With a memo, ``ast`` must come from :func:`parse` after the memo was
    made, so that the table holds its nodes.  A node's descriptor is then
    kept from its second evaluation on and returned as it is from its third.
    """
    if memo is not None:
        kept = memo.kept.get(id(ast))
        if kept is not None:
            return kept
    kind = _BY_NODE.get(type(ast))
    if kind is None:
        raise TypeError(f"not a construction expression: {ast!r}")
    args = []
    for name, field in zip(ast.__match_args__, kind.fields):
        value = getattr(ast, name)
        args.append(evaluate(value, memo) if field == EXPR else value)
    m = getattr(construct, kind.build)(*args)
    if memo is not None:
        seen = id(ast) in memo.kept
        memo.kept[id(ast)] = m if seen else None
    return m


def evaluate_text(text: str, memo: Memo | None = None) -> ManifoldDescriptor:
    """Parse and evaluate one expression, in the command of ``memo`` (or a new one)."""
    if memo is None:
        memo = Memo()
    return evaluate(parse(text), memo)
