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
from typing import Iterator, NamedTuple

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
# the tokens that follow a node's name: its fields' kinds, separated by
# "," and enclosed in "(" and ")", or none for a kind without fields
_SYNTAX = {
    kind: ("(", *[t for field in kind.fields for t in (",", field)][1:], ")") if kind.fields else ()
    for kind in KINDS
}


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


# a name, an integer or any other character, which ``_read`` and
# ``_parse_error`` sort out
_TOKEN_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*|-?\d+|\S")


class _TokenError(Exception):
    """The index of the token a syntax error stands at, and its message."""

    def __init__(self, index: int, message: str):
        self.index = index
        self.message = message


def _found(token: str) -> str:
    return repr(token or "end of input")


def _read(tokens: list[str]) -> tuple[ConstructionExpr, int]:
    """The expression that starts the tokens, and the index of the token after it.

    ``tokens`` ends with "", the end of input, which no rule accepts.  One
    loop walks the syntax of each node after its name (``_SYNTAX``), and
    ``pending`` holds the kind, the fields read so far and the rest of the
    syntax of each node around the one being read, innermost last.  A node
    is interned as its syntax ends, after its children, and becomes a
    field of the node around it.
    """
    pending: list[tuple[Kind, list, Iterator[str]]] = []
    i = 0
    while True:
        # a node starts at token i
        name = tokens[i]
        if not name[:1].isalpha():
            raise _TokenError(i, f"expected 'a generator or combinator name', found {_found(name)}")
        kind = _BY_NAME.get(name)
        if kind is None:
            if tokens[i + 1] != "(":
                raise _TokenError(i + 1, f"expected '(', found {_found(tokens[i + 1])}")
            known = ", ".join(_BY_NAME)
            raise _TokenError(i, f"unknown name {name!r}; expected one of {known}")
        i += 1
        args: list = []
        steps = iter(_SYNTAX[kind])
        while (step := next(steps, None)) != EXPR:
            if step is None:
                node = _intern(kind, args)
                if not pending:
                    return node, i
                kind, args, steps = pending.pop()
                args.append(node)
                continue
            token = tokens[i]
            if step == NAT or step == INT:
                first = token[:1]
                if not (first.isdecimal() or first == "-" and len(token) > 1):
                    raise _TokenError(i, f"expected 'an integer', found {_found(token)}")
                value = int(token)
                if step == NAT and value < 0:
                    raise _TokenError(i, f"expected a nonnegative integer, found {value}")
                args.append(value)
            elif token != step:
                raise _TokenError(i, f"expected {step!r}, found {_found(token)}")
            i += 1
        pending.append((kind, args, steps))


def _parse_error(text: str, error: _TokenError) -> ParseError:
    """The ParseError of a line whose tokens failed with ``error``.

    The first character that starts no token wins over any error of the
    parse, wherever either stands.  Offsets come from scanning the text
    again, as only a failing line needs them.
    """
    offsets = []
    for match in _TOKEN_RE.finditer(text):
        token = match.group()
        if len(token) == 1 and not (token.isalpha() or token.isdecimal() or token in "(),"):
            offset, message = match.start(), f"unexpected character {token!r}"
            break
        offsets.append(match.start())
    else:
        offsets.append(len(text))
        offset, message = offsets[error.index], error.message
    column = offset - text.rfind("\n", 0, offset)
    return ParseError(message, text.count("\n", 0, offset) + 1, column)


def parse(text: str) -> ConstructionExpr:
    """The AST of one expression, its nodes interned in the table of the process.

    A line parsed in full before is looked up, not parsed again.  A line
    that fails, even after a prefix that parses, is not kept, so it fails
    the same way each time.
    """
    expr = _lines.get(text)
    if expr is None:
        tokens = _TOKEN_RE.findall(text)
        tokens.append("")
        try:
            expr, end = _read(tokens)
            if tokens[end]:
                raise _TokenError(end, f"unexpected trailing input {tokens[end]!r}")
        except _TokenError as error:
            raise _parse_error(text, error) from None
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
