"""Command-line interface.

Subcommands::

    spincalc eval "<expr>" [--json]   homology, cohomology, chi, pi_1, validation
    spincalc chirality "<expr>"       chirality verdict with reason trace
    spincalc degrees "<expr>"         what is known about D(M)
    spincalc table1 --p <prime>       all 7-dimensional iterated spinnings of N(p)
    spincalc verify --theorem main|main2 --m <m> --p <p>
    spincalc validate "<expr>"        realizability cross-checks

Exit codes: 0 success, 1 verification mismatch or violation, 2 parse or
semantic error, or stdout closed early.  Passing ``-`` as the expression
reads one expression per line from stdin (batch mode).  A line that fails
there is reported on stderr as ``error: line <k>: <message>`` and the
batch goes on; the exit code is the worst status of its lines.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import permutations
from typing import Callable

from .abelian import Z, cyclic
from .analysis import chirality_verdict, degree_set
from .construct import (
    ManifoldDescriptor,
    dehn_rhs,
    iterated_spin,
    pipeline_main,
    pipeline_main2,
)
from .dsl import Memo, ParseError, evaluate_text
from .graded import GradedGroup
from .manifold import HyperbolicThreeManifoldGroup, validate_realizability

SCHEMA = "1"
# the rows of table1: partitions of 4 with at least two parts, most parts first
_TABLE1_RADII = ((1, 1, 1, 1), (2, 1, 1), (3, 1), (2, 2))


def _run_each(arg: str, handle: Callable[[str, ManifoldDescriptor], int]) -> int:
    """Run ``handle`` on the expression, or on each stdin line for ``-``, and its descriptor.

    One :class:`Memo` serves the call, so each distinct sub-expression of
    its lines is built once, and it is dropped when the call returns; the
    parsed lines stay in the table of the process for the next call.
    In batch mode a line that fails to parse or evaluate, or nests too
    deeply, is reported with its stdin line number and the rest still
    run; the result is the worst status.  A single expression's error goes up to ``main``.
    """
    memo = Memo()
    if arg != "-":
        return handle(arg, evaluate_text(arg, memo))
    status = 0
    for k, line in enumerate(sys.stdin, 1):
        text = line.strip()
        if not text:
            continue
        try:
            status = max(status, handle(text, evaluate_text(text, memo)))
        except (ParseError, ValueError, RecursionError) as exc:
            message = "expression nested too deeply" if isinstance(exc, RecursionError) else exc
            print(f"error: line {k}: {message}", file=sys.stderr)
            status = 2
    return status


def _descriptor_report(m: ManifoldDescriptor, as_json: bool) -> str:
    cohomology = m.cohomology()
    violations = validate_realizability(m)
    if as_json:
        payload = {
            "schema": SCHEMA,
            **m.to_json(),
            "cohomology": cohomology.to_json(),
            "euler_characteristic": m.homology.euler_characteristic(),
            "duality": True,
            "violations": [{"code": v.code, "message": v.message} for v in violations],
        }
        return json.dumps(payload, indent=2)
    lines = [
        f"expression:    {m.expr}",
        f"dimension:     {m.dim}",
        f"pi_1:          {m.pi1.describe()}",
        f"connectivity:  {m.connectivity}",
        f"euler char:    {m.homology.euler_characteristic()}",
        "homology H_i:",
        _indent(str(m.homology)),
        "cohomology H^i:",
        _indent(str(cohomology)),
        "duality check: ok",
    ]
    if m.facts:
        lines.append("facts:")
        lines.extend(f"  - {f.describe()}" for f in sorted(m.facts, key=lambda f: f.describe()))
    if violations:
        lines.append("violations:")
        lines.extend(f"  - [{v.code}] {v.message}" for v in violations)
    else:
        lines.append("violations:    none")
    return "\n".join(lines)


def _indent(text: str) -> str:
    return "\n".join("  " + line for line in text.splitlines())


def _cmd_eval(args: argparse.Namespace) -> int:
    def handle(text: str, m: ManifoldDescriptor) -> int:
        print(_descriptor_report(m, args.json))
        return 0

    return _run_each(args.expr, handle)


def _cmd_chirality(args: argparse.Namespace) -> int:
    def handle(text: str, m: ManifoldDescriptor) -> int:
        verdict = chirality_verdict(m)
        if args.json:
            print(json.dumps({"schema": SCHEMA, "expr": text, **verdict.to_json()}, indent=2))
        else:
            print(f"{text}: {verdict.describe()}")
        return 0

    return _run_each(args.expr, handle)


def _cmd_degrees(args: argparse.Namespace) -> int:
    def handle(text: str, m: ManifoldDescriptor) -> int:
        ds = degree_set(m)
        if args.json:
            print(json.dumps({"schema": SCHEMA, "expr": text, **ds.to_json()}, indent=2))
        else:
            print(f"D({text}) = {ds.describe()}")
        return 0

    return _run_each(args.expr, handle)


def _cmd_table1(args: argparse.Namespace) -> int:
    p = args.p
    rows = []
    for radii in _TABLE1_RADII:
        base = dehn_rhs(p)
        spun = iterated_spin(list(radii), base)
        # order independence: every permutation must give identical homology
        for perm in set(permutations(radii)):
            other = iterated_spin(list(perm), dehn_rhs(p))
            if other.homology != spun.homology:
                print(
                    f"order-independence FAILED for {radii} vs {perm}", file=sys.stderr
                )
                return 1
        label = "".join(f"sigma_{r} " for r in radii) + f"(N({p}))"
        rows.append((label, spun.homology.group(3)))
    width = max(len(label) for label, _ in rows)
    print(f"7-dimensional iterated spinnings of N({p}):")
    for label, h3 in rows:
        print(f"  {label.ljust(width)}   H_3 = {h3}")
    return 0


def _expected_homology(theorem: str, m: int, p: int) -> GradedGroup:
    dim = 4 * m + 3
    groups = {0: Z, dim: Z}
    torsion_degrees = {1, 2 * m + 1, 4 * m + 1} if theorem == "main" else {2 * m + 1}
    for i in torsion_degrees:
        groups[i] = cyclic(2 * p)
    return GradedGroup.from_dict(groups, dim)


def _cmd_verify(args: argparse.Namespace) -> int:
    build = pipeline_main if args.theorem == "main" else pipeline_main2
    result = build(args.m, args.p)
    expected = _expected_homology(args.theorem, args.m, args.p)
    failures = []
    if result.homology != expected:
        failures.append(f"homology mismatch:\n  got\n{_indent(str(result.homology))}\n  expected\n{_indent(str(expected))}")
    verdict = chirality_verdict(result)
    if not verdict.is_strongly_chiral:
        failures.append(f"chirality verdict is {verdict.kind}, expected strong chirality")
    if not isinstance(result.pi1, HyperbolicThreeManifoldGroup):
        failures.append(f"pi_1 tag is {result.pi1.describe()}, expected a hyperbolic 3-manifold group")
    name = f"{args.theorem}(m={args.m}, p={args.p})"
    if failures:
        print(f"{name}: FAILED")
        for f in failures:
            print(f"  {f}")
        return 1
    print(f"{name}: ok (dim {result.dim}, pi_1 = {result.pi1.describe()})")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    def handle(text: str, m: ManifoldDescriptor) -> int:
        violations = validate_realizability(m)
        if not violations:
            print(f"{text}: ok")
            return 0
        print(f"{text}: {len(violations)} violation(s)")
        for v in violations:
            print(f"  - [{v.code}] {v.message}")
        return 1

    return _run_each(args.expr, handle)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spincalc",
        description="Exact homology and chirality analysis of constructed manifolds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate an expression and print its descriptor")
    p_eval.add_argument("expr")
    p_eval.add_argument("--json", action="store_true")
    p_eval.set_defaults(func=_cmd_eval)

    p_chi = sub.add_parser("chirality", help="chirality verdict with reason trace")
    p_chi.add_argument("expr")
    p_chi.add_argument("--json", action="store_true")
    p_chi.set_defaults(func=_cmd_chirality)

    p_deg = sub.add_parser("degrees", help="known self-mapping degree set")
    p_deg.add_argument("expr")
    p_deg.add_argument("--json", action="store_true")
    p_deg.set_defaults(func=_cmd_degrees)

    p_tab = sub.add_parser("table1", help="7-dimensional iterated spinnings of N(p)")
    p_tab.add_argument("--p", type=int, required=True)
    p_tab.set_defaults(func=_cmd_table1)

    p_ver = sub.add_parser("verify", help="check a named pipeline against its closed form")
    p_ver.add_argument("--theorem", choices=["main", "main2"], required=True)
    p_ver.add_argument("--m", type=int, required=True)
    p_ver.add_argument("--p", type=int, required=True)
    p_ver.set_defaults(func=_cmd_verify)

    p_val = sub.add_parser("validate", help="realizability cross-checks")
    p_val.add_argument("expr")
    p_val.set_defaults(func=_cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader of stdout is gone: point stdout at devnull, so that the
        # flush at exit does not fail again (the Python signal docs' recipe)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2


if __name__ == "__main__":
    sys.exit(main())
