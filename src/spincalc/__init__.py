"""Symbolic calculus for closed oriented manifolds.

Build manifolds from generators (spheres, lens spaces, hyperbolic
rational homology 3-spheres, sphere bundles) and combinators (r-spin,
connected sum, product); compute exact integral homology; certify
strong chirality and infer self-mapping degree sets.
"""

from .abelian import AbGroup, cyclic, free, normalize
from .analysis import ChiralityVerdict, chirality_verdict, degree_set
from .construct import (
    bundle,
    connected_sum,
    cp,
    dehn_rhs,
    ihs3,
    iterated_spin,
    lens,
    pipeline_main,
    pipeline_main2,
    product,
    sphere,
    spin,
    surface,
)
from .degrees import DegreeSet
from .dsl import evaluate, evaluate_text, parse
from .graded import GradedGroup, check_poincare_duality
from .manifold import ManifoldDescriptor, validate_realizability

__all__ = [
    "AbGroup", "GradedGroup", "ManifoldDescriptor", "DegreeSet", "ChiralityVerdict",
    "normalize", "cyclic", "free",
    "sphere", "cp", "surface", "lens", "dehn_rhs", "ihs3", "bundle",
    "spin", "connected_sum", "product", "iterated_spin",
    "pipeline_main", "pipeline_main2",
    "check_poincare_duality", "validate_realizability",
    "chirality_verdict", "degree_set",
    "parse", "evaluate", "evaluate_text",
]
