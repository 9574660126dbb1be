import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spincalc
from spincalc import cli, manifold
from spincalc.abelian import Z, cyclic, free
from spincalc.construct import bundle, cp, dehn_rhs, ihs3, sphere, spin
from spincalc.dsl import evaluate_text
from spincalc.graded import GradedGroup
from spincalc.manifold import (
    DirectProduct,
    FiniteCyclic,
    FreeGroup,
    FreeProduct,
    InvalidDescriptor,
    SurfaceGroup,
    Trivial,
    direct_product,
    free_product,
    make_descriptor,
    validate_realizability,
)

from helpers import corpus, dense_connectivity


class TestPi1Tags:
    def test_free_product_absorbs_trivial(self):
        tag = free_product(Trivial(), FiniteCyclic(5))
        assert tag == FiniteCyclic(5)

    def test_free_product_flattens(self):
        tag = free_product(free_product(FiniteCyclic(2), FiniteCyclic(3)), FiniteCyclic(5))
        assert tag == FreeProduct((FiniteCyclic(2), FiniteCyclic(3), FiniteCyclic(5)))

    def test_all_trivial_collapses(self):
        assert direct_product(Trivial(), Trivial()) == Trivial()

    def test_direct_product_keeps_order(self):
        tag = direct_product(FiniteCyclic(2), FiniteCyclic(3))
        assert tag == DirectProduct((FiniteCyclic(2), FiniteCyclic(3)))

    def test_adjacent_free_factors_make_one_free_group(self):
        assert free_product(FreeGroup(1), FreeGroup(1)) == FreeGroup(2)
        tag = free_product(FreeGroup(1), FreeGroup(2), FiniteCyclic(2), FreeGroup(1))
        assert tag == FreeProduct((FreeGroup(3), FiniteCyclic(2), FreeGroup(1)))
        assert free_product(tag, FreeGroup(4)) == FreeProduct(
            (FreeGroup(3), FiniteCyclic(2), FreeGroup(5))
        )

    def test_the_pi_1_of_a_spun_surface_reads_as_a_free_product(self):
        assert evaluate_text("spin(1,Sigma(2))").pi1 == FreeGroup(4)
        for text, pi1 in [
            ("spin(1,Sigma(2))", "Z * Z * Z * Z"),
            ("prod(spin(1,Sigma(2)),S(1))", "(Z * Z * Z * Z) x Z"),
            ("csum(spin(1,Sigma(2)),N(7))", "Z * Z * Z * Z * pi_1(hyperbolic 3-manifold #1)"),
        ]:
            assert evaluate_text(text).pi1.describe() == pi1

    def test_a_product_inside_the_other_kind_is_parenthesized(self):
        z3 = direct_product(FreeGroup(1), FreeGroup(1), FreeGroup(1))
        assert free_product(z3, FiniteCyclic(3)).describe() == "(Z x Z x Z) * Z_3"
        z_z2 = free_product(FreeGroup(1), FiniteCyclic(2))
        assert direct_product(FiniteCyclic(3), z_z2).describe() == "Z_3 x (Z * Z_2)"
        nested = free_product(direct_product(FiniteCyclic(2), z_z2), FiniteCyclic(5))
        assert nested.describe() == "(Z_2 x (Z * Z_2)) * Z_5"
        assert evaluate_text("csum(prod(S(1),prod(S(1),S(1))),L(3,3))").pi1.describe() == (
            "(Z x Z x Z) * Z_3"
        )


class TestDescriptorInvariants:
    def test_rejects_duality_failure(self):
        h = GradedGroup.from_dict({0: Z, 1: cyclic(3), 4: Z}, 4)
        with pytest.raises(InvalidDescriptor):
            make_descriptor("test", 4, h, SurfaceGroup(2))

    def test_rejects_wrong_top_degree(self):
        h = GradedGroup.from_dict({0: Z, 3: Z}, 4)
        with pytest.raises(InvalidDescriptor, match="^duality fails: top degree 4 != dimension 3"):
            make_descriptor("test", 3, h, SurfaceGroup(2))

    def test_rejects_non_connected_h0(self):
        h = GradedGroup.from_dict({0: free(2), 3: Z}, 3)
        with pytest.raises(InvalidDescriptor, match="^duality fails: H_0 = Z\\^2"):
            make_descriptor("test", 3, h, SurfaceGroup(2))

    def test_rejects_trivial_pi1_with_h1(self):
        h = GradedGroup.from_dict({0: Z, 1: cyclic(3), 3: Z}, 3)
        with pytest.raises(InvalidDescriptor):
            make_descriptor("test", 3, h, Trivial())

    def test_takes_no_facts(self):
        """What is taken on faith lives on the expression, not the descriptor."""
        h = GradedGroup.from_dict({0: Z, 3: Z}, 3)
        with pytest.raises(TypeError):
            make_descriptor("test", 3, h, SurfaceGroup(2), facts=frozenset())
        with pytest.raises(TypeError):
            manifold.ManifoldDescriptor("test", 3, h, SurfaceGroup(2), frozenset())

    def test_connectivity_is_derived(self):
        h = GradedGroup.from_dict({0: Z, 3: cyclic(3), 7: Z}, 7)
        assert make_descriptor("test", 7, h, Trivial()).connectivity == 2
        assert make_descriptor("test", 7, h, SurfaceGroup(2)).connectivity == 0
        for n in (2, 3, 7, 400):
            assert sphere(n).connectivity == n - 1
        for n in (1, 2, 5):
            assert cp(n).connectivity == 1
        for r in (1, 4):
            assert spin(r, bundle(1, 7)).connectivity == 2

    def test_connectivity_matches_dense_walk(self):
        for _, m in corpus(2024, 1000):
            assert m.connectivity == dense_connectivity(m), m.expr

    def test_bundle_connectivity_matches_index(self):
        for m in range(1, 5):
            assert bundle(m, 7).connectivity == 2 * m

    def test_spin_preserves_pi1_structurally(self):
        base = dehn_rhs(7)
        assert spin(4, base).pi1 == base.pi1
        assert spin(1, spin(2, base)).pi1 == base.pi1


class TestPuncturedHomology:
    """Below the dimension of M, spin(r, M) with r >= dim M - 1 is M minus a disk."""

    @staticmethod
    def punctured(m):
        spun = spin(m.dim, m).homology
        return {d: g for d, g in spun.entries if d < m.dim}

    def test_rhs3(self):
        assert self.punctured(dehn_rhs(7)) == {0: Z, 1: cyclic(14)}

    def test_sphere_gives_disk(self):
        assert self.punctured(sphere(5)) == {0: Z}

    def test_spun_rhs_cross_checked_both_routes(self):
        once = spin(1, dehn_rhs(7))
        assert self.punctured(once) == {0: Z, 1: cyclic(14), 2: cyclic(14)}
        # iterating one more spin must agree with the direct rule application
        twice = spin(1, once)
        expected = GradedGroup.from_dict(
            {0: Z, 1: cyclic(14), 2: cyclic(14).direct_sum(cyclic(14)), 3: cyclic(14), 5: Z}, 5
        )
        assert twice.homology == expected

    def test_spin_is_punctured_plus_shifted_reduced(self):
        for i, (_, m) in enumerate(corpus(2024, 200)):
            if m.dim < 2:  # spin needs dimension >= 2
                continue
            r = 1 + i % 5
            spun = spin(r, m).homology
            punctured = [(d, g) for d, g in m.homology.entries if d < m.dim]
            shifted = [(d + r, g) for d, g in m.homology.entries if d > 0]
            assert spun == GradedGroup.from_sum(m.dim + r, punctured, shifted), m.expr


class TestRealizability:
    def test_antisymmetric_middle_torsion_flagged(self):
        # dimension 5 with cohomology torsion Z_3 at degree 3
        h = GradedGroup.from_dict({0: Z, 2: cyclic(3), 5: Z}, 5)
        m = make_descriptor("test", 5, h, SurfaceGroup(2))
        codes = [v.code for v in validate_realizability(m)]
        assert codes == ["middle-torsion-cyclic"]

    def test_generators_pass(self):
        for m in (dehn_rhs(7), ihs3(), sphere(4), bundle(2, 3)):
            assert validate_realizability(m) == []


class TestConnectivityIsReadOnlyByEval:
    """Only the ``eval`` report reads the connectivity, and only of its root."""

    # a batch with repeated lines, so that memoized nodes are reused, N(7) among them
    BATCH = "csum(S(3),N(7))\n" * 3 + "spin(2,S(5))\n" * 3 + "\nprod(S(2),S(2))\n"

    def walks(self, monkeypatch, *argv, stdin=None):
        """The number of connectivity walks one successful command makes."""
        calls = []
        walk = manifold.homological_connectivity
        monkeypatch.setattr(
            manifold, "homological_connectivity", lambda *a: calls.append(a) or walk(*a)
        )
        if stdin is not None:
            monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        assert cli.main(list(argv)) == 0
        return len(calls)

    @pytest.mark.parametrize("command", ["chirality", "degrees", "validate"])
    def test_chirality_degrees_and_validate_never_walk(self, monkeypatch, command):
        assert self.walks(monkeypatch, command, "csum(spin(2,N(7)),S(5))") == 0
        assert self.walks(monkeypatch, command, "-", stdin=self.BATCH) == 0

    @pytest.mark.parametrize("flags", [(), ("--json",)])
    def test_eval_walks_once_per_computed_line(self, monkeypatch, flags):
        assert self.walks(monkeypatch, "eval", "csum(spin(2,N(7)),S(5))", *flags) == 1
        # a line's third copy replays the answer of its second: csum x2, spin x2, prod
        assert self.walks(monkeypatch, "eval", "-", *flags, stdin=self.BATCH) == 5

    @pytest.mark.parametrize("command", ["chirality", "degrees", "validate"])
    @pytest.mark.parametrize("text", ["S(10000000000)", "csum(S(10000000000),S(10000000000))"])
    def test_a_ten_billion_dimensional_sphere_is_answered(self, command, text):
        """Without the walk, nothing on these commands' path grows with the dimension."""
        src = Path(spincalc.__file__).resolve().parent.parent
        result = subprocess.run(
            [sys.executable, "-m", "spincalc.cli", command, text],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)),
            timeout=10,
        )
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout.startswith(text if command != "degrees" else f"D({text})")
