import json
import os
import sys
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import spincalc
from spincalc._value import set_field
from spincalc.abelian import AbGroup, Z, cyclic, free, normalize, TRIVIAL
from spincalc.construct import cp, dehn_rhs, ihs3, lens, sphere, spin
from spincalc.dsl import evaluate_text
from spincalc.graded import (
    GradedGroup,
    check_poincare_duality,
    cohomology_from_homology,
    homology_from_cohomology,
)
from spincalc.manifold import (
    InvalidDescriptor,
    ManifoldDescriptor,
    SurfaceGroup,
    Trivial,
    homological_connectivity,
)

from helpers import corpus, dense_cohomology, dense_duality_report

N7 = GradedGroup.from_dict({0: Z, 1: cyclic(14), 3: Z}, 3)  # rational homology 3-sphere
DIM7 = GradedGroup.from_dict(
    {0: Z, 1: cyclic(14), 3: cyclic(14), 5: cyclic(14), 7: Z}, 7
)


class TestConstruction:
    def test_prunes_trivial_entries(self):
        g = GradedGroup.from_dict({0: Z, 1: TRIVIAL, 3: Z}, 3)
        assert [d for d, _ in g.entries] == [0, 3]

    def test_rejects_degree_above_top(self):
        with pytest.raises(ValueError):
            GradedGroup(2, ((3, 1, 1, Z),))

    def test_equality_is_degreewise(self):
        assert GradedGroup.from_dict({3: Z, 2: TRIVIAL, 1: cyclic(14), 0: Z}, 3) == N7

    @pytest.mark.parametrize(
        "top, entries, message",
        [
            (-1, (), "top_degree must be nonnegative"),
            (2, ((0, 1, 1, Z), (3, 1, 1, Z)), "degree 3 outside [0, 2]"),
            (3, ((0, 1, 1, Z), (1, 1, 1, cyclic(2)), (1, 1, 1, Z)), "duplicate degree 1"),
            (3, ((0, 1, 1, Z), (2, 1, 1, TRIVIAL)), "trivial group stored at degree 2"),
            (3, ((2, 1, 1, Z), (0, 1, 1, Z)), "entries must be sorted by degree"),
            # an order error comes last: every run's own error goes first
            (3, ((2, 1, 1, Z), (0, 1, 1, Z), (2, 1, 1, Z)), "duplicate degree 2"),
            (6, ((1, 1, 1, Z), (5, 1, 1, Z), (2, 1, 1, Z), (5, 1, 1, Z)), "duplicate degree 5"),
            (3, ((3, 1, 1, Z), (1, 1, 1, Z), (1, 1, 1, Z)), "duplicate degree 1"),
            (3, ((2, 1, 1, Z), (0, 1, 1, Z), (1, 1, 1, TRIVIAL)), "trivial group stored at degree 1"),
            (3, ((2, 1, 1, Z), (0, 1, 1, Z), (4, 1, 1, Z)), "degree 4 outside [0, 3]"),
            # the shape of a run: its step and count, its last degree, and
            # whether it shares a degree with an earlier run or only starts inside it
            (5, ((0, 3, 2, Z),), f"run {(0, 3, 2, Z)} needs step 1 or 2 and count >= 1"),
            (5, ((0, 1, 0, Z),), f"run {(0, 1, 0, Z)} needs step 1 or 2 and count >= 1"),
            (5, ((0, 1, 1, Z), (3, 0, 1, Z)), f"run {(3, 0, 1, Z)} needs step 1 or 2 and count >= 1"),
            (5, ((0, 2, 4, Z),), "degree 6 outside [0, 5]"),
            (9, ((0, 2, 4, Z), (4, 1, 2, Z)), "duplicate degree 4"),
            (9, ((0, 2, 4, Z), (3, 2, 2, Z)), "entries must be sorted by degree"),
        ],
    )
    def test_error_messages_and_their_precedence(self, top, entries, message):
        with pytest.raises(ValueError) as exc:
            GradedGroup(top, entries)
        assert str(exc.value) == message

    def test_from_sum_adds_groups_where_degrees_meet(self):
        g = GradedGroup.from_sum(4, ((0, 1, 1, Z), (2, 1, 1, cyclic(2))), ((2, 1, 1, cyclic(3)), (4, 1, 1, Z)))
        assert g == GradedGroup.from_dict({0: Z, 2: cyclic(6), 4: Z}, 4)


class TestShiftAndReduced:
    """spin(r, M) adds the r-shifted reduced homology of M to its punctured homology."""

    def test_shift_of_reduced_rhs3(self):
        spun = spin(4, dehn_rhs(7)).homology
        assert {d: g for d, g in spun.entries if d > 3} == {5: cyclic(14), 7: Z}

    def test_shift_of_trivial_is_trivial(self):
        # a homology sphere's reduced homology is its top class alone
        assert spin(2, ihs3()).homology == sphere(5).homology

    def test_shift_rejects_small_top(self):
        with pytest.raises(ValueError, match=r"^degree 7 outside \[0, 6\]$"):
            GradedGroup.from_sum(6, (), [(f + 4, s, c, g) for f, s, c, g in N7.runs[1:]])

    def test_reduced_drops_one_z_at_degree_zero(self):
        # H_0 = Z is not shifted: H_1 of the 1-spin is the punctured H_1 alone
        assert spin(1, dehn_rhs(7)).homology.group(1) == cyclic(14)

    def test_reduced_point(self):
        # a point has trivial reduced homology up to its top degree 0
        point = GradedGroup.from_dict({0: Z}, 0)
        assert homological_connectivity(point, Trivial()) == point.top_degree == 0

    def test_reduced_four_sphere(self):
        assert spin(1, sphere(4)).homology == sphere(5).homology
        assert dict(spin(3, sphere(4)).homology.entries) == {0: Z, 7: Z}

    def test_reduced_rejects_nonconnected_degree_zero(self):
        h = GradedGroup.from_dict({0: free(2), 3: Z}, 3)
        m = ManifoldDescriptor("test", 3, h, SurfaceGroup(2))
        with pytest.raises(InvalidDescriptor, match="^duality fails: H_0 = Z\\^2"):
            spin(1, m)


class TestEulerCharacteristic:
    def test_odd_dimensional_rhs(self):
        assert N7.euler_characteristic() == 0

    def test_even_rational_homology_sphere(self):
        g = GradedGroup.from_dict({0: Z, 6: Z}, 6)
        assert g.euler_characteristic() == 2

    def test_spun_rhs(self):
        g = GradedGroup.from_dict({0: Z, 1: cyclic(14), 2: cyclic(14), 4: Z}, 4)
        assert g.euler_characteristic() == 2


small_groups = st.builds(
    lambda rank, orders: normalize(orders, rank),
    st.integers(min_value=0, max_value=2),
    st.lists(st.sampled_from([2, 3, 4, 6, 9]), max_size=2),
)


@st.composite
def graded_and_dimension(draw):
    """A sparse graded group with top degree n <= 40, and the dimension to check it at.

    Dual groups mirror ranks across d <-> n-d and torsion across
    d <-> n-d-1; near-dual ones then overwrite one degree strictly
    between 0 and n.  The last two shapes drop the fundamental class or
    check at another dimension.
    """
    n = draw(st.integers(min_value=0, max_value=40))
    shape = draw(st.sampled_from(["random", "dual", "near-dual", "missing-top", "wrong-top"]))
    if shape == "random":
        groups = draw(st.dictionaries(st.integers(0, n), small_groups, max_size=6))
        if draw(st.booleans()):
            groups[0] = groups[n] = Z
        return GradedGroup.from_dict(groups, n), n
    ranks, torsion = {0: 1, n: 1}, {}
    if n >= 2:
        for d in draw(st.lists(st.integers(1, n - 1), max_size=4)):
            ranks[d] = ranks[n - d] = draw(st.integers(min_value=0, max_value=2))
    if n >= 3:
        for d in draw(st.lists(st.integers(1, n - 2), max_size=4)):
            torsion[d] = torsion[n - 1 - d] = draw(st.lists(st.sampled_from([2, 3, 6]), max_size=2))
    groups = {d: normalize(torsion.get(d, []), ranks.get(d, 0)) for d in ranks.keys() | torsion.keys()}
    if shape == "near-dual" and n >= 2:
        groups[draw(st.integers(1, n - 1))] = draw(small_groups)
    if shape == "missing-top":
        groups[n] = draw(small_groups.filter(lambda g: g != Z))
    g = GradedGroup.from_dict(groups, n)
    if shape == "wrong-top":
        return g, draw(st.integers(0, 41).filter(lambda m: m != n))
    return g, n


class TestDuality:
    def test_dim7_model_passes(self):
        assert check_poincare_duality(DIM7, 7)

    def test_three_manifold_self_pairing(self):
        g = GradedGroup.from_dict({0: Z, 1: cyclic(3), 3: Z}, 3)
        assert check_poincare_duality(g, 3)

    def test_passing_reports_are_one_shared_object(self):
        a = check_poincare_duality(DIM7, 7)
        b = check_poincare_duality(GradedGroup.from_dict({0: Z, 1: cyclic(3), 3: Z}, 3), 3)
        assert a.ok and a is b

    def test_reports_offending_degree(self):
        g = GradedGroup.from_dict({0: Z, 1: cyclic(3), 4: Z}, 4)
        report = check_poincare_duality(g, 4)
        assert not report
        assert report.failing_degree == 1

    def test_rejects_missing_fundamental_class(self):
        g = GradedGroup.from_dict({0: Z, 3: cyclic(2)}, 3)
        assert not check_poincare_duality(g, 3)

    @settings(max_examples=400, deadline=None)
    @given(graded_and_dimension())
    def test_sparse_walk_matches_dense_reference(self, case):
        g, n = case
        report = check_poincare_duality(g, n)
        assert (report.ok, report.failing_degree, report.message) == dense_duality_report(g, n)

    @pytest.mark.parametrize(
        "build, other",
        [
            (lambda: sphere(10**6), lambda: sphere(10**5)),
            (lambda: lens(7, 301), lambda: lens(7, 3001)),
            (lambda: cp(150), lambda: cp(1500)),
            (lambda: spin(1200, dehn_rhs(7)), lambda: spin(120, dehn_rhs(7))),
        ],
        ids=["S(10^6)", "L(7,301)", "CP(150)", "spin(1200,N(7))"],
    )
    def test_lookups_grow_with_entries_not_dimension(self, build, other):
        """Lookups into the degree index stay within the entries, and the lines
        the check runs within the runs: the same shape at a tenth or ten times
        the dimension runs exactly the same lines.
        """
        m = build()
        h, index = _counting_index(m.homology)
        report, lines = _lines_run(lambda: check_poincare_duality(h, m.dim))
        assert report
        assert index.calls <= 2 * len(m.homology.entries) + 2
        assert lines <= 40 * len(h.runs) + 40
        o = other()
        assert o.homology.runs != m.homology.runs
        assert _lines_run(lambda: check_poincare_duality(o.homology, o.dim)) == (report, lines)

    @pytest.mark.parametrize(
        "build",
        [lambda: spin(4, dehn_rhs(7)), lambda: lens(7, 301), lambda: cp(150)],
        ids=["spin(4,N(7))", "L(7,301)", "CP(150)"],
    )
    def test_a_passing_check_looks_up_two_degrees_per_entry(self, build):
        """At most; a group of long runs needs only H_0 and H_n, the rest is read
        run by run.  A failing check adds the three degrees its message names.
        """
        m = build()
        h, index = _counting_index(m.homology)
        assert check_poincare_duality(h, m.dim)
        listed = m.homology._by_degree.__class__ is dict
        assert index.calls == (2 * len(h.entries) + 2 if listed else 2)
        broken = GradedGroup.from_sum(m.dim, h.runs, ((1, 1, 1, cyclic(2)),))
        broken, index = _counting_index(broken)
        assert check_poincare_duality(broken, m.dim).failing_degree == 1
        assert index.calls <= (2 * len(h.entries) + 2 if listed else 2) + 3


class _CountingDict(dict):
    """A dict index that counts its lookups."""

    calls = 0

    def get(self, degree, default=None):
        self.calls += 1
        return super().get(degree, default)


class _CountingRuns:
    """A run index that counts its lookups."""

    def __init__(self, index):
        self.index, self.calls = index, 0

    def get(self, degree, default):
        self.calls += 1
        return self.index.get(degree, default)


def _counting_index(h: GradedGroup):
    """A copy of h whose lookups are counted; h itself, which a table may hold, is left alone."""
    copy = GradedGroup(h.top_degree, h.runs)
    index = copy._by_degree
    index = _CountingDict(index) if isinstance(index, dict) else _CountingRuns(index)
    set_field(copy, "_by_degree", index)
    return copy, index


def _lines_run(call):
    """``call()`` and the number of lines of spincalc it ran."""
    root = os.path.dirname(spincalc.__file__)
    lines = 0

    def local(frame, event, arg):
        nonlocal lines
        lines += event == "line"
        return local

    def scope(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(root) else None

    previous = sys.gettrace()
    sys.settrace(scope)
    try:
        result = call()
    finally:
        sys.settrace(previous)
    return result, lines


class TestUniversalCoefficients:
    def test_rhs3_cohomology(self):
        assert dict(cohomology_from_homology(N7, 3).entries) == {0: Z, 2: cyclic(14), 3: Z}

    def test_dim7_cohomology(self):
        c = cohomology_from_homology(DIM7, 7)
        assert dict(c.entries) == {0: Z, 2: cyclic(14), 4: cyclic(14), 6: cyclic(14), 7: Z}

    def test_torsion_free_grading_unchanged(self):
        torus_like = GradedGroup.from_dict({0: Z, 1: free(2), 2: Z}, 2)
        assert cohomology_from_homology(torus_like, 2) == torus_like

    def test_bundle_cohomology_to_homology(self):
        c = GradedGroup.from_dict({0: Z, 4: cyclic(14), 7: Z}, 7)
        h = homology_from_cohomology(c, 7)
        assert dict(h.entries) == {0: Z, 3: cyclic(14), 7: Z}

    def test_torsion_free_cohomology_unchanged(self):
        c = GradedGroup.from_dict({0: Z, 2: Z, 5: Z, 7: Z}, 7)
        assert homology_from_cohomology(c, 7) == c

    def test_round_trip(self):
        # the 1000-expression corpus gets the same check in acceptance criterion 6
        cases = [(N7, 3), (DIM7, 7)]
        for text in ("S(20000)", "L(7,301)", "csum(N(1000003),N(1000033))"):
            m = evaluate_text(text)
            cases.append((m.homology, m.dim))
        for h, n in cases:
            assert homology_from_cohomology(cohomology_from_homology(h, n), n) == h, n

    @staticmethod
    def check_against_dense_reference(h, n):
        c = cohomology_from_homology(h, n)
        assert c == dense_cohomology(h, n)
        if h.group(0).factors and n >= 1:
            # Tor H_0 lands in H^1, which has no homological preimage
            with pytest.raises(ValueError):
                homology_from_cohomology(c, n)
        else:
            assert dense_cohomology(homology_from_cohomology(c, n), n) == c

    @settings(max_examples=400, deadline=None)
    @given(graded_and_dimension())
    def test_one_pass_matches_dense_reference(self, case):
        self.check_against_dense_reference(*case)

    def test_corpus_matches_dense_reference(self):
        for _, m in corpus(2024, 1000):
            self.check_against_dense_reference(m.homology, m.dim)

    @pytest.mark.parametrize(
        "build, hashes, text",
        [
            (
                lambda: lens(7, 301), 3,
                f"Z, for i = 0, 301\nZ_7, for i = {', '.join(map(str, range(1, 300, 2)))}",
            ),
            (lambda: cp(150), 1, f"Z, for i = {', '.join(map(str, range(0, 301, 2)))}"),
        ],
        ids=["L(7,301)", "CP(150)"],
    )
    def test_dense_groups_reuse_the_operands_groups(self, build, hashes, text, monkeypatch):
        m = build()
        counts = Counter()
        init, hash_ = AbGroup.__init__, AbGroup.__hash__

        def counting_init(self, *args):
            counts["init"] += 1
            init(self, *args)

        def counting_hash(self):
            counts["hash"] += 1
            return hash_(self)

        monkeypatch.setattr(AbGroup, "__init__", counting_init)
        monkeypatch.setattr(AbGroup, "__hash__", counting_hash)
        c = cohomology_from_homology(m.homology, m.dim)
        assert counts["init"] == 0
        # one hash per run of one group object in adjacent entries
        assert str(m.homology) == text + "\n0, otherwise"
        assert counts["hash"] <= hashes
        monkeypatch.undo()
        assert c == dense_cohomology(m.homology, m.dim)

    def test_rejects_low_degree_cohomology_torsion(self):
        c = GradedGroup.from_dict({0: Z, 1: cyclic(3), 3: Z}, 3)
        with pytest.raises(ValueError):
            homology_from_cohomology(c, 3)


class TestSerialization:
    def test_json_round_trip(self):
        data = json.loads(json.dumps(DIM7.to_json()))
        groups = {int(d): AbGroup(g["rank"], tuple(g["factors"])) for d, g in data["groups"].items()}
        assert GradedGroup.from_dict(groups, data["top"]) == DIM7

    def test_case_display(self):
        assert str(N7) == "Z, for i = 0, 3\nZ_14, for i = 1\n0, otherwise"
