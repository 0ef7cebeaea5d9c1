"""The matching <-> oscillating-tableau correspondence and conjugation."""

from bisect import bisect_left
from itertools import combinations

import pytest

from matchstat import (
    DESCENT_CASES,
    BijectionTrace,
    OscillatingTableau,
    Partition,
    PositionCase,
    Tableau,
    classify_position,
    conjugate_matching,
    conjugate_oscillating,
    descent_stats,
    enumerate_matchings,
    from_pairs,
    matching_to_oscillating,
    oscillating_to_matching,
    parse_oscillating,
    sample_uniform,
)

SIGMA = from_pairs([(1, 4), (2, 3), (5, 6)])


def shapes_of(text):
    return parse_oscillating(text)


class TestForwardMap:
    def test_worked_example_shapes(self):
        osc, _ = matching_to_oscillating(SIGMA)
        assert str(osc) == "();(1);(1,1);(1);();(1);()"

    def test_worked_example_trace(self):
        _, trace = matching_to_oscillating(SIGMA)
        assert [t.rows for t in trace.tableaux] == [
            (),
            ((4,),),
            ((3,), (4,)),
            ((4,),),
            (),
            ((6,),),
            (),
        ]

    def test_single_arc(self):
        osc, _ = matching_to_oscillating(from_pairs([(1, 2)]))
        assert str(osc) == "();(1);()"

    def test_trace_shapes_agree(self):
        for m in enumerate_matchings(3):
            osc, trace = matching_to_oscillating(m)
            assert tuple(t.shape for t in trace.tableaux) == osc.shapes
            assert len(trace.steps) == 2 * m.n


class TestInverseMap:
    def test_worked_example(self):
        t = shapes_of("();(1);(1,1);(1);();(1);()")
        assert oscillating_to_matching(t) == SIGMA

    def test_conjugate_shapes(self):
        t = shapes_of("();(1);(2);(1);();(1);()")
        assert oscillating_to_matching(t) == from_pairs([(1, 3), (2, 4), (5, 6)])

    def test_single_arc(self):
        assert oscillating_to_matching(shapes_of("();(1);()")) == from_pairs([(1, 2)])

    def test_round_trip_exhaustive(self):
        for n in range(1, 6):
            for m in enumerate_matchings(n):
                osc, _ = matching_to_oscillating(m)
                assert oscillating_to_matching(osc) == m

    def test_round_trip_random_large(self):
        for k in range(25):
            m = sample_uniform(50, 11, stream=k)
            osc, _ = matching_to_oscillating(m)
            assert oscillating_to_matching(osc) == m

    def test_every_walk_is_hit(self):
        # enumerate all closed one-box walks of length 6 on Young's
        # lattice; there are exactly (2*3-1)!! = 15 of them and each one
        # inverts to a distinct matching that maps back to it
        def neighbours(p: Partition):
            parts = p.parts
            for r in range(len(parts)):
                if r == 0 or parts[r - 1] > parts[r]:
                    grown = list(parts)
                    grown[r] += 1
                    yield Partition(tuple(grown))
            yield Partition(parts + (1,))
            for r in range(len(parts)):
                if r == len(parts) - 1 or parts[r] > parts[r + 1]:
                    shrunk = list(parts)
                    shrunk[r] -= 1
                    if shrunk[r] == 0:
                        shrunk.pop()
                    yield Partition(tuple(shrunk))

        def walks(current: Partition, steps_left: int):
            if steps_left == 0:
                if current == Partition():
                    yield (current,)
                return
            for nxt in neighbours(current):
                for rest in walks(nxt, steps_left - 1):
                    yield (current,) + rest

        all_walks = list(walks(Partition(), 6))
        assert len(all_walks) == 15
        matchings = set()
        for shapes in all_walks:
            osc = OscillatingTableau(shapes)
            m = oscillating_to_matching(osc)
            matchings.add(m.partner)
            assert matching_to_oscillating(m)[0] == osc
        assert len(matchings) == 15


class TestOscillatingValidation:
    def test_must_start_empty(self):
        with pytest.raises(ValueError, match="empty shape"):
            OscillatingTableau((Partition((1,)), Partition(), Partition((1,))))

    def test_single_box_steps(self):
        with pytest.raises(ValueError, match="one box"):
            OscillatingTableau((Partition(), Partition((2,)), Partition()))

    def test_even_number_of_steps(self):
        with pytest.raises(ValueError):
            OscillatingTableau((Partition(), Partition((1,))))

    def test_parse_round_trip(self):
        text = "();(1);(1,1);(2,1);(1,1);(1);()"
        assert str(parse_oscillating(text)) == text


class TestConjugation:
    def test_conjugate_oscillating_example(self):
        osc, _ = matching_to_oscillating(SIGMA)
        assert str(conjugate_oscillating(osc)) == "();(1);(2);(1);();(1);()"

    def test_one_box_walk_self_conjugate(self):
        t = shapes_of("();(1);()")
        assert conjugate_oscillating(t) == t

    def test_involution_random(self):
        for k in range(200):
            osc, _ = matching_to_oscillating(sample_uniform(8, 3, stream=k))
            assert conjugate_oscillating(conjugate_oscillating(osc)) == osc

    def test_conjugate_matching_example(self):
        assert conjugate_matching(SIGMA) == from_pairs([(1, 3), (2, 4), (5, 6)])

    def test_forced_self_pair(self):
        m = from_pairs([(1, 2)])
        assert conjugate_matching(m) == m

    def test_involution_exhaustive_s8(self):
        for m in enumerate_matchings(4):
            assert conjugate_matching(conjugate_matching(m)) == m


class TestClassification:
    def test_worked_example_cases(self):
        osc, _ = matching_to_oscillating(SIGMA)
        assert classify_position(osc, 2) == PositionCase.PEAK
        assert classify_position(osc, 1) == PositionCase.DOUBLE_RISE_LOWER
        assert classify_position(osc, 4) == PositionCase.VALLEY

    def test_position_range(self):
        osc, _ = matching_to_oscillating(SIGMA)
        with pytest.raises(ValueError):
            classify_position(osc, 0)
        with pytest.raises(ValueError):
            classify_position(osc, 6)

    def test_descent_characterization_exhaustive(self):
        for n in range(1, 4):
            for m in enumerate_matchings(n):
                osc, _ = matching_to_oscillating(m)
                des = set(descent_stats(m).des_set)
                for i in range(1, 2 * n):
                    case = classify_position(osc, i)
                    assert (case in DESCENT_CASES) == (i in des)

    def test_conjugation_swaps_cases(self):
        swap = {1: 1, 2: 2, 3: 4, 4: 3, 5: 6, 6: 5}
        for m in enumerate_matchings(3):
            osc, _ = matching_to_oscillating(m)
            conj = conjugate_oscillating(osc)
            for i in range(1, 2 * m.n):
                assert classify_position(conj, i) == swap[classify_position(osc, i)]

    def test_count_and_weighted_identities(self):
        for n in range(1, 4):
            for m in enumerate_matchings(n):
                osc, _ = matching_to_oscillating(m)
                cases = [classify_position(osc, i) for i in range(1, 2 * n)]
                peaks = sum(1 for c in cases if c == PositionCase.PEAK)
                valleys = sum(1 for c in cases if c == PositionCase.VALLEY)
                assert peaks == valleys + 1
                weighted = sum(
                    i * ((c == PositionCase.PEAK) - (c == PositionCase.VALLEY))
                    for i, c in enumerate(cases, start=1)
                )
                assert weighted == n


class TestSymmetryIdentities:
    def test_descent_and_major_identities_exhaustive(self):
        for n in range(1, 5):
            for m in enumerate_matchings(n):
                st = descent_stats(m)
                st_conj = descent_stats(conjugate_matching(m))
                assert st.descent_number + st_conj.descent_number == 2 * (n + 1)
                assert st.major_index + st_conj.major_index == 2 * n * n

    def test_identities_random_large(self):
        n = 50
        for k in range(25):
            m = sample_uniform(n, 5, stream=k)
            st = descent_stats(m)
            st_conj = descent_stats(conjugate_matching(m))
            assert st.descent_number + st_conj.descent_number == 2 * (n + 1)
            assert st.major_index + st_conj.major_index == 2 * n * n


def max_pairwise(arcs, related):
    """Largest set of arcs that are pairwise related, by brute force."""
    best = 0
    for k in range(1, len(arcs) + 1):
        if any(
            all(related(a, b) for a, b in combinations(subset, 2))
            for subset in combinations(arcs, k)
        ):
            best = k
    return best


def nested(a, b):
    (i1, j1), (i2, j2) = sorted((a, b))
    return i1 < i2 < j2 < j1


def crossing(a, b):
    (i1, j1), (i2, j2) = sorted((a, b))
    return i1 < i2 < j1 < j2


def nesting_number(m):
    """Longest strictly decreasing run of right endpoints, arcs by left endpoint."""
    tails = []  # tails[k]: the largest last value of a decreasing run of length k+1
    for _, j in sorted(m.pairs()):
        k = bisect_left(tails, -j)
        tails[k : k + 1] = [-j]
    return len(tails)


def walk_extent(m):
    """Most rows and most columns over the shapes of m's walk."""
    shapes = matching_to_oscillating(m)[0].shapes
    return max(len(p.parts) for p in shapes), max(p.parts[0] for p in shapes if p.parts)


class TestCrossingNestingOracle:
    """Chen, Deng, Du, Stanley and Yan (Trans. AMS 2007): the most rows in
    the walk is the nesting number ne(M), the most columns the crossing
    number cr(M); both are read off the pairs alone."""

    def test_exhaustive_brute_force(self):
        checked = 0
        for n in range(1, 6):
            for m in enumerate_matchings(n):
                arcs = m.pairs()
                ne, cr = max_pairwise(arcs, nested), max_pairwise(arcs, crossing)
                assert walk_extent(m) == (ne, cr)
                conj = conjugate_matching(m).pairs()
                assert max_pairwise(conj, nested) == cr
                assert max_pairwise(conj, crossing) == ne
                checked += 1
        assert checked == 1 + 3 + 15 + 105 + 945

    def test_nesting_run_on_small_matchings(self):
        for m in enumerate_matchings(4):
            assert nesting_number(m) == max_pairwise(m.pairs(), nested)

    def test_random_large(self):
        for k in range(4):
            m = sample_uniform(1000, 17, stream=k)
            rows, cols = walk_extent(m)
            assert nesting_number(m) == rows
            assert nesting_number(conjugate_matching(m)) == cols


class TestLazyTrace:
    """The trace's tableaux are replayed through the public operations,
    each a fully validated Tableau, and agree with the in-place walk."""

    @staticmethod
    def check(m):
        osc, trace = matching_to_oscillating(m)
        tableaux = trace.tableaux
        assert all(Tableau(t.rows) == t for t in tableaux)
        assert tuple(t.shape for t in tableaux) == osc.shapes
        assert trace.steps == osc.steps

    def test_exhaustive(self):
        for n in range(1, 6):
            for m in enumerate_matchings(n):
                self.check(m)

    def test_random_2n200(self):
        for k in range(20):
            self.check(sample_uniform(100, 23, stream=k))

    def test_built_once_on_first_access(self):
        _, trace = matching_to_oscillating(SIGMA)
        assert trace.tableaux is trace.tableaux

    def test_constructed_from_matching_and_steps(self):
        osc, trace = matching_to_oscillating(SIGMA)
        direct = BijectionTrace(SIGMA, osc.steps)
        assert direct.steps == trace.steps
        assert direct.tableaux == trace.tableaux
        with pytest.raises(ValueError, match="one step per letter"):
            BijectionTrace(SIGMA, osc.steps[:-1])
