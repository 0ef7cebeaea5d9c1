"""The matching <-> oscillating-tableau correspondence and conjugation."""

import hashlib
from bisect import bisect_left
from itertools import combinations
from random import Random

import pytest

from matchstat import (
    DESCENT_CASES,
    TRACE_BUDGET,
    BijectionTrace,
    BudgetError,
    Box,
    Matching,
    OscillatingTableau,
    Partition,
    PositionCase,
    Tableau,
    TraceStep,
    classify_position,
    conjugate_matching,
    conjugate_oscillating,
    delete_min_and_slide,
    descent_stats,
    enumerate_matchings,
    from_pairs,
    matching_to_oscillating,
    oscillating_to_matching,
    parse_oscillating,
    row_insert,
    sample_uniform,
)

from growth_oracle import growth_corners, transpose

SIGMA = from_pairs([(1, 4), (2, 3), (5, 6)])


def shapes_of(text):
    return parse_oscillating(text)


def sample_matchings():
    """Every matching with n <= 5, then 8 draws at 2n = 2000."""
    for n in range(1, 6):
        yield from enumerate_matchings(n)
    for k in range(8):
        yield sample_uniform(1000, 17, stream=k)


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

    def test_trusted_matchings_pass_the_full_check(self):
        # enumerate_matchings and from_pairs (behind the inverse map) build
        # without Matching's own check
        for n in range(1, 6):
            for m in enumerate_matchings(n):
                assert Matching(m.partner) == m
                back = oscillating_to_matching(matching_to_oscillating(m)[0])
                assert Matching(back.partner) == back

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


class TestStepBuiltWalk:
    """Walks built from their steps are checked per step at the step's
    corner; the full constructor, which re-derives every step from the
    shapes, must accept them and agree."""

    def test_agrees_with_full_constructor(self):
        for m in sample_matchings():
            osc, _ = matching_to_oscillating(m)
            for walk in (osc, conjugate_oscillating(osc)):
                full = OscillatingTableau(walk.shapes)
                assert full == walk
                assert full.steps == walk.steps

    @staticmethod
    def steps(*moves):
        return [TraceStep(Box(row, col), insertion) for row, col, insertion in moves]

    @pytest.mark.parametrize(
        "moves,message",
        [
            # a new row more than one below the last row
            ([(1, 1, True), (3, 1, True)], "shapes 1 and 2 do not differ by one box"),
            # a new row that does not start in column 1
            ([(1, 1, True), (2, 2, True)], "shapes 1 and 2 do not differ by one box"),
            # a column past the end of the row
            ([(1, 1, True), (1, 3, True)], "shapes 1 and 2 do not differ by one box"),
            # a column the row above does not reach
            ([(1, 1, True), (2, 1, True), (2, 2, True)], "shapes 2 and 3 do not"),
            # a removal inside the row, not at its end
            ([(1, 1, True), (1, 2, True), (1, 1, False)], "shapes 2 and 3 do not"),
            # a removal at the end of a row the row below is as long as
            ([(1, 1, True), (2, 1, True), (1, 1, False)], "shapes 2 and 3 do not"),
            # a removal from the empty shape
            ([(1, 1, False), (1, 1, True)], "shapes 0 and 1 do not"),
            # a row that does not exist
            ([(1, 1, True), (0, 1, True)], "shapes 1 and 2 do not"),
            # every step at a corner, but the walk ends at (1, 1)
            ([(1, 1, True), (2, 1, True)], "start and end at the empty shape"),
        ],
    )
    def test_corner_check_rejects(self, moves, message):
        with pytest.raises(ValueError, match=message):
            OscillatingTableau._from_moves(self.steps(*moves))

    def test_corner_check_accepts(self):
        walk = OscillatingTableau._from_moves(
            self.steps((1, 1, True), (1, 2, True), (2, 1, True),
                       (1, 2, False), (2, 1, False), (1, 1, False))
        )
        shapes = walk.shapes
        assert [p.parts for p in shapes] == [(), (1,), (2,), (2, 1), (1, 1), (1,), ()]
        assert all(Partition(p.parts) == p for p in shapes)
        assert walk.steps == OscillatingTableau(shapes).steps


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


class TestPublicTypes:
    """Callers get ``TraceStep`` steps of ``Box`` boxes; the walks the
    bijection builds for itself are plain ((row, col), insertion) moves."""

    def test_steps_hold_trace_steps_of_boxes(self):
        osc, trace = matching_to_oscillating(sample_uniform(50, 23, stream=1))
        for steps in (
            osc.steps,
            trace.steps,
            conjugate_oscillating(osc).steps,
            OscillatingTableau(osc.shapes).steps,
        ):
            assert len(steps) == 100
            assert all(type(s) is TraceStep and type(s.box) is Box for s in steps)
        _, vacated = delete_min_and_slide(Tableau(((1, 3), (2,))))
        assert type(vacated) is Box and vacated == Box(2, 1)

    def test_conjugate_matching_builds_no_step_objects(self, monkeypatch):
        m = sample_uniform(50, 23, stream=2)
        expected = conjugate_matching(m)

        def refuse(*args):
            raise AssertionError("a TraceStep or Box was built")

        monkeypatch.setattr("matchstat.bijection.TraceStep", refuse)
        monkeypatch.setattr("matchstat.bijection.Box", refuse)
        monkeypatch.setattr("matchstat.tableaux.Box", refuse)
        assert conjugate_matching(m) == expected


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


class TestOutputDigest:
    # sha256 over the inputs of sample_matchings of every output below,
    # computed with the walk checked by re-deriving each step from the shapes
    DIGEST = "8691b3fbc7788d37eaeb8e9f652a195f737bafddf433b0ac8484cd1fbbd0c882"

    def test_outputs_digest(self):
        h = hashlib.sha256()
        for m in sample_matchings():
            osc, trace = matching_to_oscillating(m)
            conj = conjugate_oscillating(osc)
            record = (
                str(osc),
                osc.steps,
                trace.steps,
                oscillating_to_matching(osc).partner,
                conjugate_matching(m).partner,
                str(conj),
                conj.steps,
                [int(classify_position(osc, i)) for i in range(1, m.size)],
            )
            h.update(repr(record).encode())
        assert h.hexdigest() == self.DIGEST


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


class TestGrowthDiagramOracle:
    """Every shape of the walk, and of its conjugate, against Fomin's
    growth diagram of the matching (tests/growth_oracle.py), which builds
    them with local rules instead of insertions and slides."""

    @staticmethod
    def check(m):
        osc, _ = matching_to_oscillating(m)
        corners = growth_corners(m.partner)
        assert [p.parts for p in osc.shapes] == [transpose(p) for p in corners]
        assert [p.parts for p in conjugate_oscillating(osc).shapes] == corners

    def test_exhaustive(self):
        checked = 0
        for n in range(1, 7):
            for m in enumerate_matchings(n):
                self.check(m)
                checked += 1
        assert checked == 1 + 3 + 15 + 105 + 945 + 10395

    def test_seeded_draws(self):
        for n in (20, 50, 100, 200):
            for k in range(3):
                self.check(sample_uniform(n, 29, stream=k))


class TestLazyTrace:
    """The trace's tableaux are fully validated Tableaux, agree with the
    in-place walk, and equal a replay through the public operations."""

    @staticmethod
    def check(m):
        osc, trace = matching_to_oscillating(m)
        tableaux = trace.tableaux
        assert all(Tableau(t.rows) == t for t in tableaux)
        assert tuple(t.shape for t in tableaux) == osc.shapes
        assert trace.steps == osc.steps
        tab = Tableau()
        for i, j in enumerate(m.partner, start=1):
            if i < j:
                tab, route = row_insert(tab, j)
                box = route.new_box
            else:
                tab, box = delete_min_and_slide(tab)
            assert box == trace.steps[i - 1].box
            assert tab == tableaux[i]

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


class TestTraceBudget:
    """The trace counts its cells from the matching and refuses a trace
    of more than TRACE_BUDGET before it builds a tableau."""

    def test_budget_is_the_sum_of_the_tableau_sizes(self, monkeypatch):
        def no_tableau(*args, **kwargs):
            raise AssertionError("a tableau was built")

        for k in range(5):
            m = sample_uniform(30, 8, stream=k)
            cells = sum(t.shape.size for t in matching_to_oscillating(m)[1].tableaux)
            with monkeypatch.context() as patch:
                patch.setattr("matchstat.bijection.TRACE_BUDGET", cells)
                assert len(matching_to_oscillating(m)[1].tableaux) == 61
                patch.setattr("matchstat.bijection.TRACE_BUDGET", cells - 1)
                patch.setattr("matchstat.bijection.Tableau", no_tableau)
                _, trace = matching_to_oscillating(m)
                with pytest.raises(BudgetError, match=f"^trace cells={cells} exceeds"):
                    trace.tableaux

    def test_every_opener_first_past_the_budget(self):
        # n openers before their n closers: n^2 cells, the most 2n steps reach
        n = 1449
        assert (n - 1) ** 2 <= TRACE_BUDGET < n**2
        closers = Random(0).sample(range(n + 1, 2 * n + 1), n)
        _, trace = matching_to_oscillating(from_pairs(enumerate(closers, start=1)))
        with pytest.raises(
            BudgetError, match=f"^trace cells={n * n} exceeds the budget trace cells <= "
        ):
            trace.tableaux
