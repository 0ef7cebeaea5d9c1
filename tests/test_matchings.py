"""Core matching type, enumeration, sampling, and exact moments."""

import hashlib
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from matchstat import (
    BudgetError,
    Matching,
    brute_force_moments,
    clt_experiment,
    closed_form_moments,
    compare_reports,
    descent_stats,
    double_factorial,
    enumerate_matchings,
    from_pairs,
    parse_matching,
    sample_uniform,
)
from matchstat.cli import build_parser
from matchstat.matchings import _partners, _stream_states


@pytest.mark.parametrize(
    "m,expected",
    [(-1, 1), (1, 1), (3, 3), (5, 15), (7, 105), (9, 945), (11, 10395)],
)
def test_double_factorial(m, expected):
    assert double_factorial(m) == expected


@pytest.mark.parametrize("m", [-3, 0, 2, 10])
def test_double_factorial_rejects(m):
    with pytest.raises(ValueError):
        double_factorial(m)


class TestFromPairs:
    def test_single_pair(self):
        assert from_pairs([(1, 2)]).partner == (2, 1)

    def test_worked_example(self):
        m = from_pairs([(1, 4), (2, 3), (5, 6)])
        assert m.partner == (4, 3, 2, 1, 6, 5)
        assert m.n == 3
        assert m.pairs() == ((1, 4), (2, 3), (5, 6))

    def test_repeated_element(self):
        with pytest.raises(ValueError, match="element 3 repeated"):
            from_pairs([(1, 3), (2, 3)])

    def test_self_pair(self):
        with pytest.raises(ValueError, match="paired with itself"):
            from_pairs([(1, 1), (2, 3)])

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            from_pairs([(1, 2), (3, 7)])

    def test_empty(self):
        with pytest.raises(ValueError):
            from_pairs([])

    def test_pair_order_is_irrelevant(self):
        assert from_pairs([(5, 6), (2, 3), (1, 4)]) == from_pairs(
            [(1, 4), (2, 3), (5, 6)]
        )


class TestMatchingValidation:
    def test_fixed_point(self):
        with pytest.raises(ValueError, match="fixed point"):
            Matching((1, 2))

    def test_not_involution(self):
        with pytest.raises(ValueError, match="do not pair up"):
            Matching((2, 3, 4, 1))

    def test_odd_length(self):
        with pytest.raises(ValueError):
            Matching((2, 3, 1))

    def test_out_of_range_entry(self):
        with pytest.raises(ValueError, match="out of range"):
            Matching((2, 1, 5, 3))


class TestTextFormat:
    def test_canonical_emission(self):
        assert str(from_pairs([(1, 4), (2, 3), (5, 6)])) == "1-4,2-3,5-6"

    def test_parse_unsorted(self):
        assert str(parse_matching("5-6,2-3,4-1")) == "1-4,2-3,5-6"

    def test_parse_whitespace(self):
        assert str(parse_matching(" 1-2 , 3-4 ")) == "1-2,3-4"

    @pytest.mark.parametrize("text", ["1-1", "1:2", "a-b", "1-2,3", ""])
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            parse_matching(text)

    def test_round_trip(self):
        for m in enumerate_matchings(3):
            assert parse_matching(str(m)) == m


class TestDescentStats:
    def test_worked_example(self):
        st = descent_stats(from_pairs([(1, 4), (2, 3), (5, 6)]))
        assert st.des_set == (1, 2, 3, 5)
        assert st.descent_number == 5
        assert st.major_index == 11

    def test_conjugate_of_worked_example(self):
        st = descent_stats(from_pairs([(1, 3), (2, 4), (5, 6)]))
        assert st.des_set == (2, 5)
        assert st.descent_number == 3
        assert st.major_index == 7

    def test_unique_matching_of_s2(self):
        st = descent_stats(from_pairs([(1, 2)]))
        assert st.des_set == (1,)
        assert st.descent_number == 2
        assert st.major_index == 1

    def test_descent_set_characterization(self):
        for m in enumerate_matchings(3):
            des = set(descent_stats(m).des_set)
            for i in range(1, 2 * m.n):
                assert (i in des) == (m.partner_of(i) > m.partner_of(i + 1))

    def test_derived_fields(self):
        for m in enumerate_matchings(3):
            st = descent_stats(m)
            assert st.descent_number == st.descent_count + 1
            assert st.major_index == sum(st.des_set)
            assert all(1 <= i <= 2 * m.n - 1 for i in st.des_set)


class TestEnumeration:
    def test_counts(self):
        for n in range(1, 5):
            assert sum(1 for _ in enumerate_matchings(n)) == double_factorial(
                2 * n - 1
            )

    def test_n2_listing_and_order(self):
        listing = [str(m) for m in enumerate_matchings(2)]
        assert listing == ["1-2,3-4", "1-3,2-4", "1-4,2-3"]

    def test_distinct(self):
        seen = set(m.partner for m in enumerate_matchings(4))
        assert len(seen) == 105

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            enumerate_matchings(0)

    def test_symmetry_of_statistics(self):
        # the d-multiset is symmetric about n+1 and the maj-multiset
        # about n^2 for every n <= 5
        for n in range(1, 6):
            d_hist: dict[int, int] = {}
            maj_hist: dict[int, int] = {}
            for m in enumerate_matchings(n):
                st = descent_stats(m)
                d_hist[st.descent_number] = d_hist.get(st.descent_number, 0) + 1
                maj_hist[st.major_index] = maj_hist.get(st.major_index, 0) + 1
            assert all(
                d_hist[d] == d_hist.get(2 * (n + 1) - d, 0) for d in d_hist
            ), n
            assert all(
                maj_hist[mj] == maj_hist.get(2 * n * n - mj, 0) for mj in maj_hist
            ), n


class TestSampling:
    def test_s2_is_forced(self):
        assert sample_uniform(1, 123456789) == from_pairs([(1, 2)])

    def test_deterministic(self):
        a = sample_uniform(10, 42, stream=3)
        b = sample_uniform(10, 42, stream=3)
        assert a == b

    def test_streams_differ(self):
        draws = {sample_uniform(10, 42, stream=k).partner for k in range(8)}
        assert len(draws) > 1

    def test_seeds_differ(self):
        assert sample_uniform(10, 1).partner != sample_uniform(10, 2).partner

    def test_valid_matchings(self):
        # sample_uniform skips the constructor's check on its own draw, so
        # run that check here on draws from each size
        for n in (1, 3, 50, 1000):
            for k in range(20):
                m = sample_uniform(n, 7, stream=k)
                assert m.n == n
                assert Matching(m.partner) == m

    def test_partner_holds_python_ints(self):
        # the draw is a numpy array; the Matching must hash, compare and
        # print exactly like one built from plain integers
        m = sample_uniform(20, 5, stream=1)
        assert all(type(j) is int for j in m.partner)
        rebuilt = from_pairs(m.pairs())
        assert m == rebuilt and hash(m) == hash(rebuilt) and str(m) == str(rebuilt)

    def test_rough_uniformity_n2(self):
        counts = {"1-2,3-4": 0, "1-3,2-4": 0, "1-4,2-3": 0}
        draws = 6000
        for k in range(draws):
            counts[str(sample_uniform(2, 42, stream=k))] += 1
        for c in counts.values():
            assert abs(c - draws / 3) < 200  # ~5 sigma

    # sha256 of repr([sample_uniform(n, 42, k).partner for k in range(50)]),
    # computed on the sampler that drew with rng.permutation per stream
    @pytest.mark.parametrize(
        "n,digest",
        [
            (1, "4468634477a67d26c70125e062cf7eea46449a462d768fc96825eba82266ba40"),
            (3, "e8582f58246fdfd3c489e8ca20c4c4a95945c95568f99dc9336500d14a688861"),
            (1000, "68e3ca7fd74ace687f01f8b755da5ca36db7e5347c27ae7b5aaf1437766bc9b1"),
        ],
    )
    def test_seeded_draws_digest(self, n, digest):
        draws = [sample_uniform(n, 42, stream=k).partner for k in range(50)]
        assert hashlib.sha256(repr(draws).encode()).hexdigest() == digest

    def test_joint_des_maj_chi_square_n6(self):
        # Pearson's test of the (descent count, maj) cells of seeded draws
        # against the exact joint law of all 10395 matchings at n = 6.
        # Cells expected below 5 draws are pooled into one: 125 cells plus
        # the pool, df = 125.  The critical value is the upper 1e-6
        # quantile of chi-square(125), 215.0146, so a correct sampler
        # fails with probability 1e-6; unlike the DKW check of the descent
        # count alone, it sees how the descents are placed.
        def cell(m):
            st = descent_stats(m)
            return st.descent_count, st.major_index

        draws = 20000
        law = Counter(cell(m) for m in enumerate_matchings(6))
        total = double_factorial(11)
        seen = Counter(cell(sample_uniform(6, 42, stream=k)) for k in range(draws))
        assert len(law) == 171 and set(seen) <= set(law)
        kept = [c for c in law if draws * law[c] >= 5 * total]
        pooled = [c for c in law if c not in kept]
        expected = [draws * law[c] / total for c in kept]
        expected.append(draws * sum(law[c] for c in pooled) / total)
        observed = [seen[c] for c in kept] + [sum(seen[c] for c in pooled)]
        assert len(expected) - 1 == 125
        stat = sum((o - e) ** 2 / e for o, e in zip(observed, expected))
        assert stat <= 215.01

    def test_rejects_bad_seed(self):
        with pytest.raises(ValueError):
            sample_uniform(2, -1)
        with pytest.raises(ValueError):
            sample_uniform(2, 2**64)

    def test_sample_budget_limit(self, monkeypatch):
        monkeypatch.setattr("matchstat.matchings.SAMPLE_BUDGET", 5)
        assert sample_uniform(5, 1).n == 5
        with pytest.raises(BudgetError, match="n=6 exceeds the budget n <= 5"):
            sample_uniform(6, 1)


def _tableau_random(n):
    args = build_parser().parse_args(["tableau", "--random", "2", "--n", str(n)])
    return args.func(args)


class TestDrawRequest:
    """Every entry point that draws refuses a request in one order, before
    any draw or worker pool: sample budget, draw cost, seed, stream."""

    ENTRY_POINTS = {
        "sample_uniform": lambda n: sample_uniform(n, 1),
        "clt_experiment": lambda n: clt_experiment(n, 2, 1, threads=2),
        "tableau --random": _tableau_random,
    }

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_sample_budget_refused_first(self, monkeypatch, entry):
        def no_draw(*args, **kwargs):
            raise AssertionError("a draw or a worker pool started")

        monkeypatch.setattr("matchstat.matchings.SAMPLE_BUDGET", 10)
        monkeypatch.setattr("matchstat.matchings.DRAW_BUDGET", 1000)
        monkeypatch.setattr("matchstat.matchings._stream_generators", no_draw)
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_draw)
        draw = self.ENTRY_POINTS[entry]
        # every draw costs at least 1024 letters: n = 10 breaks only the
        # draw budget, n = 11 both budgets
        with pytest.raises(BudgetError, match="^draw cost=.* exceeds"):
            draw(10)
        with pytest.raises(BudgetError, match="^n=11 exceeds the budget n <= 10$"):
            draw(11)


class TestStreamStates:
    # numpy's stream compatibility policy (NEP 19) fixes SeedSequence and
    # PCG64, so these states must equal numpy's; a failure here means the
    # computed states, or numpy, broke the seeded draws
    STREAMS = (0, 1, 777, 1999, 2**32 - 2, 2**32 - 1)

    @staticmethod
    def numpy_state(seed, k):
        bits = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(k,)))
        state = bits.state["state"]
        return state["state"], state["inc"]

    @pytest.mark.parametrize(
        "seed", [0, 1, 42, 2**32 - 1, 2**32, 2**63 + 12345, 2**64 - 1]
    )
    def test_states_equal_numpy(self, seed):
        low = _stream_states(seed, 0, 2000)
        high = _stream_states(seed, 2**32 - 2, 2**32)
        assert len(low) == 2000 and len(high) == 2
        for k in self.STREAMS:
            expected = self.numpy_state(seed, k)
            assert _stream_states(seed, k, k + 1) == [expected], k
            assert (low[k] if k < 2000 else high[k - 2**32 + 2]) == expected, k

    def test_range_across_two_word_streams(self):
        # streams from 2^32 on have a two-word spawn key and are built by
        # numpy's constructors, as every single sample_uniform stream is
        start, stop = 2**32 - 3, 2**32 + 3
        drawn = [tuple((p + 1).tolist()) for p in _partners(7, 42, start, stop)]
        assert drawn == [
            sample_uniform(7, 42, stream=k).partner for k in range(start, stop)
        ]


class TestClosedFormMoments:
    def test_n2_examples(self):
        rep = closed_form_moments(2)
        assert rep.p_descent == Fraction(2, 3)
        assert rep.mean_d == 3
        assert rep.mean_maj == 4

    def test_n4_examples(self):
        rep = closed_form_moments(4)
        assert rep.var_d == Fraction(8, 7)
        assert rep.var_maj == Fraction(64, 3)
        assert rep.p_joint_nonadjacent == Fraction(12, 35)

    def test_n3_adjacent(self):
        assert closed_form_moments(3).p_joint_adjacent == Fraction(4, 15)

    def test_variance_identity(self):
        for n in range(1, 9):
            rep = closed_form_moments(n)
            assert rep.var_d == rep.second_moment_d - rep.mean_d**2
            assert rep.var_maj == rep.second_moment_maj - rep.mean_maj**2

    def test_validity_flags(self):
        assert "p_joint_adjacent" in closed_form_moments(2).invalid_fields
        assert "var_d" in closed_form_moments(3).invalid_fields
        assert closed_form_moments(3).is_valid("p_joint_adjacent")
        assert not closed_form_moments(4).invalid_fields


class TestBruteForceMoments:
    def test_n2_means(self):
        rep = brute_force_moments(2)
        assert rep.mean_d == Fraction(3 + 2 + 4, 3)
        assert rep.mean_maj == Fraction(4 + 2 + 6, 3)

    def test_oracle_equivalence_n4(self):
        verdicts = compare_reports(closed_form_moments(4), brute_force_moments(4))
        assert all(v is True for v in verdicts.values())

    def test_joint_flags_at_n1(self):
        rep = brute_force_moments(1)
        assert rep.p_joint_adjacent is None
        assert rep.p_joint_nonadjacent is None
        assert not rep.is_valid("p_joint_adjacent")

    def test_flagged_closed_forms_hold_below_their_thresholds(self):
        # the flags mark what the paper proves; the raw formulas are exact
        # wherever enumeration has a value to compare
        for n in range(1, 4):
            closed, brute = closed_form_moments(n), brute_force_moments(n)
            assert closed.invalid_fields
            for name in closed.invalid_fields:
                if brute.value(name) is not None:
                    assert closed.value(name) == brute.value(name), (n, name)

    def test_adjacent_comparable_at_n3(self):
        verdicts = compare_reports(closed_form_moments(3), brute_force_moments(3))
        assert verdicts["p_joint_adjacent"] is True
        assert verdicts["var_d"] is None  # closed form not established yet

    def test_budget_refused_before_enumeration(self, monkeypatch):
        def no_enumeration(n):
            raise AssertionError("enumeration started")

        monkeypatch.setattr("matchstat.matchings.enumerate_matchings", no_enumeration)
        with pytest.raises(BudgetError, match="^n=7 exceeds the budget n <= 6$"):
            brute_force_moments(7)
