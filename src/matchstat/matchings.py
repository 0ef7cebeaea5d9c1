"""Matchings of {1, ..., 2n} and their descent statistics.

A matching (fixed-point-free involution) pairs up the letters 1..2n;
S_{2n} contains (2n-1)!! of them.  This module provides exact
enumeration, uniform sampling with reproducible (seed, stream)
addressing, and the descent/major-index moments both in closed form and
by exhaustive brute force.  All moments are exact `fractions.Fraction`
values; the brute-force report is the oracle for the closed forms.
Each outside value is checked in one place, here or in the modules
built on this one: a size n by _check_n (ValueError unless n is an
integer >= 1; 2.5 and 2.0 are not), a request for draws by _check_draws.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, ClassVar, Iterable, Iterator

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "ENUMERATION_BUDGET",
    "SAMPLE_BUDGET",
    "DRAW_BUDGET",
    "BudgetError",
    "Matching",
    "DescentStats",
    "MomentReport",
    "double_factorial",
    "from_pairs",
    "parse_matching",
    "descent_stats",
    "enumerate_matchings",
    "sample_uniform",
    "closed_form_moments",
    "brute_force_moments",
    "compare_reports",
]

_UINT64_MAX = 2**64 - 1

#: Largest n for which exhaustive enumeration is considered affordable.
ENUMERATION_BUDGET = 6

#: Largest n for which a matching of 2n letters is drawn at random; one
#: draw at this n holds about 100 MB.
SAMPLE_BUDGET = 2**20

#: Largest draw cost of one request.  A request for B draws at n costs
#: B * max(2n, 1024) letters, so every draw pays at least a fixed cost
#: and no n escapes the budget; 100000 draws at n = 1000 cost 2 * 10^8.
DRAW_BUDGET = 2**28
_DRAW_FLOOR = 1024


class BudgetError(RuntimeError):
    """A request exceeded a documented computational budget."""

    def __init__(self, parameter: str, value: int, limit: int):
        super().__init__(
            f"{parameter}={value} exceeds the budget {parameter} <= {limit}"
        )
        self.parameter = parameter
        self.value = value
        self.limit = limit


def _unchecked(cls, **fields):
    """An instance of ``cls`` with the given attributes, built without its check.

    Only for a value this package has just built from parts it checked;
    a value from outside goes through ``cls(...)`` and its full check.
    """
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _integer(value) -> int | None:
    # operator.index takes exactly the integers: int, bool, numpy integers
    try:
        return operator.index(value)
    except TypeError:
        return None


def _check_n(n) -> int:
    """n as an int; ValueError unless n is an integer, then unless n >= 1."""
    size = _integer(n)
    if size is None:
        raise ValueError(f"n must be an integer, got {n!r}")
    if size < 1:
        raise ValueError("n must be >= 1")
    return size


def double_factorial(m: int) -> int:
    """Product m * (m-2) * ... * 1 for odd m, with (-1)!! = 1.

    For m = 2n - 1 this counts the matchings of S_{2n}; 5.0 is refused.
    """
    k = _integer(m)
    if k is None or k < -1 or k % 2 == 0:
        raise ValueError(f"double factorial needs an odd integer >= -1, got {m}")
    return math.prod(range(k, 1, -2))


@dataclass(frozen=True)
class Matching:
    """A fixed-point-free involution of {1..2n} in one-line notation.

    ``partner[i - 1]`` is the partner of letter i (1-indexed letters).
    """

    partner: tuple[int, ...]

    def __post_init__(self) -> None:
        p = self.partner
        size = len(p)
        if size == 0 or size % 2:
            raise ValueError("a matching needs a positive even number of letters")
        seen = [False] * (size + 1)
        for i, j in enumerate(p, start=1):
            if not 1 <= j <= size:
                raise ValueError(f"element {j} out of range 1..{size}")
            if j == i:
                raise ValueError(f"element {i} is a fixed point")
            if seen[j]:
                raise ValueError(f"element {j} repeated")
            seen[j] = True
        for i, j in enumerate(p, start=1):
            if p[j - 1] != i:
                raise ValueError(f"elements {i} and {j} do not pair up")

    @property
    def n(self) -> int:
        return len(self.partner) // 2

    @property
    def size(self) -> int:
        return len(self.partner)

    def partner_of(self, i: int) -> int:
        if not 1 <= i <= len(self.partner):
            raise ValueError(f"element {i} out of range 1..{len(self.partner)}")
        return self.partner[i - 1]

    def pairs(self) -> tuple[tuple[int, int], ...]:
        """The blocks {a, b} as (a, b) with a < b, sorted by a."""
        return tuple((i, j) for i, j in enumerate(self.partner, start=1) if i < j)

    def __str__(self) -> str:
        return ",".join(f"{a}-{b}" for a, b in self.pairs())


def from_pairs(pairs: Iterable[tuple[int, int]]) -> Matching:
    """Build a matching from its blocks; the blocks must tile {1..2n}."""
    blocks = list(pairs)
    size = 2 * len(blocks)
    if size == 0:
        raise ValueError("at least one pair is required")
    partner = [0] * size
    seen = [False] * (size + 1)
    for a, b in blocks:
        if a == b:
            raise ValueError(f"element {a} paired with itself")
        for x in (a, b):
            if not 1 <= x <= size:
                raise ValueError(f"element {x} out of range 1..{size}")
            if seen[x]:
                raise ValueError(f"element {x} repeated")
            seen[x] = True
        partner[a - 1] = b
        partner[b - 1] = a
    # n blocks of distinct in-range letters cover all 2n letters once, so
    # partner is already a fixed-point-free involution
    return _unchecked(Matching, partner=tuple(partner))


def parse_matching(text: str) -> Matching:
    """Parse the pair format "1-4,2-3,5-6" (pairs in any order).

    ``str(matching)`` emits the canonical form: a < b within each pair,
    pairs sorted by their smaller element.
    """
    pairs = []
    for token in text.split(","):
        token = token.strip()
        left, sep, right = token.partition("-")
        if not sep:
            raise ValueError(f"malformed pair {token!r}")
        try:
            a, b = int(left), int(right)
        except ValueError:
            raise ValueError(f"malformed pair {token!r}") from None
        pairs.append((min(a, b), max(a, b)))
    return from_pairs(pairs)


@dataclass(frozen=True)
class DescentStats:
    """Descent data of a matching: positions, count, d = count + 1, maj."""

    des_set: tuple[int, ...]
    descent_count: int
    descent_number: int
    major_index: int


def descent_stats(m: Matching) -> DescentStats:
    """Descent set {i : partner[i] > partner[i+1]} and derived statistics."""
    p = m.partner
    des = tuple(i for i in range(1, len(p)) if p[i - 1] > p[i])
    return DescentStats(des, len(des), len(des) + 1, sum(des))


def enumerate_matchings(n: int) -> Iterator[Matching]:
    """Yield every matching of S_{2n} exactly once.

    Deterministic order: the smallest unmatched letter is paired with each
    larger unmatched letter in increasing order, recursively.  Yields
    (2n-1)!! matchings.
    """
    n = _check_n(n)
    partner = [0] * (2 * n)

    def fill(unmatched: tuple[int, ...]) -> Iterator[Matching]:
        if not unmatched:
            yield _unchecked(Matching, partner=tuple(partner))
            return
        a = unmatched[0]
        rest = unmatched[1:]
        for idx, b in enumerate(rest):
            partner[a - 1] = b
            partner[b - 1] = a
            yield from fill(rest[:idx] + rest[idx + 1 :])

    return fill(tuple(range(1, 2 * n + 1)))


def _check_draws(n: int, seed: int, start: int, stop: int, per_letter: int = 1) -> None:
    """Refuse a request for the draws at n on streams start .. stop-1.

    Every entry point that draws calls this once, after its own argument
    checks and before any draw or worker pool.  The refusals come in one
    order: BudgetError for n > SAMPLE_BUDGET, then BudgetError for a draw
    cost (stop - start) * max(2n, 1024) * per_letter above DRAW_BUDGET (a
    caller that does more than draw charges ``per_letter`` for each
    letter), then ValueError unless 0 <= seed < 2^64 and start >= 0 are
    integers.  The draws themselves trust seed and every stream.
    """
    if n > SAMPLE_BUDGET:
        raise BudgetError("n", n, SAMPLE_BUDGET)
    cost = (stop - start) * max(2 * n, _DRAW_FLOOR) * per_letter
    if cost > DRAW_BUDGET:
        raise BudgetError("draw cost", cost, DRAW_BUDGET)
    if _integer(seed) is None or not 0 <= seed <= _UINT64_MAX:
        raise ValueError("seed must be an unsigned 64-bit integer")
    if _integer(start) is None or start < 0:
        raise ValueError("stream must be a non-negative integer")


#: Streams whose PCG64 states _partners computes in one pass.
_STREAM_BLOCK = 256

_M32 = 0xFFFFFFFF
_M128 = 2**128 - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_constants(init: int, mult: int, count: int) -> tuple[int, ...]:
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & _M32)
    return tuple(out)


# numpy's SeedSequence (pool size 4): hash call j of its entropy mixing
# xors with _MIX_HASH[j] and multiplies by _MIX_HASH[j + 1]; word i of
# generate_state does the same with _STATE_HASH.
_MIX_HASH = _hash_constants(0x43B0D7E5, 0x931E8875, 20)
_STATE_HASH = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)


# _hash and _mix take numpy uint32 arrays, whose arithmetic wraps modulo
# 2^32 as numpy's own 32-bit words do.
def _hash(value, xor, mul):
    value = (value ^ xor) * mul
    return value ^ value >> 16


def _mix(x, y):
    value = 0xCA01F9DD * x - 0x4973F715 * y
    return value ^ value >> 16


def _stream_states(seed: int, start: int, stop: int) -> list[tuple[int, int]]:
    """The PCG64 (state, inc) of the streams start .. stop-1, stop <= 2^32.

    Entry k - start is PCG64(SeedSequence(seed, spawn_key=(k,))).state,
    computed in one pass as numpy's SeedSequence documentation and
    O'Neill's PCG report (HMC-CS-2014-0905) define it.  The entropy is
    the words of seed padded with zeros to the pool size 4, then the word
    k.  numpy hashes a missing seed word as it hashes that zero padding,
    so the seed alone mixes into the pool of SeedSequence(seed), and only
    the last mixing round depends on k: it and generate_state(4, uint64)
    run vectorised over k, then PCG64's seeding per stream.  Raises
    ValueError for stop > 2^32, where k would need a second word.
    """
    import numpy as np
    from numpy.random import SeedSequence

    if stop > 2**32:
        raise ValueError(f"stream {stop - 1} has a two-word spawn key")
    # hash calls 0 .. 15 mix the seed into the pool, 16 .. 19 the word k
    k = np.arange(start, stop, dtype=np.uint32)
    h = np.array(_MIX_HASH, dtype=np.uint32)[:, None]
    pool = _mix(SeedSequence(seed).pool[:, None], _hash(k, h[16:20], h[17:21]))
    h = np.array(_STATE_HASH, dtype=np.uint32)[:, None]
    words = _hash(pool[[0, 1, 2, 3, 0, 1, 2, 3]], h[:8], h[1:]).astype(np.uint64)
    states = []
    for s_hi, s_lo, i_hi, i_lo in (words[0::2] | words[1::2] << 32).T.tolist():
        # PCG64's seeding: inc = 2 initseq + 1, then state = initstate
        # between two LCG steps from 0
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _M128
        states.append(((((s_hi << 64 | s_lo) + inc) * _PCG64_MULT + inc) & _M128, inc))
    return states


def _stream_generators(
    seed: int, start: int, stop: int
) -> Iterator[np.random.Generator]:
    # Yields, for k = start .. stop-1, one Generator per range at the
    # start of stream k, seeded one way: numpy's constructors seed stream
    # start, and the states of the rest are computed a block at a time
    # (_stream_states) and set on the same Generator, so memory does not
    # grow with the range.
    # numpy.random is imported only here, which keeps it, and its memory,
    # out of processes that never draw.
    from numpy import random

    if start >= stop:
        return
    bits = random.PCG64(random.SeedSequence(seed, spawn_key=(start,)))
    rng = random.Generator(bits)
    fresh = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0}
    yield rng
    for a in range(start + 1, stop, _STREAM_BLOCK):
        for state, inc in _stream_states(seed, a, min(a + _STREAM_BLOCK, stop)):
            fresh["state"] = {"state": state, "inc": inc}
            bits.state = fresh
            yield rng


def _partners(n: int, seed: int, start: int, stop: int) -> Iterator[np.ndarray]:
    """The 0-based partner arrays of the draws on streams start .. stop-1.

    Draw k shuffles the letters 0..2n-1 with the stream
    PCG64(SeedSequence(seed, spawn_key=(k,))), the one default_rng gives
    for that SeedSequence, and pairs the letters at positions 2t and 2t+1
    (uniform; see sample_uniform).  The stream is the same however the
    range is cut, and it is seeded one way: numpy's constructors seed the
    range's first stream, and the states of the rest are computed
    _STREAM_BLOCK streams at a time (_stream_states) and set on the same
    PCG64.  Every draw overwrites and yields the same array, so a caller
    must use it before taking the next one.
    """
    import numpy as np

    letters = np.arange(2 * n)
    neighbour = letters ^ 1
    perm = np.empty_like(letters)
    partner = np.empty_like(letters)
    for rng in _stream_generators(seed, start, stop):
        perm[:] = letters
        rng.shuffle(perm)  # the permutation rng.permutation(2n) would return
        partner[perm] = perm[neighbour]
        yield partner


def _matchings(n: int, seed: int, start: int, stop: int) -> Iterator[Matching]:
    # Draw k - start is the matching sample_uniform(n, seed, k) returns;
    # the caller has passed the request through _check_draws.
    for partner in _partners(n, seed, start, stop):
        yield _unchecked(Matching, partner=tuple((partner + 1).tolist()))


def sample_uniform(n: int, seed: int, stream: int = 0) -> Matching:
    """A uniformly random matching of S_{2n}.

    Shuffles 1..2n uniformly and pairs the letters at positions 2t and
    2t+1.  The result is uniform: each matching arises from exactly
    2^n * n! of the (2n)! permutations (order its n blocks, then orient
    each block).  The shuffle draws from PCG64 seeded by
    SeedSequence(seed, spawn_key=(stream,)), a range of one stream, so
    numpy's constructors seed it, as they seed the first stream of every
    range (see _partners).  The result is deterministic for
    fixed (seed, stream) and distinct streams are independent: callers
    may parallelize by assigning one stream per draw.  Raises
    BudgetError for n > SAMPLE_BUDGET, then ValueError unless
    0 <= seed < 2^64 and stream >= 0 are integers (see _check_draws).
    """
    n = _check_n(n)
    _check_draws(n, seed, stream, stream + 1)
    # unpacking runs the generators to their end: closing them while
    # suspended, as next() would leave them, costs about 1 us per draw
    (m,) = _matchings(n, seed, stream, stream + 1)
    return m


@dataclass(frozen=True)
class MomentReport:
    """Exact moments of d and maj over the matchings of S_{2n}.

    ``invalid_fields`` marks entries outside the range where they are
    established (closed forms below their n thresholds, joint
    probabilities when no position pair of that kind exists).  Flagged
    fields still carry the raw formula value when one can be evaluated,
    or None otherwise.
    """

    n: int
    mean_d: Fraction
    var_d: Fraction
    second_moment_d: Fraction
    mean_maj: Fraction
    var_maj: Fraction
    second_moment_maj: Fraction
    p_descent: Fraction
    p_joint_adjacent: Fraction | None
    p_joint_nonadjacent: Fraction | None
    invalid_fields: frozenset[str] = frozenset()

    FIELD_NAMES: ClassVar[tuple[str, ...]] = (
        "mean_d",
        "var_d",
        "second_moment_d",
        "mean_maj",
        "var_maj",
        "second_moment_maj",
        "p_descent",
        "p_joint_adjacent",
        "p_joint_nonadjacent",
    )

    def value(self, name: str) -> Fraction | None:
        if name not in self.FIELD_NAMES:
            raise ValueError(f"unknown field {name!r}")
        return getattr(self, name)

    def is_valid(self, name: str) -> bool:
        return name not in self.invalid_fields and self.value(name) is not None


def closed_form_moments(n: int) -> MomentReport:
    """The closed-form moment report.

    Single-position descent probability n/(2n-1), adjacent joint
    probability (n+1)/(3(2n-1)) (established for n >= 3), non-adjacent
    joint probability n(n-1)/((2n-1)(2n-3)) (n >= 4), E d = n + 1,
    Var d = (n+4)(n-1)/(3(2n-1)), E maj = n^2,
    Var maj = 2n(n+4)(n-1)/9 (variances and second moments need n >= 4).
    Below the thresholds the formula value is returned but flagged.

    The flags mark the range the paper proves, not where the formulas
    fail: enumeration matches every raw value at n = 2 and 3, and at
    n = 1 every field except the joint probabilities, which have no
    position pairs there.  The exact coefficients are checked against
    var_d at every n >= 1.
    """
    n = _check_n(n)
    invalid = set()
    if n < 3:
        invalid.add("p_joint_adjacent")
    if n < 4:
        invalid |= {
            "p_joint_nonadjacent",
            "var_d",
            "second_moment_d",
            "var_maj",
            "second_moment_maj",
        }
    return MomentReport(
        n=n,
        mean_d=Fraction(n + 1),
        var_d=Fraction((n + 4) * (n - 1), 3 * (2 * n - 1)),
        second_moment_d=Fraction(6 * n**3 + 10 * n**2 + 3 * n - 7, 3 * (2 * n - 1)),
        mean_maj=Fraction(n * n),
        var_maj=Fraction(2 * n * (n + 4) * (n - 1), 9),
        second_moment_maj=Fraction(9 * n**4 + 2 * n**3 + 6 * n**2 - 8 * n, 9),
        p_descent=Fraction(n, 2 * n - 1),
        p_joint_adjacent=Fraction(n + 1, 3 * (2 * n - 1)),
        p_joint_nonadjacent=Fraction(n * (n - 1), (2 * n - 1) * (2 * n - 3)),
        invalid_fields=frozenset(invalid),
    )


def brute_force_moments(n: int) -> MomentReport:
    """The same report computed by exhaustive enumeration (the oracle).

    Joint probabilities are averaged over all valid position pairs of
    each kind; cost grows as (2n-1)!!, so n above ENUMERATION_BUDGET
    raises BudgetError before the first matching.
    """
    n = _check_n(n)
    if n > ENUMERATION_BUDGET:
        raise BudgetError("n", n, ENUMERATION_BUDGET)
    count = 0
    sum_d = sum_d2 = sum_maj = sum_maj2 = 0
    descent_hits = adjacent_hits = nonadjacent_hits = 0
    for m in enumerate_matchings(n):
        st = descent_stats(m)
        count += 1
        d = st.descent_number
        mj = st.major_index
        k = st.descent_count
        sum_d += d
        sum_d2 += d * d
        sum_maj += mj
        sum_maj2 += mj * mj
        descent_hits += k
        des = st.des_set
        adj = sum(1 for a, b in zip(des, des[1:]) if b == a + 1)
        adjacent_hits += adj
        nonadjacent_hits += k * (k - 1) // 2 - adj
    positions = 2 * n - 1
    adjacent_positions = positions - 1
    nonadjacent_positions = positions * (positions - 1) // 2 - adjacent_positions
    p_adj = (
        Fraction(adjacent_hits, count * adjacent_positions)
        if adjacent_positions
        else None
    )
    p_non = (
        Fraction(nonadjacent_hits, count * nonadjacent_positions)
        if nonadjacent_positions
        else None
    )
    invalid = {
        name
        for name, v in (("p_joint_adjacent", p_adj), ("p_joint_nonadjacent", p_non))
        if v is None
    }
    mean_d = Fraction(sum_d, count)
    mean_maj = Fraction(sum_maj, count)
    second_d = Fraction(sum_d2, count)
    second_maj = Fraction(sum_maj2, count)
    return MomentReport(
        n=n,
        mean_d=mean_d,
        var_d=second_d - mean_d**2,
        second_moment_d=second_d,
        mean_maj=mean_maj,
        var_maj=second_maj - mean_maj**2,
        second_moment_maj=second_maj,
        p_descent=Fraction(descent_hits, count * positions),
        p_joint_adjacent=p_adj,
        p_joint_nonadjacent=p_non,
        invalid_fields=frozenset(invalid),
    )


def compare_reports(a: MomentReport, b: MomentReport) -> dict[str, bool | None]:
    """Field-by-field exact equality; None where either side is not valid."""
    out: dict[str, bool | None] = {}
    for name in MomentReport.FIELD_NAMES:
        if a.is_valid(name) and b.is_valid(name):
            out[name] = a.value(name) == b.value(name)
        else:
            out[name] = None
    return out
