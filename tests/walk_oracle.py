"""Transfer-count oracle for the descent polynomial, over closed one-box walks.

Sundaram's bijection takes the matchings of [2n] onto the walks of 2n
one-box steps on Young's lattice from the empty shape back to it, and
position i is a descent exactly when steps i and i + 1 form a peak, a
double rise whose second box lies in a lower row, or a double fall whose
first box lies in a lower row (the six-case classification behind
``classify_position``).  So c_m counts the closed walks with m such
positions.  The count steps through states (shape, row of the last box,
added or removed), with no tableau and no generating function; each
state holds its polynomial in the descent count as one integer, one
slot of bits per coefficient, so a descent is a shift.
"""

import math
from functools import lru_cache


def is_descent(row1: int, rise1: bool, row2: int, rise2: bool) -> bool:
    """Whether the position between two steps is a descent; rows grow downwards."""
    if rise1 != rise2:
        return rise1  # a peak is a descent, a valley is not
    if rise1:
        return row2 > row1  # a double rise whose second box is lower
    return row1 > row2  # a double fall whose first box is lower


@lru_cache(maxsize=None)
def _moves(shape: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], int, bool], ...]:
    """Every (next shape, row, added) one box away; rows count from 0."""
    moves = []
    for r, part in enumerate(shape):
        if r == 0 or shape[r - 1] > part:
            moves.append((shape[:r] + (part + 1,) + shape[r + 1 :], r, True))
        if r + 1 == len(shape) or shape[r + 1] < part:
            rest = (part - 1,) if part > 1 else ()
            moves.append((shape[:r] + rest + shape[r + 1 :], r, False))
    moves.append((shape + (1,), len(shape), True))
    return tuple(moves)


def closed_walk_descents(n_max: int) -> list[list[int]]:
    """Entry n: the number of closed walks of length 2n with m descents, m < 2n.

    One count serves every n <= n_max: a closed walk of length 2n is a
    walk that is at the empty shape after step 2n, and shapes with more
    boxes than steps left before step 2 n_max are dropped.
    """
    # every kept walk extends to a closed one of length 2 n_max, so no
    # count exceeds (2 n_max - 1)!! and each fits in a slot that wide
    slot = math.prod(range(1, 2 * n_max, 2)).bit_length()
    mask = (1 << slot) - 1
    counts: list[list[int]] = [[]]
    states = {((1,), 0, True): 1}  # after step 1, with no descent yet
    for step in range(2, 2 * n_max + 1):
        left = 2 * n_max - step
        nxt: dict[tuple[tuple[int, ...], int, bool], int] = {}
        for (shape, row, rise), poly in states.items():
            for key in _moves(shape):
                after, new_row, new_rise = key
                if sum(after) <= left:
                    shift = slot if is_descent(row, rise, new_row, new_rise) else 0
                    nxt[key] = nxt.get(key, 0) + (poly << shift)
        states = nxt
        if step % 2 == 0:
            closed = states.get(((), 0, False), 0)
            counts.append([closed >> (slot * m) & mask for m in range(step)])
    return counts
