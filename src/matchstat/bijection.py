"""Sundaram's correspondence between matchings and oscillating tableaux.

Reading a matching left to right, the smaller letter of each block
row-inserts its partner and the larger letter deletes itself (it is then
the minimum of the working tableau) with a hole slide.  The recorded
shape walk starts and ends at the empty partition and moves by one box
per step; it determines the matching uniquely.

A walk is its 2n moves, ``((row, col), insertion)``, the box each step
adds or removes, and walks compare by their moves.  The forward map and
the inverse run the moves on one working tableau, changed in place.
Conjugating a shape transposes its diagram, so the conjugate walk swaps
row and column in every move; ``conjugate_matching`` never leaves that
form.  Every other view (a walk's ``Partition`` shapes and ``TraceStep``
steps, a trace's walk and tableaux) is built on first read; a trace is
built from its matching alone, and reading its tableaux first keeps its
walk from the same pass.  The forward map charges each move its work and
refuses a walk past WALK_BUDGET.

Each walk is checked once.  A walk from outside, such as
``parse_oscillating``'s, is checked by ``OscillatingTableau(shapes)``: it
checks every shape and re-derives every step from consecutive shapes.  A
walk the forward map runs is checked by its one O(1) corner test per
move, read from the working tableau's row lengths, which proves every
forward walk an oscillating tableau.  So
``OscillatingTableau._from_moves`` keeps the moves of a walk a caller
receives (the forward map and conjugation) unchecked, and the inverse map
builds its matching unchecked.  Conjugation counts the first parts of the
shapes, the conjugate's heights, from the row-1 moves; it refuses a walk
whose conjugate shapes would hold more than WALK_BUDGET parts.

Conjugating every shape of the walk is an involution on matchings.  Under
it the descent number reflects about n + 1 and the major index about n^2,
which is checked here through a six-way classification of each position
by the local shape pattern.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property
from itertools import accumulate
from typing import NamedTuple

from .matchings import BudgetError, Matching, _unchecked
from .tableaux import (
    Box,
    Partition,
    Tableau,
    _freeze,
    _insert,
    _slide,
    _unbump,
    _unslide,
    added_box,
    parse_partition,
)

__all__ = [
    "TRACE_BUDGET",
    "WALK_BUDGET",
    "OscillatingTableau",
    "BijectionTrace",
    "TraceStep",
    "PositionCase",
    "DESCENT_CASES",
    "matching_to_oscillating",
    "oscillating_to_matching",
    "conjugate_oscillating",
    "conjugate_matching",
    "classify_position",
    "parse_oscillating",
]


#: Largest number of cells, summed over its 2n+1 tableaux, that a trace
#: builds; a trace of 2n steps has at most n^2.  The slowest trace within
#: it, a single column at n = 1448, takes 1.3 s (json) or 2.2 s (text, csv)
#: and 193-197 MB through ``tableau --matching`` on one core of a 2-vCPU VM.
TRACE_BUDGET = 2**21


#: Largest cost of the forward map's walk, summed over its moves: the
#: height of the working tableau after the move plus the box's column.
#: That bounds the route of each insertion or slide and the parts of the
#: walk's shapes, should a caller read them; conjugation refuses a walk
#: whose conjugate shapes hold more parts.  A nested matching, pairs
#: (i, 2n+1-i), costs n^2 + 2n, so n = 2895 is the largest admitted;
#: ``tableau --matching`` refuses its trace, counted before the forward
#: map, in about 10 ms on one core of a 2-vCPU VM.
WALK_BUDGET = 2**23


class TraceStep(NamedTuple):
    """The box touched at one step and whether it was added or removed."""

    box: Box
    insertion: bool


#: A step as a walk holds it: ((row, col), insertion).
Move = tuple[tuple[int, int], bool]


@dataclass(frozen=True, init=False, repr=False)
class OscillatingTableau:
    """A walk of 2n+1 partitions: empty endpoints, one-box steps.

    A walk is its 2n moves, ``((row, col), insertion)``, and compares by
    them.  ``shapes``, and ``steps[i - 1]``, the box added or removed
    between shapes i-1 and i, are built from the moves on first read.
    """

    _moves: tuple[Move, ...]

    def __init__(self, shapes: tuple[Partition, ...]) -> None:
        shapes = tuple(shapes)
        if len(shapes) < 3 or len(shapes) % 2 == 0:
            raise ValueError("a walk of length 2n needs 2n+1 shapes, n >= 1")
        if shapes[0].parts or shapes[-1].parts:
            raise ValueError("the walk must start and end at the empty shape")
        sizes = [p.size for p in shapes]
        steps = []
        for idx in range(1, len(shapes)):
            a, b = shapes[idx - 1], shapes[idx]
            if sizes[idx] == sizes[idx - 1] + 1:
                steps.append(TraceStep(added_box(a, b), True))
            elif sizes[idx] == sizes[idx - 1] - 1:
                steps.append(TraceStep(added_box(b, a), False))
            else:
                raise ValueError(
                    f"shapes {idx - 1} and {idx} do not differ by one box"
                )
        steps = tuple(steps)
        self.__dict__.update(_moves=steps, shapes=shapes, steps=steps)

    @classmethod
    def _from_moves(cls, moves) -> OscillatingTableau:
        """The walk of the given moves from the empty shape, built unchecked.

        Every move the package passes here is a box at a corner of the
        shape before it, and the moves end at the empty shape: the forward
        map's corner test proved that for each of its moves, and reflecting
        a checked walk keeps it.  So each shape is a partition one box from
        the last, all that ``__init__`` would derive, and nothing is
        checked again, now or when the shapes and steps are read.
        """
        return _unchecked(cls, _moves=tuple(moves))

    @cached_property
    def shapes(self) -> tuple[Partition, ...]:
        lengths: list[int] = []
        parts = [()]
        for (row, col), insertion in self._moves:
            if insertion:
                if col == 1:
                    lengths.append(1)
                else:
                    lengths[row - 1] = col
            elif col == 1:
                lengths.pop()
            else:
                lengths[row - 1] = col - 1
            parts.append(tuple(lengths))
        return tuple([_unchecked(Partition, parts=p) for p in parts])

    @cached_property
    def steps(self) -> tuple[TraceStep, ...]:
        return tuple([TraceStep(Box._make(box), ins) for box, ins in self._moves])

    @property
    def n(self) -> int:
        return len(self._moves) // 2

    @property
    def length(self) -> int:
        return len(self._moves)

    def __repr__(self) -> str:
        return f"OscillatingTableau(shapes={self.shapes!r})"

    def __str__(self) -> str:
        return ";".join(str(p) for p in self.shapes)


def parse_oscillating(text: str) -> OscillatingTableau:
    """Parse the semicolon format "();(1);(1,1);(1);();(1);()"."""
    return OscillatingTableau(
        tuple(parse_partition(tok) for tok in text.split(";"))
    )


class BijectionTrace:
    """A matching's walk alongside its working tableaux P_0..P_{2n}.

    Built from the matching alone.  The forward map builds the walk,
    whose ``steps`` it returns, and the tableaux, its working tableau
    frozen unchecked after every step, on first read.  The tableaux count
    their cells from the matching first, raising BudgetError above
    TRACE_BUDGET; their pass keeps the walk too, so reading them first
    runs the forward map once.
    """

    def __init__(self, matching: Matching) -> None:
        self._matching = matching

    @cached_property
    def _walk(self) -> OscillatingTableau:
        # the module's _walk: a function body does not see class names
        return OscillatingTableau._from_moves(_walk(self._matching))

    @property
    def steps(self) -> tuple[TraceStep, ...]:
        return self._walk.steps

    @cached_property
    def tableaux(self) -> tuple[Tableau, ...]:
        partner = self._matching.partner
        cells = sum(accumulate(1 if i < j else -1 for i, j in enumerate(partner, 1)))
        if cells > TRACE_BUDGET:
            raise BudgetError("trace cells", cells, TRACE_BUDGET)
        tableaux: list[Tableau] = []
        moves = _walk(self._matching, tableaux)
        vars(self).setdefault("_walk", OscillatingTableau._from_moves(moves))
        return tuple(tableaux)


def _walk(m: Matching, tableaux: list[Tableau] | None = None) -> list[Move]:
    """The forward map's 2n moves, taken on one working tableau.

    Each move's box is tested against the row lengths after it: an
    inserted box needs a row above that reaches its column, a slid-out
    box no row below that does.  An insertion or slide changes only the
    length of the row its route ends in, by one box, so the test proves
    the box a corner and the walk an oscillating tableau.  Raises
    BudgetError as soon as the moves cost more than WALK_BUDGET.  Given
    a list ``tableaux``, appends the working tableau to it, frozen,
    before the first step and after every step.
    """
    rows: list[list[int]] = []
    moves = []
    cost = 0
    if tableaux is not None:
        tableaux.append(_freeze(rows))
    for i, j in enumerate(m.partner, start=1):
        if i < j:
            cols = _insert(rows, j)
            r, c = box = (len(cols), cols[-1] + 1)
            if r > 1 and len(rows[r - 2]) < c:
                raise RuntimeError(f"defect: {box} is not an addable corner")
            moves.append((box, True))
        else:
            if not rows or rows[0][0] != i:
                raise RuntimeError(
                    f"defect: {i} is not the minimum of the working tableau"
                )
            r, c = box = _slide(rows)
            below = r if c > 1 else r - 1  # a one-box row is gone
            if below < len(rows) and len(rows[below]) >= c:
                raise RuntimeError(f"defect: {box} is not a removable corner")
            moves.append((box, False))
        cost += len(rows) + c
        if cost > WALK_BUDGET:
            raise BudgetError("walk cost", cost, WALK_BUDGET)
        if tableaux is not None:
            tableaux.append(_freeze(rows))
    return moves


def _unwalk(steps) -> Matching:
    """Invert a walk given by its steps or moves back to its matching.

    Steps are processed from 2n down to 1: an added box is undone by a
    reverse insertion (the ejected value is the partner of the step
    index), a removed box by a reverse slide that puts the step index
    back at (1,1).  Each box must be a removable or addable corner of
    the working tableau's shape.  Every ejected value is a later step
    index, written once, so the pairs tile 1..2n exactly when the
    tableau ends empty.
    """
    rows: list[list[int]] = []
    partner = [0] * len(steps)
    for i in range(len(steps), 0, -1):
        box, insertion = steps[i - 1]
        if insertion:
            j = _unbump(rows, box)
            partner[i - 1], partner[j - 1] = j, i
        else:
            _unslide(rows, box, i)
    if rows:
        raise RuntimeError("defect: walk inversion left a nonempty tableau")
    return _unchecked(Matching, partner=tuple(partner))


def _transpose(steps) -> list[Move]:
    """The moves of the conjugate walk: each box reflected across the diagonal."""
    return [((col, row), insertion) for (row, col), insertion in steps]


def matching_to_oscillating(m: Matching) -> tuple[OscillatingTableau, BijectionTrace]:
    """Map a matching to its shape walk, keeping the full trace."""
    trace = BijectionTrace(m)
    return trace._walk, trace


def oscillating_to_matching(t: OscillatingTableau) -> Matching:
    """Invert the shape walk back to its matching."""
    return _unwalk(t._moves)


def conjugate_oscillating(t: OscillatingTableau) -> OscillatingTableau:
    """Conjugate every shape of the walk; involutive.

    Raises BudgetError, before any shape is built, when the conjugate
    shapes would hold more than WALK_BUDGET parts in all.
    """
    # the first part of each shape, counted from the moves in row 1
    count = sum(
        accumulate((1 if ins else -1) if row == 1 else 0 for (row, _), ins in t._moves)
    )
    if count > WALK_BUDGET:
        raise BudgetError("conjugate parts", count, WALK_BUDGET)
    return OscillatingTableau._from_moves(_transpose(t._moves))


def conjugate_matching(m: Matching) -> Matching:
    """The involution induced by conjugating the shape walk."""
    return _unwalk(_transpose(_walk(m)))


class PositionCase(IntEnum):
    """Local pattern of the walk around one position.

    LOWER/HIGHER compare rows of the two touched boxes: for double rises,
    where the second box sits relative to the first; for double falls,
    where the first box sits relative to the second.  Lower means a
    strictly larger row index.
    """

    PEAK = 1
    VALLEY = 2
    DOUBLE_RISE_LOWER = 3
    DOUBLE_RISE_HIGHER = 4
    DOUBLE_FALL_LOWER = 5
    DOUBLE_FALL_HIGHER = 6


#: Cases whose positions are exactly the descents of the matching.
DESCENT_CASES = frozenset(
    {PositionCase.PEAK, PositionCase.DOUBLE_RISE_LOWER, PositionCase.DOUBLE_FALL_LOWER}
)


def classify_position(t: OscillatingTableau, i: int) -> PositionCase:
    """Classify position i in 1..2n-1 from the two steps around it.

    The steps are the boxes the walk adds or removes, so the
    classification needs no tableau trace.
    """
    if not 1 <= i <= t.length - 1:
        raise ValueError(f"position {i} out of range 1..{t.length - 1}")
    ((row1, _), rise1), ((row2, _), rise2) = t._moves[i - 1], t._moves[i]
    if rise1 and not rise2:
        return PositionCase.PEAK
    if not rise1 and rise2:
        return PositionCase.VALLEY
    if rise1:
        if row2 > row1:
            return PositionCase.DOUBLE_RISE_LOWER
        return PositionCase.DOUBLE_RISE_HIGHER
    if row1 > row2:
        return PositionCase.DOUBLE_FALL_LOWER
    return PositionCase.DOUBLE_FALL_HIGHER
