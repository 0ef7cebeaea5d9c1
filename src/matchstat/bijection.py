"""Sundaram's correspondence between matchings and oscillating tableaux.

Reading a matching left to right, the smaller letter of each block
row-inserts its partner and the larger letter deletes itself (it is then
the minimum of the working tableau) with a hole slide.  The recorded
shape walk starts and ends at the empty partition and moves by one box
per step; it determines the matching uniquely.

A walk is held by its 2n steps, the box each one adds or removes; the
forward map and the inverse run them on one working tableau, changed in
place.  Conjugating a shape transposes its diagram, so the conjugate
walk swaps row and column in every step.

The walks the bijection builds for itself are lists of plain moves,
((row, col), insertion) tuples, and ``conjugate_matching`` never leaves
that form.  A walk a caller receives (the forward map and conjugation)
is built from its moves in one pass by ``OscillatingTableau._from_moves``,
which checks each move in O(1) at its corner: each box must be an
addable or removable corner of the shape before it, and the walk must
end empty.  That makes every shape a partition one box from the next, so
the same pass builds the shapes unchecked, with the ``TraceStep`` and
``Box`` of each step.  ``OscillatingTableau(shapes)`` is the boundary
check for a walk from outside, such as ``parse_oscillating``: it checks
every shape and re-derives every step from consecutive shapes.

Conjugating every shape of the walk is an involution on matchings.  Under
it the descent number reflects about n + 1 and the major index about n^2,
which is checked here through a six-way classification of each position
by the local shape pattern.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from itertools import accumulate
from typing import NamedTuple

from .matchings import BudgetError, Matching, from_pairs
from .tableaux import (
    Box,
    Partition,
    Tableau,
    _insert,
    _slide,
    _unbump,
    _unslide,
    added_box,
    parse_partition,
)

__all__ = [
    "TRACE_BUDGET",
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
#: it, a single column, takes about 6 s and 370 MB through
#: ``tableau --matching`` on one core of a 2-vCPU VM.
TRACE_BUDGET = 2**21


class TraceStep(NamedTuple):
    """The box touched at one step and whether it was added or removed."""

    box: Box
    insertion: bool


#: A step as the bijection carries it internally: ((row, col), insertion).
Move = tuple[tuple[int, int], bool]


@dataclass(frozen=True)
class OscillatingTableau:
    """A walk of 2n+1 partitions: empty endpoints, one-box steps.

    ``steps[i - 1]`` is the box added or removed between shapes i-1 and
    i; validation derives them and equality compares the shapes only.
    """

    shapes: tuple[Partition, ...]
    steps: tuple[TraceStep, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        shapes = self.shapes
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
        object.__setattr__(self, "steps", tuple(steps))

    @classmethod
    def _from_moves(cls, moves) -> OscillatingTableau:
        """The walk of the given moves from the empty shape, each checked at its corner.

        An insertion must add a box at an addable corner and a removal take
        one from a removable corner, and the walk must end empty.  By
        induction every shape is then a partition that differs from the one
        before by exactly the move's box, which is all ``__post_init__``
        would re-derive from the shapes, so they are built unchecked.
        """
        trusted = Partition._trusted
        lengths: list[int] = []
        shapes = [Partition()]
        steps = []
        for idx, ((row, col), insertion) in enumerate(moves, start=1):
            r = row - 1
            if insertion:
                if r == len(lengths) and col == 1:
                    lengths.append(1)
                elif (
                    0 <= r < len(lengths)
                    and col == lengths[r] + 1
                    and (not r or lengths[r - 1] >= col)
                ):
                    lengths[r] = col
                else:
                    raise ValueError(f"shapes {idx - 1} and {idx} do not differ by one box")
            elif (
                0 <= r < len(lengths)
                and col == lengths[r]
                and (r + 1 == len(lengths) or lengths[r + 1] < col)
            ):
                if col == 1:
                    lengths.pop()
                else:
                    lengths[r] = col - 1
            else:
                raise ValueError(f"shapes {idx - 1} and {idx} do not differ by one box")
            shapes.append(trusted(tuple(lengths)))
            steps.append(TraceStep(Box(row, col), insertion))
        if lengths:
            raise ValueError("the walk must start and end at the empty shape")
        t = object.__new__(cls)
        object.__setattr__(t, "shapes", tuple(shapes))
        object.__setattr__(t, "steps", tuple(steps))
        return t

    @property
    def n(self) -> int:
        return (len(self.shapes) - 1) // 2

    @property
    def length(self) -> int:
        return len(self.shapes) - 1

    def __str__(self) -> str:
        return ";".join(str(p) for p in self.shapes)


def parse_oscillating(text: str) -> OscillatingTableau:
    """Parse the semicolon format "();(1);(1,1);(1);();(1);()"."""
    return OscillatingTableau(
        tuple(parse_partition(tok) for tok in text.split(";"))
    )


class BijectionTrace:
    """The working tableaux P_0..P_{2n} alongside the per-step boxes.

    A trace holds the matching and the 2n steps its forward map took; the
    tableaux are built on first access, by running the forward map's
    in-place insertions and slides again on one working tableau and
    freezing a validated ``Tableau`` after every step, so only a caller
    that reads them pays for them.  Their cells are counted first, from
    the matching alone, and BudgetError is raised above TRACE_BUDGET.
    """

    def __init__(self, matching: Matching, steps: tuple[TraceStep, ...]) -> None:
        if len(steps) != len(matching.partner):
            raise ValueError("need one step per letter of the matching")
        self._tableaux: tuple[Tableau, ...] | None = None
        self._matching = matching
        self.steps = tuple(steps)

    @property
    def tableaux(self) -> tuple[Tableau, ...]:
        if self._tableaux is None:
            partner = self._matching.partner
            cells = sum(accumulate(1 if i < j else -1 for i, j in enumerate(partner, 1)))
            if cells > TRACE_BUDGET:
                raise BudgetError("trace cells", cells, TRACE_BUDGET)
            rows: list[list[int]] = []
            tableaux = [Tableau()]
            for i, j in enumerate(partner, start=1):
                if i < j:
                    _insert(rows, j)
                else:
                    _slide(rows)
                tableaux.append(Tableau(tuple(map(tuple, rows))))
            self._tableaux = tuple(tableaux)
        return self._tableaux


def _walk(m: Matching) -> list[Move]:
    """The forward map's 2n moves, taken on one working tableau."""
    rows: list[list[int]] = []
    moves = []
    for i, j in enumerate(m.partner, start=1):
        if i < j:
            cols = _insert(rows, j)
            moves.append(((len(cols), cols[-1] + 1), True))
        else:
            if not rows or rows[0][0] != i:
                raise RuntimeError(
                    f"defect: {i} is not the minimum of the working tableau"
                )
            moves.append((_slide(rows), False))
    return moves


def _unwalk(steps) -> Matching:
    """Invert a walk given by its steps or moves back to its matching.

    Steps are processed from 2n down to 1: an added box is undone by a
    reverse insertion (the ejected value is the partner of the step
    index), a removed box by a reverse slide that puts the step index
    back at (1,1).  Each box must be a removable or addable corner of
    the working tableau's shape.
    """
    rows: list[list[int]] = []
    pairs = []
    for i in range(len(steps), 0, -1):
        box, insertion = steps[i - 1]
        if insertion:
            pairs.append((i, _unbump(rows, box)))
        else:
            _unslide(rows, box, i)
    if rows:
        raise RuntimeError("defect: walk inversion left a nonempty tableau")
    return from_pairs(pairs)


def _transpose(steps) -> list[Move]:
    """The moves of the conjugate walk: each box reflected across the diagonal."""
    return [((col, row), insertion) for (row, col), insertion in steps]


def matching_to_oscillating(m: Matching) -> tuple[OscillatingTableau, BijectionTrace]:
    """Map a matching to its shape walk, keeping the full trace."""
    walk = OscillatingTableau._from_moves(_walk(m))
    return walk, BijectionTrace(m, walk.steps)


def oscillating_to_matching(t: OscillatingTableau) -> Matching:
    """Invert the shape walk back to its matching."""
    return _unwalk(t.steps)


def conjugate_oscillating(t: OscillatingTableau) -> OscillatingTableau:
    """Conjugate every shape of the walk; involutive."""
    return OscillatingTableau._from_moves(_transpose(t.steps))


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
    (first, rise1), (second, rise2) = t.steps[i - 1], t.steps[i]
    if rise1 and not rise2:
        return PositionCase.PEAK
    if not rise1 and rise2:
        return PositionCase.VALLEY
    if rise1:
        if second.row > first.row:
            return PositionCase.DOUBLE_RISE_LOWER
        return PositionCase.DOUBLE_RISE_HIGHER
    if first.row > second.row:
        return PositionCase.DOUBLE_FALL_LOWER
    return PositionCase.DOUBLE_FALL_HIGHER
