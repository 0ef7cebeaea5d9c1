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

Conjugating every shape of the walk is an involution on matchings.  Under
it the descent number reflects about n + 1 and the major index about n^2,
which is checked here through a six-way classification of each position
by the local shape pattern.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import NamedTuple

from .matchings import Matching, from_pairs
from .tableaux import (
    Box,
    Partition,
    Tableau,
    _insert,
    _slide,
    _unbump,
    _unslide,
    added_box,
    delete_min_and_slide,
    parse_partition,
    removed_box,
    row_insert,
)

__all__ = [
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


class TraceStep(NamedTuple):
    """The box touched at one step and whether it was added or removed."""

    box: Box
    insertion: bool


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
                steps.append(TraceStep(removed_box(a, b), False))
            else:
                raise ValueError(
                    f"shapes {idx - 1} and {idx} do not differ by one box"
                )
        object.__setattr__(self, "steps", tuple(steps))

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
    tableaux are built on first access, by replaying ``row_insert`` and
    ``delete_min_and_slide``, so every snapshot is a validated
    ``Tableau`` and only a caller that reads them pays for them.
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
            tab = Tableau()
            tableaux = [tab]
            partner = self._matching.partner
            for (i, j), step in zip(enumerate(partner, start=1), self.steps):
                if i < j:
                    tab, route = row_insert(tab, j)
                    box = route.new_box
                else:
                    tab, box = delete_min_and_slide(tab)
                if box != step.box:
                    raise RuntimeError(f"defect: step {i} replays to {tuple(box)}")
                tableaux.append(tab)
            self._tableaux = tuple(tableaux)
        return self._tableaux


def _walk(m: Matching) -> list[TraceStep]:
    """The forward map's 2n steps, taken on one working tableau."""
    rows: list[list[int]] = []
    steps = []
    for i, j in enumerate(m.partner, start=1):
        if i < j:
            cols = _insert(rows, j)
            steps.append(TraceStep(Box(len(cols), cols[-1] + 1), True))
        else:
            if not rows or rows[0][0] != i:
                raise RuntimeError(
                    f"defect: {i} is not the minimum of the working tableau"
                )
            steps.append(TraceStep(_slide(rows), False))
    return steps


def _unwalk(steps) -> Matching:
    """Invert a walk given by its steps back to its matching.

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


def _transpose(steps) -> list[TraceStep]:
    """The steps of the conjugate walk: each box reflected across the diagonal."""
    return [TraceStep(Box(box.col, box.row), insertion) for box, insertion in steps]


def _shapes(steps) -> tuple[Partition, ...]:
    """The shapes of a walk from the empty shape, one row length changing per step."""
    lengths: list[int] = []
    shapes = [Partition()]
    for (row, _), insertion in steps:
        if not insertion:
            lengths[row - 1] -= 1
            if not lengths[row - 1]:
                del lengths[row - 1]
        elif row > len(lengths):
            lengths.append(1)
        else:
            lengths[row - 1] += 1
        shapes.append(Partition(tuple(lengths)))
    return tuple(shapes)


def matching_to_oscillating(m: Matching) -> tuple[OscillatingTableau, BijectionTrace]:
    """Map a matching to its shape walk, keeping the full trace."""
    steps = tuple(_walk(m))
    return OscillatingTableau(_shapes(steps)), BijectionTrace(m, steps)


def oscillating_to_matching(t: OscillatingTableau) -> Matching:
    """Invert the shape walk back to its matching."""
    return _unwalk(t.steps)


def conjugate_oscillating(t: OscillatingTableau) -> OscillatingTableau:
    """Conjugate every shape of the walk; involutive."""
    return OscillatingTableau(_shapes(_transpose(t.steps)))


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
