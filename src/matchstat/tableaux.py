"""Young diagrams, tableaux, row insertion, and hole slides.

Row insertion bumps a value down the rows (each row receives the value
that displaced its leftmost strictly-larger entry) and records the
bumping route.  The slide operation removes the minimum at (1,1) and
moves the hole to an outside corner, at each step pulling in the smaller
of the right and below neighbours (the one below on ties).  Both
operations have exact inverses here; the reverse slide direction (the
larger of the upper and left neighbours moves in) is validated by
round-trip tests, which are the binding contract.

Each operation is implemented once, in place on a working tableau held
as a list of row lists (``_insert``, ``_unbump``, ``_slide``,
``_unslide``), so the bijection can run 2n steps on one tableau.  Their
corners are plain 1-indexed (row, col) pairs: ``_slide`` returns one,
and ``_unbump`` and ``_unslide`` take a pair or a ``Box`` alike.  A
``Box`` is built only for a public result, such as the corner that
``delete_min_and_slide`` returns.  The operations check only their O(1)
preconditions (a positive value, a corner of the shape, a minimum below
every entry, a nonempty tableau): a valid tableau in gives a valid
tableau out, which the tests check from outside.  The public functions
copy an immutable ``Tableau``, apply the in-place operation and freeze
the result unchecked (``_freeze``).

``Tableau(rows)`` and ``Partition(parts)`` check every invariant of a
value from outside.  A value built here from valid values (a frozen
result, its bumping route, a tableau's shape, a conjugate partition) is
built with ``matchings._unchecked`` and not checked again.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import NamedTuple

from .matchings import _unchecked

__all__ = [
    "Box",
    "Partition",
    "Tableau",
    "BumpingRoute",
    "conjugate_partition",
    "added_box",
    "row_insert",
    "reverse_row_insert",
    "delete_min_and_slide",
    "reverse_slide_and_place_min",
    "parse_partition",
]


class Box(NamedTuple):
    """1-indexed cell address; row 1 is the top row."""

    row: int
    col: int


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing positive row lengths; () is the empty shape."""

    parts: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        prev = None
        for part in self.parts:
            if part < 1:
                raise ValueError(f"partition parts must be positive, got {part}")
            if prev is not None and part > prev:
                raise ValueError(f"parts must be weakly decreasing, got {self.parts}")
            prev = part

    @property
    def size(self) -> int:
        return sum(self.parts)

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")"


def parse_partition(text: str) -> Partition:
    """Parse "(2,1)" or "()" back into a Partition."""
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise ValueError(f"malformed partition {text!r}")
    inner = text[1:-1].strip()
    if not inner:
        return Partition()
    try:
        parts = tuple(int(tok) for tok in inner.split(","))
    except ValueError:
        raise ValueError(f"malformed partition {text!r}") from None
    return Partition(parts)


def conjugate_partition(p: Partition) -> Partition:
    """Transpose the diagram: column lengths become row lengths."""
    parts = p.parts
    if not parts:
        return Partition()
    out = tuple(
        sum(1 for part in parts if part >= c) for c in range(1, parts[0] + 1)
    )
    return _unchecked(Partition, parts=out)


def added_box(before: Partition, after: Partition) -> Box:
    """The unique cell of ``after`` that is missing from ``before``."""
    b, a = before.parts, after.parts
    if len(a) == len(b) + 1:
        if a[-1] == 1 and a[:-1] == b:
            return Box(len(a), 1)
    elif len(a) == len(b):
        diff = [r for r in range(len(a)) if a[r] != b[r]]
        if len(diff) == 1 and a[diff[0]] == b[diff[0]] + 1:
            return Box(diff[0] + 1, a[diff[0]])
    raise ValueError(f"{after} does not extend {before} by one box")


@dataclass(frozen=True)
class Tableau:
    """Rows weakly increasing, columns strictly increasing, positive entries."""

    rows: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self) -> None:
        prev_len = None
        for r, row in enumerate(self.rows):
            if not row:
                raise ValueError("tableau rows must be nonempty")
            if prev_len is not None and len(row) > prev_len:
                raise ValueError("row lengths must be weakly decreasing")
            prev_len = len(row)
            for c, x in enumerate(row):
                if x < 1:
                    raise ValueError(f"entries must be positive, got {x}")
                if c and row[c - 1] > x:
                    raise ValueError("rows must be weakly increasing")
                if r and self.rows[r - 1][c] >= x:
                    raise ValueError("columns must be strictly increasing")

    @property
    def shape(self) -> Partition:
        return _unchecked(Partition, parts=tuple(map(len, self.rows)))

    def __str__(self) -> str:
        """Debug rendering: one row per line, entries space-separated."""
        return "\n".join(" ".join(str(x) for x in row) for row in self.rows)


@dataclass(frozen=True)
class BumpingRoute:
    """Boxes touched by a row insertion, one per row from row 1 down."""

    boxes: tuple[Box, ...]
    new_box: Box

    def __post_init__(self) -> None:
        if not self.boxes:
            raise ValueError("a bumping route touches at least one row")
        for k, box in enumerate(self.boxes):
            if box.row != k + 1:
                raise ValueError("route rows must be consecutive from row 1")
        if self.new_box != self.boxes[-1]:
            raise ValueError("new_box must be the last box of the route")


def _freeze(rows: list[list[int]]) -> Tableau:
    return _unchecked(Tableau, rows=tuple(map(tuple, rows)))


def _thaw(t: Tableau) -> list[list[int]]:
    return [list(row) for row in t.rows]


def _insert(rows: list[list[int]], x: int) -> list[int]:
    """Row-insert x in place; return the route's column (0-indexed) in each row."""
    if x < 1:
        raise ValueError(f"entries must be positive, got {x}")
    cols: list[int] = []
    for row in rows:
        c = bisect_right(row, x)
        cols.append(c)
        if c == len(row):
            row.append(x)
            return cols
        x, row[c] = row[c], x
    rows.append([x])  # x opens a new row
    cols.append(0)
    return cols


def _unbump(rows: list[list[int]], b: tuple[int, int]) -> int:
    """Reverse row insertion in place from the removable corner ``b``.

    ``b`` is a 1-indexed (row, col) pair, a ``Box`` or a plain tuple.
    """
    row, col = b
    r, c = row - 1, col - 1
    if (
        not 0 <= r < len(rows)
        or c != len(rows[r]) - 1
        or (r + 1 < len(rows) and len(rows[r + 1]) > c)
    ):
        lengths = ",".join(str(len(row)) for row in rows)
        raise ValueError(f"{(row, col)} is not a removable corner of shape ({lengths})")
    value = rows[r].pop()
    if not rows[r]:
        del rows[r]
    for row in reversed(rows[:r]):
        # the rightmost entry strictly smaller than the travelling value
        # is the one that bumped it; swap them back
        idx = bisect_left(row, value) - 1
        value, row[idx] = row[idx], value
    return value


def _slide(rows: list[list[int]]) -> tuple[int, int]:
    """Remove (1,1) in place and slide the hole out; return the vacated corner.

    The corner is a plain 1-indexed (row, col) pair.
    """
    if not rows:
        raise ValueError("cannot delete from an empty tableau")
    last = len(rows) - 1
    r = c = 0  # the hole
    row = rows[0]
    below = rows[1] if last else []
    end, reach = len(row) - 1, len(below)
    while True:
        if c < end and not (c < reach and below[c] <= row[c + 1]):
            row[c] = row[c + 1]
            c += 1
        elif c < reach:
            row[c] = below[c]
            r += 1
            row = below
            below = rows[r + 1] if r < last else []
            end, reach = reach - 1, len(below)
        else:
            break
    row.pop()
    if not row:
        del rows[r]
    return r + 1, c + 1


def _unslide(rows: list[list[int]], corner: tuple[int, int], v: int) -> None:
    """Reverse slide in place from the addable ``corner``, then write v at (1,1).

    ``corner`` is a 1-indexed (row, col) pair, a ``Box`` or a plain tuple.
    """
    if v < 1:
        raise ValueError(f"entries must be positive, got {v}")
    if rows and rows[0][0] <= v:
        raise ValueError(f"{v} is not strictly smaller than every entry")
    row, col = corner
    r, c = row - 1, col - 1
    if r == len(rows) and c == 0:
        rows.append([0])
    elif 0 <= r < len(rows) and c == len(rows[r]) and (r == 0 or len(rows[r - 1]) > c):
        rows[r].append(0)
    else:
        lengths = ",".join(str(len(row)) for row in rows)
        raise ValueError(f"{(row, col)} is not an addable corner of shape ({lengths})")
    row = rows[r]
    while r or c:
        # the larger of the upper and left neighbours moves in, the upper on ties
        if r and not (c and row[c - 1] > rows[r - 1][c]):
            r -= 1
            row[c] = rows[r][c]
            row = rows[r]
        else:
            row[c] = row[c - 1]
            c -= 1
    row[0] = v


def row_insert(t: Tableau, x: int) -> tuple[Tableau, BumpingRoute]:
    """Insert x by row bumping; the shape gains exactly one box.

    In each row the incoming value lands where the leftmost strictly
    larger entry sat (that entry moves on to the next row), or at the end
    of the row if nothing is larger, which closes the route.
    """
    rows = _thaw(t)
    boxes = tuple(Box(r + 1, c + 1) for r, c in enumerate(_insert(rows, x)))
    return _freeze(rows), _unchecked(BumpingRoute, boxes=boxes, new_box=boxes[-1])


def reverse_row_insert(t: Tableau, b: Box) -> tuple[Tableau, int]:
    """Undo the row insertion whose new box was ``b``.

    Returns the smaller tableau and the ejected value;
    ``row_insert(smaller, ejected)`` reproduces ``t`` with a route ending
    at ``b``.  ``b`` must be a removable corner.
    """
    rows = _thaw(t)
    value = _unbump(rows, b)
    return _freeze(rows), value


def delete_min_and_slide(t: Tableau) -> tuple[Tableau, Box]:
    """Remove the minimum at (1,1) and slide the hole out.

    Returns the new tableau and the vacated outside corner; the shape
    loses exactly one box.
    """
    rows = _thaw(t)
    vacated = Box(*_slide(rows))
    return _freeze(rows), vacated


def reverse_slide_and_place_min(t: Tableau, corner: Box, v: int) -> Tableau:
    """Undo delete_min_and_slide for the given vacated corner and minimum.

    A hole opens at ``corner`` (which must be addable to the shape) and
    slides back to (1,1), the larger of the upper and left neighbours
    moving in at each step; ``v`` is then written at (1,1).  Requires
    ``v`` strictly smaller than every entry of ``t``.
    """
    rows = _thaw(t)
    _unslide(rows, corner, v)
    return _freeze(rows)
