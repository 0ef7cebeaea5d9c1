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
``delete_min_and_slide`` returns.  Each operation compares every value
it writes with its neighbours while it holds them in local variables,
at the point where the pair becomes final, and checks the length of the
row above each written cell: O(route) work that, applied to a valid
tableau, keeps it valid.  It skips only what its own choice has just
settled: the bounds ``bisect`` gives the insertions, and the pair the
slides' branch test compares.  The comparisons run in the order of a
check of each written cell in turn (left, right, row length, above,
below), so the first one to fail, and its message, is the one that
check would find.  The public functions copy an immutable ``Tableau``,
apply the in-place operation and freeze the result unchecked
(``_freeze``): the operation's own checks have kept it valid.

``Tableau(rows)`` and ``Partition(parts)`` check every invariant of a
value from outside.  A value built here from parts just checked (a
frozen result, its bumping route, a tableau's shape, a conjugate
partition) is built with ``matchings._unchecked`` and not checked again.
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


_ROWS = "rows must be weakly increasing"
_COLUMNS = "columns must be strictly increasing"
_LENGTHS = "row lengths must be weakly decreasing"


def _insert(rows: list[list[int]], x: int) -> list[int]:
    """Row-insert x in place; return the route's column (0-indexed) in each row.

    A route cell's pairs are checked when they are final: its right pair,
    the length of the row above and its above pair when it is written, its
    below pair when the next row is.  bisect_right leaves row[c - 1] at
    most the value written at c, so the left pair needs no check.
    """
    if x < 1:
        raise ValueError(f"entries must be positive, got {x}")
    cols: list[int] = []
    above = None
    b = top = 0  # the route's column in the row above, and its length
    for row in rows:
        w = x
        c = bisect_right(row, w)
        m = len(row)
        tail = c == m
        if tail:
            row.append(w)
            m += 1
        else:
            x = row[c]
            row[c] = w
        # the below pair of the route cell above is due before this cell's pairs
        if above is not None and b < m and row[b] <= above[b]:
            raise ValueError(_COLUMNS)
        if c + 1 < m and w > row[c + 1]:
            raise ValueError(_ROWS)
        if above is not None and c != b:
            if c >= top:
                raise ValueError(_LENGTHS)
            if above[c] >= w:
                raise ValueError(_COLUMNS)
        cols.append(c)
        if tail:
            r = len(cols)
            if r < len(rows) and c < len(rows[r]) and rows[r][c] <= w:
                raise ValueError(_COLUMNS)
            break
        above, b, top = row, c, m
    else:  # x opens a new row; its above pair is its only one
        if above is not None and above[0] >= x:
            raise ValueError(_COLUMNS)
        rows.append([x])
        cols.append(0)
    return cols


def _unbump(rows: list[list[int]], b: tuple[int, int]) -> int:
    """Reverse row insertion in place from the removable corner ``b``.

    ``b`` is a 1-indexed (row, col) pair, a ``Box`` or a plain tuple.
    Each written cell's left pair, the length of the row above it and its
    below pair are checked when it is written, its above pair when the row
    above is.  bisect_left leaves row[idx + 1] >= the written value, so
    the right pair needs no check.
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
    below = rows[r] if r < len(rows) else []
    # the column written in the row below (-1: none yet) and that row's length
    d, low = -1, len(below)
    for k in range(r - 1, -1, -1):
        row = rows[k]
        w = value
        # the rightmost entry strictly smaller than the travelling value
        # is the one that bumped it; swap them back (idx is -1, the last
        # cell, only in a tableau whose columns are out of order)
        idx = bisect_left(row, w) - 1
        value = row[idx]
        row[idx] = w
        m = len(row)
        i = idx % m
        # the above pair of the cell written below is due before this cell's pairs
        if d >= 0 and row[d] >= below[d]:
            raise ValueError(_COLUMNS)
        if i and row[i - 1] > w:
            raise ValueError(_ROWS)
        if k and i >= len(rows[k - 1]):
            raise ValueError(_LENGTHS)
        if i != d and i < low and below[i] <= w:  # i == d: the pair just checked
            raise ValueError(_COLUMNS)
        below, d, low = row, i, m
    return value


def _slide(rows: list[list[int]]) -> tuple[int, int]:
    """Remove (1,1) in place and slide the hole out; return the vacated corner.

    The corner is a plain 1-indexed (row, col) pair.

    Each entry that moves into the hole is checked against the one written
    before it, the pair the hole passed through, and then against its
    left or above neighbour; a cell's row length and above pair wait for
    its right pair when the hole moves on to the right.  The branch test
    settles the below pair of an entry that moves left and the right pair
    of one that moves up.
    """
    if not rows:
        raise ValueError("cannot delete from an empty tableau")
    last = len(rows) - 1
    r = c = e = 0  # the hole is at (r, c); it entered row r at column e
    x = top = 0  # the entry written before, into the cell the hole left; len(above)
    above: list[int] = []
    row = rows[0]
    below = rows[1] if last else []
    end, reach = len(row) - 1, len(below)
    while True:
        if c < end and not (c < reach and below[c] <= row[c + 1]):
            y = row[c + 1]
            down = False
        elif c < reach:
            y = below[c]
            down = True
        else:
            break
        row[c] = y
        if c != e:  # the hole came from the left, where x was written
            if x > y:
                raise ValueError(_ROWS)
            if r and c - 1 != e:  # x's cell came from the left too
                if c > top:
                    raise ValueError(_LENGTHS)
                if above[c - 1] >= x:
                    raise ValueError(_COLUMNS)
        elif r:  # the hole came down; x was written above it
            if x >= y:
                raise ValueError(_COLUMNS)
            if c and row[c - 1] > y:
                raise ValueError(_ROWS)
        x = y
        if not down:
            c += 1
            continue
        if r and c != e:  # y's right pair is settled: its length and above pair
            if c >= top:
                raise ValueError(_LENGTHS)
            if above[c] >= y:
                raise ValueError(_COLUMNS)
        r += 1
        e = c
        top = end + 1
        above, row = row, below
        below = rows[r + 1] if r < last else []
        end, reach = reach - 1, len(below)
    if r and c - 1 > e:  # x came from the left and has no right pair now
        if c > top:
            raise ValueError(_LENGTHS)
        if above[c - 1] >= x:
            raise ValueError(_COLUMNS)
    row.pop()
    if not row:
        del rows[r]
    return r + 1, c + 1


def _unslide(rows: list[list[int]], corner: tuple[int, int], v: int) -> None:
    """Reverse slide in place from the addable ``corner``, then write v at (1,1).

    ``corner`` is a 1-indexed (row, col) pair, a ``Box`` or a plain tuple.

    Each entry that moves into the hole is checked against the one written
    before it, the pair the hole passed through, and then against its
    right neighbour, or its below neighbour once it moves up; the below
    pair of an entry that moves left waits for its left pair.  The branch
    test settles the left pair of an entry that moves up and the above
    pair of one that moves left.  Rows whose lengths are not a partition
    can put the hole below a row too short to reach its column; reading
    that row raises ValueError, which costs nothing on valid rows.
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
    e = -1  # the hole came up into row r at column e; -1 in the corner's row
    x = 0  # the entry written before, into the cell the hole left
    row = rows[r]
    below = rows[r + 1] if r + 1 < len(rows) else []
    m, low = len(row), len(below)
    while True:
        if r:
            above = rows[r - 1]
            try:
                y = above[c]
            except IndexError:  # after an upward move; the corner check held
                raise ValueError(_LENGTHS) from None
            up = not (c and row[c - 1] > y)
            if not up:
                y = row[c - 1]
        elif c:
            y = row[c - 1]
            up = False
        else:
            y = v
            up = True
        row[c] = y
        if c == e:  # the hole came up; x was written below it
            if x <= y:
                raise ValueError(_COLUMNS)
            if c + 1 < m and y > row[c + 1]:
                raise ValueError(_ROWS)
        elif c + 1 < m:  # the hole came from the right, where x was written
            if y > x:
                raise ValueError(_ROWS)
            if c + 1 != e and c + 1 < low and below[c + 1] <= x:
                raise ValueError(_COLUMNS)
        x = y
        if not up:
            c -= 1
            continue
        if c != e and c < low and below[c] <= y:  # y's left pair is settled
            raise ValueError(_COLUMNS)
        if not r:
            return
        r -= 1
        e = c
        below, row = row, above
        low, m = m, len(row)


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
