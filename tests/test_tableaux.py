"""Partitions, tableaux, insertion/slide operations and their inverses."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchstat import (
    Box,
    Partition,
    Tableau,
    conjugate_partition,
    delete_min_and_slide,
    parse_partition,
    reverse_row_insert,
    reverse_slide_and_place_min,
    row_insert,
)
from matchstat.tableaux import _insert, _slide, _unbump, _unslide


def build_by_insertion(values):
    tab = Tableau()
    for v in values:
        tab, _ = row_insert(tab, v)
    return tab


class TestPartition:
    def test_validation(self):
        with pytest.raises(ValueError):
            Partition((1, 2))
        with pytest.raises(ValueError):
            Partition((2, 0))

    def test_rendering(self):
        assert str(Partition()) == "()"
        assert str(Partition((2, 1))) == "(2,1)"

    def test_parse(self):
        assert parse_partition("(3,1,1)") == Partition((3, 1, 1))
        assert parse_partition("()") == Partition()
        with pytest.raises(ValueError):
            parse_partition("2,1")
        with pytest.raises(ValueError):
            parse_partition("(2,x)")


class TestConjugate:
    def test_empty(self):
        assert conjugate_partition(Partition()) == Partition()

    def test_column_becomes_row(self):
        assert conjugate_partition(Partition((1, 1))) == Partition((2,))

    def test_self_conjugate_hook(self):
        assert conjugate_partition(Partition((2, 1))) == Partition((2, 1))

    def test_involution_and_size(self):
        rng = random.Random(0)
        for _ in range(200):
            parts = sorted(
                (rng.randint(1, 12) for _ in range(rng.randint(0, 8))), reverse=True
            )
            p = Partition(tuple(parts))
            q = conjugate_partition(p)
            assert q.size == p.size
            assert conjugate_partition(q) == p


class TestTableauValidation:
    def test_row_order(self):
        with pytest.raises(ValueError):
            Tableau(((2, 1),))

    def test_column_strictness(self):
        with pytest.raises(ValueError):
            Tableau(((2, 3), (2,)))

    def test_row_lengths(self):
        with pytest.raises(ValueError):
            Tableau(((3,), (4, 5)))

    def test_rendering(self):
        assert str(Tableau(((3, 5), (4,)))) == "3 5\n4"


class TestRowInsert:
    def test_into_empty(self):
        tab, route = row_insert(Tableau(), 4)
        assert tab.rows == ((4,),)
        assert route.new_box == Box(1, 1)

    def test_bump_to_second_row(self):
        tab, route = row_insert(Tableau(((4,),)), 3)
        assert tab.rows == ((3,), (4,))
        assert route.boxes == (Box(1, 1), Box(2, 1))
        assert route.new_box == Box(2, 1)

    def test_append_to_first_row(self):
        tab, route = row_insert(Tableau(((3,), (4,))), 5)
        assert tab.rows == ((3, 5), (4,))
        assert route.new_box == Box(1, 2)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            row_insert(Tableau(), 0)

    @given(st.lists(st.integers(1, 60), max_size=40))
    def test_shape_grows_one_box_and_stays_valid(self, values):
        tab = Tableau()
        for v in values:
            new_tab, route = row_insert(tab, v)
            # the Tableau constructor re-validates the invariants
            assert new_tab.shape.size == tab.shape.size + 1
            grew = [
                r
                for r in range(len(new_tab.rows))
                if r >= len(tab.rows) or len(new_tab.rows[r]) != len(tab.rows[r])
            ]
            assert len(grew) == 1
            assert route.new_box.row == grew[0] + 1
            tab = new_tab


class TestReverseRowInsert:
    def test_undo_bump(self):
        tab, ejected = reverse_row_insert(Tableau(((3,), (4,))), Box(2, 1))
        assert tab.rows == ((4,),)
        assert ejected == 3

    def test_single_box(self):
        tab, ejected = reverse_row_insert(Tableau(((4,),)), Box(1, 1))
        assert tab.rows == ()
        assert ejected == 4

    def test_undo_append(self):
        tab, ejected = reverse_row_insert(Tableau(((3, 5), (4,))), Box(1, 2))
        assert tab.rows == ((3,), (4,))
        assert ejected == 5

    def test_rejects_non_corner(self):
        with pytest.raises(ValueError, match="removable corner"):
            reverse_row_insert(Tableau(((3, 5), (4,))), Box(1, 1))
        with pytest.raises(ValueError, match="removable corner"):
            reverse_row_insert(Tableau(((3, 5), (4,))), Box(3, 1))

    @given(st.lists(st.integers(1, 60), min_size=1, max_size=40))
    def test_round_trip(self, values):
        before = build_by_insertion(values[:-1])
        after, route = row_insert(before, values[-1])
        undone, ejected = reverse_row_insert(after, route.new_box)
        assert undone == before
        assert ejected == values[-1]


class TestSlides:
    def test_two_rows(self):
        tab, vacated = delete_min_and_slide(Tableau(((3,), (4,))))
        assert tab.rows == ((4,),)
        assert vacated == Box(2, 1)

    def test_single_box(self):
        tab, vacated = delete_min_and_slide(Tableau(((4,),)))
        assert tab.rows == ()
        assert vacated == Box(1, 1)

    def test_right_neighbour_wins(self):
        # golden value locked in after the round-trip oracle passed
        start = Tableau(((2, 5), (6,)))
        tab, vacated = delete_min_and_slide(start)
        assert reverse_slide_and_place_min(tab, vacated, 2) == start
        assert tab.rows == ((5,), (6,))
        assert vacated == Box(1, 2)

    def test_below_neighbour_wins(self):
        tab, vacated = delete_min_and_slide(Tableau(((2, 7), (5,))))
        assert tab.rows == ((5, 7),)
        assert vacated == Box(2, 1)

    def test_tie_prefers_below(self):
        tab, vacated = delete_min_and_slide(Tableau(((1, 4), (4,))))
        assert tab.rows == ((4, 4),)
        assert vacated == Box(2, 1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            delete_min_and_slide(Tableau())


class TestReverseSlide:
    def test_reopen_second_row(self):
        assert reverse_slide_and_place_min(Tableau(((4,),)), Box(2, 1), 3).rows == (
            (3,),
            (4,),
        )

    def test_into_empty(self):
        assert reverse_slide_and_place_min(Tableau(), Box(1, 1), 4).rows == ((4,),)

    def test_reopen_first_row(self):
        assert reverse_slide_and_place_min(Tableau(((4,),)), Box(1, 2), 3).rows == (
            (3, 4),
        )

    def test_rejects_non_addable(self):
        with pytest.raises(ValueError, match="addable"):
            reverse_slide_and_place_min(Tableau(((4,),)), Box(1, 3), 1)
        with pytest.raises(ValueError, match="addable"):
            reverse_slide_and_place_min(Tableau(((4,),)), Box(3, 1), 1)

    def test_rejects_non_minimal(self):
        with pytest.raises(ValueError, match="strictly smaller"):
            reverse_slide_and_place_min(Tableau(((4,),)), Box(1, 2), 4)

    @given(st.sets(st.integers(1, 500), min_size=1, max_size=40))
    @settings(max_examples=150)
    def test_round_trip_with_distinct_entries(self, entries):
        tab = build_by_insertion(sorted(entries, key=lambda v: hash((v, 13))))
        smaller, vacated = delete_min_and_slide(tab)
        restored = reverse_slide_and_place_min(smaller, vacated, min(entries))
        assert restored == tab


class TestLocalChecks:
    """Each in-place operation checks the neighbour pairs of the cells it
    writes.  Handed a working tableau that is out of order there, it must
    raise; without the check each of these calls completes and returns
    garbage."""

    def test_insert(self):
        rows = [[2], [1]]  # 1 lands at (1,1) above the 1 at (2,1)
        with pytest.raises(ValueError, match="columns must be strictly increasing"):
            _insert(rows, 1)

    def test_unbump(self):
        rows = [[1, 5], [2, 3]]  # 3 travels up to (1,1) above the 2 at (2,1)
        with pytest.raises(ValueError, match="columns must be strictly increasing"):
            _unbump(rows, Box(2, 2))

    def test_slide(self):
        rows = [[1, 3], [2], [2]]  # the 2 from (2,1) moves up above the other 2
        with pytest.raises(ValueError, match="columns must be strictly increasing"):
            _slide(rows)

    def test_unslide(self):
        rows = [[2, 3], [1]]  # v = 1 lands at (1,1) above the 1 at (2,1)
        with pytest.raises(ValueError, match="columns must be strictly increasing"):
            _unslide(rows, Box(1, 3), 1)

    def test_row_order(self):
        rows = [[1, 6, 3]]  # 5 bumps the 6 and lands left of the 3
        with pytest.raises(ValueError, match="rows must be weakly increasing"):
            _insert(rows, 5)

    def test_row_lengths(self):
        rows = [[1], [2, 3, 4]]  # the 2 moves up to (1,1) over a longer row
        with pytest.raises(ValueError, match="row lengths must be weakly decreasing"):
            _slide(rows)

    def test_insert_append_above_longer_row(self):
        rows = [[1], [2, 3]]  # 5 is appended at (1,2) above the 3 at (2,2)
        with pytest.raises(ValueError, match="columns must be strictly increasing"):
            _insert(rows, 5)

    def test_unbump_consecutive_rows(self):
        rows = [[1], [10], [10]]  # the 10s move up to (1,1) and (2,1)
        with pytest.raises(ValueError, match="columns must be strictly increasing"):
            _unbump(rows, Box(3, 1))

    def test_unbump_no_smaller_entry(self):
        rows = [[4, 5], [3]]  # nothing in row 1 is below 3: it lands on the 5
        with pytest.raises(ValueError, match="rows must be weakly increasing"):
            _unbump(rows, Box(2, 1))

    def test_slide_row_length_left_of_the_hole(self):
        rows = [[1, 2], [3, 4, 5, 6, 7]]  # the hole runs right in row 2 past row 1
        with pytest.raises(ValueError, match="row lengths must be weakly decreasing"):
            _slide(rows)

    def test_slide_left_pair(self):
        rows = [[1, 2, 9], [11, 7, 10]]  # the 10 moves left to (2,2), right of the 11
        with pytest.raises(ValueError, match="rows must be weakly increasing"):
            _slide(rows)

    def test_unslide_right_pair(self):
        rows = [[3, 1]]  # the 3 moves down; v = 2 lands at (1,1) left of the 1
        with pytest.raises(ValueError, match="rows must be weakly increasing"):
            _unslide(rows, Box(2, 1), 2)

    def test_unslide_below_pair(self):
        rows = [[5, 6], [7, 4]]  # the 5 moves right to (1,2) above the 4
        with pytest.raises(ValueError, match="columns must be strictly increasing"):
            _unslide(rows, Box(1, 3), 1)
        rows = [[8], [1]]  # v = 2 lands at (1,1) above the 1
        with pytest.raises(ValueError, match="columns must be strictly increasing"):
            _unslide(rows, Box(1, 2), 2)

    def test_unbump_corner_of_non_partition_rows(self):
        rows = [[2], [3, 4]]  # row lengths (1,2) are not a partition
        with pytest.raises(ValueError) as exc:
            _unbump(rows, Box(5, 1))
        assert str(exc.value) == "(5, 1) is not a removable corner of shape (1,2)"

    def test_unslide_corner_of_non_partition_rows(self):
        rows = [[2], [3, 4]]  # row lengths (1,2) are not a partition
        with pytest.raises(ValueError) as exc:
            _unslide(rows, Box(5, 1), 1)
        assert str(exc.value) == "(5, 1) is not an addable corner of shape (1,2)"

    def test_valid_tableau_passes(self):
        rows = [[1, 3], [2]]
        assert _insert(rows, 4) == [2]
        assert _slide(rows) == Box(2, 1)
        assert rows == [[2, 3, 4]]


def working_tableaux(seed, count):
    """Random working tableaux: valid, or with one entry or one row length corrupted."""
    rng = random.Random(seed)
    for _ in range(count):
        rows = []
        for _ in range(rng.randint(0, 20)):
            _insert(rows, rng.randint(2, 40))
        kind = rng.randrange(3) if rows else 0
        if kind == 1:
            row = rng.choice(rows)
            row[rng.randrange(len(row))] = rng.randint(1, 41)
        elif kind == 2:
            row = rng.choice(rows)
            if len(row) > 1 and rng.random() < 0.5:
                row.pop()
            else:
                row.append(rng.randint(1, 41))
        yield rows


def outcome(op, rows, *args):
    """Run op on a copy of rows: the rows after it and what it returned or raised."""
    rows = [list(row) for row in rows]
    try:
        result = ("returned", op(rows, *args))
    except Exception as exc:
        result = ("raised", type(exc), str(exc))
    return rows, result


class TestCornerForms:
    """The in-place operations take a corner as a ``Box`` or as a plain
    (row, col) pair and must not tell them apart: same rows, same return
    value, same exception and message, on every cell in and around the
    shape of valid and corrupted working tableaux."""

    def test_box_and_pair_agree(self):
        rng = random.Random(15)
        for rows in working_tableaux(2026, 300):
            width = max(map(len, rows), default=0)
            for r in range(0, len(rows) + 3):
                for c in range(0, width + 3):
                    assert outcome(_unbump, rows, Box(r, c)) == outcome(
                        _unbump, rows, (r, c)
                    )
                    v = rng.choice((1, rng.randint(0, 41)))
                    assert outcome(_unslide, rows, Box(r, c), v) == outcome(
                        _unslide, rows, (r, c), v
                    )

    def test_slide_pair_is_the_public_box(self):
        for rows in working_tableaux(2027, 300):
            try:
                tab = Tableau(tuple(map(tuple, rows)))
            except ValueError:
                continue
            if not rows:
                continue
            after, (kind, pair) = outcome(_slide, rows)
            smaller, box = delete_min_and_slide(tab)
            assert kind == "returned" and type(pair) is tuple
            assert type(box) is Box and box == pair
            assert smaller.rows == tuple(map(tuple, after))


@pytest.fixture(scope="module")
def swept_rows():
    return list(working_tableaux(99, 4000))


def cells(rows):
    """Every cell of the shape's bounding box and one row and column past it."""
    width = max(map(len, rows), default=0)
    return [(r, c) for r in range(1, len(rows) + 2) for c in range(1, width + 2)]


class TestCorruptedRows:
    """Each in-place operation returns or raises ValueError, and nothing
    else, on working rows that are not a tableau, whatever its argument."""

    # the hole moves up into a row whose upper neighbour is shorter than
    # the hole's column: rows 3 and 4 of the first case have lengths 1, 2
    @pytest.mark.parametrize(
        "rows,corner",
        [
            (
                [[3, 5, 6, 14, 34, 40], [10, 13, 20, 25, 40], [20], [28, 39], [35]],
                (5, 2),
            ),
            (
                [[2, 4, 11, 14, 18], [14, 19, 25, 33], [20, 29, 31], [27], [32, 40], [34]],
                (6, 2),
            ),
        ],
    )
    def test_unslide_hole_below_a_shorter_row(self, rows, corner):
        with pytest.raises(ValueError, match="row lengths must be weakly decreasing"):
            _unslide(rows, corner, 1)

    @staticmethod
    def assert_returns_or_raises_value_error(op, rows, *args):
        _, result = outcome(op, rows, *args)
        assert result[0] == "returned" or result[1] is ValueError, (rows, args, result)

    def test_every_corner_returns_or_raises_value_error(self, swept_rows):
        for rows in swept_rows:
            for cell in cells(rows):
                self.assert_returns_or_raises_value_error(_unslide, rows, cell, 1)

    def test_insert_returns_or_raises_value_error(self, swept_rows):
        for rows in swept_rows:
            for x in range(1, 43):
                self.assert_returns_or_raises_value_error(_insert, rows, x)

    def test_slide_returns_or_raises_value_error(self, swept_rows):
        for rows in swept_rows:
            self.assert_returns_or_raises_value_error(_slide, rows)

    def test_unbump_returns_or_raises_value_error(self, swept_rows):
        for rows in swept_rows:
            for cell in cells(rows):
                self.assert_returns_or_raises_value_error(_unbump, rows, cell)


def route_strictly_left(r1, r2):
    cols1 = {b.row: b.col for b in r1.boxes}
    cols2 = {b.row: b.col for b in r2.boxes}
    return all(cols1[row] < cols2[row] for row in cols1 if row in cols2)


def route_weakly_left(r1, r2):
    cols1 = {b.row: b.col for b in r1.boxes}
    cols2 = {b.row: b.col for b in r2.boxes}
    return all(cols1[row] <= cols2[row] for row in cols1 if row in cols2)


def check_double_insertion(tab, x, y):
    """Route/new-box relations for inserting x then y.

    x <= y: the first route stays strictly left of the second and the
    first new box is strictly left of and weakly below the second.
    x > y: the second route is weakly left of the first and the second
    new box is weakly left of and strictly below the first.
    """
    mid, route1 = row_insert(tab, x)
    _, route2 = row_insert(mid, y)
    b1, b2 = route1.new_box, route2.new_box
    if x <= y:
        assert route_strictly_left(route1, route2)
        assert b1.col < b2.col and b1.row >= b2.row
    else:
        assert route_weakly_left(route2, route1)
        assert b2.col <= b1.col and b2.row > b1.row


def test_double_insertion_relations_random():
    rng = random.Random(2024)
    for _ in range(500):
        base = build_by_insertion(
            [rng.randint(1, 50) for _ in range(rng.randint(0, 25))]
        )
        check_double_insertion(base, rng.randint(1, 50), rng.randint(1, 50))
