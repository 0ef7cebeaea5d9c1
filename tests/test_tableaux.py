"""Partitions, tableaux, insertion/slide operations and their inverses."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchstat import (
    Box,
    BumpingRoute,
    Partition,
    Tableau,
    added_box,
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


class TestAddedBox:
    def test_new_row_and_longer_row(self):
        assert added_box(Partition((2,)), Partition((2, 1))) == Box(2, 1)
        assert added_box(Partition((2, 1)), Partition((2, 2))) == Box(2, 2)

    @pytest.mark.parametrize(
        "before, after",
        [((2,), (1, 1)), ((2,), (2, 2)), ((2,), (1, 1, 1)), ((2, 1), (3, 2)), ((2,), (2,))],
    )
    def test_rejects_shapes_not_one_box_apart(self, before, after):
        with pytest.raises(ValueError, match="does not extend"):
            added_box(Partition(before), Partition(after))


class TestBumpingRouteValidation:
    def test_rejects_malformed_routes(self):
        with pytest.raises(ValueError, match="at least one row"):
            BumpingRoute((), Box(1, 1))
        with pytest.raises(ValueError, match="consecutive from row 1"):
            BumpingRoute((Box(1, 1), Box(3, 1)), Box(3, 1))
        with pytest.raises(ValueError, match="last box"):
            BumpingRoute((Box(1, 2), Box(2, 1)), Box(1, 2))


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
            # the result is frozen unchecked: the full check must accept it
            assert Tableau(new_tab.rows) == new_tab
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
        # the end of row 1, above a row as long
        with pytest.raises(ValueError, match="removable corner"):
            reverse_row_insert(Tableau(((3, 5), (4, 6))), Box(1, 2))

    @given(st.lists(st.integers(1, 60), min_size=1, max_size=40))
    def test_round_trip(self, values):
        before = build_by_insertion(values[:-1])
        after, route = row_insert(before, values[-1])
        undone, ejected = reverse_row_insert(after, route.new_box)
        assert Tableau(after.rows) == after
        assert Tableau(undone.rows) == undone
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
        # just below the last row, past a row as long, and in a row 0
        with pytest.raises(ValueError, match="addable"):
            reverse_slide_and_place_min(Tableau(((4,),)), Box(2, 2), 1)
        with pytest.raises(ValueError, match="addable"):
            reverse_slide_and_place_min(Tableau(((4, 5), (6, 7))), Box(2, 3), 1)
        with pytest.raises(ValueError, match="addable"):
            reverse_slide_and_place_min(Tableau(((4, 5), (6,))), Box(0, 2), 1)

    def test_rejects_non_minimal(self):
        with pytest.raises(ValueError, match="strictly smaller"):
            reverse_slide_and_place_min(Tableau(((4,),)), Box(1, 2), 4)
        # below the last entry of row 1 and the first of row 2, not below the minimum
        with pytest.raises(ValueError, match="strictly smaller"):
            reverse_slide_and_place_min(Tableau(((2, 5), (6,))), Box(2, 2), 3)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="entries must be positive"):
            reverse_slide_and_place_min(Tableau(((4,),)), Box(1, 2), 0)

    @given(st.sets(st.integers(1, 500), min_size=1, max_size=40))
    @settings(max_examples=150)
    def test_round_trip_with_distinct_entries(self, entries):
        tab = build_by_insertion(sorted(entries, key=lambda v: hash((v, 13))))
        smaller, vacated = delete_min_and_slide(tab)
        restored = reverse_slide_and_place_min(smaller, vacated, min(entries))
        assert Tableau(smaller.rows) == smaller
        assert Tableau(restored.rows) == restored
        assert restored == tab


class TestLocalChecks:
    """The in-place operations check only their O(1) preconditions; the
    corner tests name the shape they were given, even one that is not a
    partition."""

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


def frozen(rows):
    """The full check of a working tableau: Tableau(rows) raises unless it is one."""
    return Tableau(tuple(map(tuple, rows)))


OPERATIONS = ("insert", "unbump", "slide", "unslide")


def test_long_seeded_chain_on_one_working_tableau():
    """Insertions, reverse insertions, slides and reverse slides, in a
    seeded order, on one working tableau with repeated entries.  After each
    one the full check accepts the rows, the operation's corner is the box
    ``added_box`` finds between the two shapes, and the inverse operation,
    run on a copy, restores the rows before it and the value."""
    rng = random.Random(27)
    rows = []
    counts = dict.fromkeys((*OPERATIONS, "slide undone"), 0)
    for _ in range(4000):
        before = [list(row) for row in rows]
        shape = frozen(rows).shape
        op = rng.choice(OPERATIONS if rows else ("insert", "unslide"))
        if op == "unslide" and rows and rows[0][0] == 1:  # no smaller value left
            op = "insert"
        if op == "insert":
            x = rng.randint(2, 12)
            cols = _insert(rows, x)
            box = added_box(shape, frozen(rows).shape)
            assert box == (len(cols), cols[-1] + 1)
            undone = [list(row) for row in rows]
            assert _unbump(undone, box) == x and undone == before
        elif op == "unbump":
            corner = rng.choice(
                [
                    (r + 1, len(rows[r]))
                    for r in range(len(rows))
                    if r + 1 == len(rows) or len(rows[r + 1]) < len(rows[r])
                ]
            )
            value = _unbump(rows, corner)
            assert added_box(frozen(rows).shape, shape) == corner
            redone = [list(row) for row in rows]
            cols = _insert(redone, value)
            assert redone == before and (len(cols), cols[-1] + 1) == corner
        elif op == "slide":
            v = rows[0][0]
            corner = _slide(rows)
            assert added_box(frozen(rows).shape, shape) == corner
            if not rows or rows[0][0] > v:
                undone = [list(row) for row in rows]
                _unslide(undone, corner, v)
                assert undone == before
                counts["slide undone"] += 1
        else:
            corners = [
                (r + 1, len(rows[r]) + 1)
                for r in range(len(rows))
                if r == 0 or len(rows[r - 1]) > len(rows[r])
            ] + [(len(rows) + 1, 1)]
            corner = rng.choice(corners)
            v = rng.randint(1, rows[0][0] - 1 if rows else 12)
            _unslide(rows, corner, v)
            assert added_box(shape, frozen(rows).shape) == corner
            assert rows[0][0] == v
            undone = [list(row) for row in rows]
            assert _slide(undone) == corner and undone == before
        counts[op] += 1
    assert min(counts.values()) >= 200, counts


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
