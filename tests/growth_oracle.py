"""Growth-diagram oracle for the shapes of the oscillating-tableau walk.

Fomin's local rules for RSK (Krattenthaler, "Growth diagrams, and
increasing and decreasing chains in fillings of Ferrers shapes", 2006)
grow a partition at every corner of the staircase x + y <= 2n from a 0/1
filling, with no bumping and no sliding.  Arc (a, b), a < b, of the
matching fills cell (a, 2n + 1 - b).  Shape k of the walk is the
transpose of the partition at corner (k, 2n - k): the transpose appears
because the order of the larger ends is reversed (Greene's theorem on
the word of arcs open at k).
"""


def _add_box(p: tuple[int, ...], row: int) -> tuple[int, ...]:
    if row == len(p):
        return p + (1,)
    return p[:row] + (p[row] + 1,) + p[row + 1 :]


def _local_rule(rho, mu, nu, filled: bool):
    """The corner opposite rho in a cell with corners rho, mu, nu."""
    if filled:  # its row and column hold no other arc, so rho == mu == nu
        return _add_box(rho, 0)
    if mu != nu:
        if mu == rho:
            return nu
        if nu == rho:
            return mu
        return tuple(map(max, mu, nu)) + (mu[len(nu) :] or nu[len(mu) :])
    if mu == rho:
        return rho
    # mu and nu add the same box to rho: bump it down one row
    row = next((i for i, (a, b) in enumerate(zip(mu, rho)) if a != b), len(rho))
    return _add_box(mu, row + 1)


def transpose(p: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(1 for part in p if part > c) for c in range(p[0])) if p else ()


def growth_corners(partner: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The partitions at corners (k, 2n - k), k = 0..2n, of the filled staircase.

    ``partner`` is a matching's 1-based partner tuple; entry k of the
    result is the conjugate of shape k of its walk.
    """
    two_n = len(partner)
    column = [()] * (two_n + 1)  # corners (x - 1, y) for y = 0 .. 2n - x + 1
    corners = [column[two_n]]
    for x in range(1, two_n + 1):
        b = partner[x - 1]
        filled_y = two_n + 1 - b if b > x else 0
        nxt = [()]
        for y in range(1, two_n - x + 1):
            nxt.append(_local_rule(column[y - 1], nxt[y - 1], column[y], y == filled_y))
        corners.append(nxt[two_n - x])
        column = nxt
    return corners
