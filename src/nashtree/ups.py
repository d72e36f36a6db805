"""Exact set algebra over a payoff grid.

A `Ups` value (the on-disk dump format calls it `ups v1`) is a subset of
the payoff plane built from a finite basis induced by the distinct leaf
payoffs of a tree: grid points, the closed horizontal and vertical unit
segments between neighbouring grid values, and the closed unit rectangles.
The solver uses these sets to carry, for every subtree, the exact set of
payoff vectors attainable by some subgame perfect equilibrium.

Representation
--------------
Four bit grids over the basis, stored as arbitrary-precision ints in
row-major order with a uniform row stride of n2 (bit ``i*n2 + j``):

* ``p``  -- points ``(u1[i], u2[j])``            for i < n1,     j < n2
* ``l1`` -- segments ``[u1[i], u1[i+1]] x {u2[j]}``  for i < n1 - 1, j < n2
* ``l2`` -- segments ``{u1[i]} x [u2[j], u2[j+1]]``  for i < n1,     j < n2 - 1
* ``d``  -- cells ``[u1[i], u1[i+1]] x [u2[j], u2[j+1]]``          (both)

The represented point set is the union of the flagged (closed) elements.

Saturation
----------
All values handed between operations are kept *saturated*: whenever a
basis element is contained in a flagged element, it is flagged too
(a cell implies its four edges, a segment implies its endpoints). Under
saturation the flag grids are a canonical form (two values describe the
same point set iff their flags are equal) and the truncation and
indifference merges below are single masked passes.

Lanes
-----
A player-x lane is the set of grid positions that share a player-x
coordinate: a row for x = 1 (neighbours one bit apart) and a column for
x = 2 (neighbours n2 bits apart). The per-player operators find the
occupied lanes of a flag grid, and the span from the lowest to the
highest flag inside each lane, with O(log n) masked shift-ORs (segmented
prefix-OR smears, after Warren, *Hacker's Delight*, ch. 2). Both players
run the same code; only the per-grid masks in `PayoffGrid.lanes` differ.
`merge` smears each operand's points once and reads from that one smear
both the mixing spans and the operand's lowest lane, the floor that
truncates the other operand. Player-1 lanes are rows, consecutive in bit
order, so elsewhere a player-1 floor is the row of the lowest flag, found
with no smear, and the lanes at or above it are every bit from its
marker up.

Single points
-------------
Most sets the solver makes are one point: every leaf's, and every merge
of two points that pay the controller differently. Such a set is a
`_Point`, which holds no flag int, only the point's bit `at`: its `p` is
made on read and not kept, and equality, hashing and dumps are those of
its flags. `singleton_ups` makes such sets, and so do `merge` and
`merge_deterministic` of every result that is one point, so the solver
interns single points by position, not by hashing their flag ints. Both
merges answer two points in different player-x lanes with the operand in
the higher lane, in O(1), as neither can mix across lanes; a tie goes on
to the flag kernel. `min_point` (a point's floor), `is_single_point` and
`contains` answer from the position. None of these reads the lane masks,
so a solve whose merges are all answered from positions never builds them.

Instrumentation
---------------
Every grid carries its own `WorkMeter` (`PayoffGrid.work`). The
operators that build sets (`union`, `saturate`, `merge_random`,
`merge_ldet`, `merge` and `merge_deterministic`) add their work to the
meter of their operands' grid: `flag_ops` counts flag operations, one
per big-int shift, AND, OR, negation or multiply actually done, so
callers can check that each merge does O(n1 * n2) flag work. `merge`
counts fewer than the operators it fuses: it skips their repeated
smears, and a span skips its upward smear when the operands share no
lane. A merge answered from two positions counts nothing, and so do
queries (`contains`, `min_point`, `cross_section`, flag enumeration).

The solver builds one grid per fold, so these counts belong to that one
solve, also when solves run in parallel threads. `SetMap.flag_ops` is
the grid's count after the fold: the flag work of the merges actually
computed. `SetMap.merges` counts the binary merges the fold combines,
one per link of a node's m-ary chain, so m - 1 for a node with m
children, while `SetMap.distinct_merges` counts only the merges
computed, one per distinct (controller, left set, right set), because
equal sets are shared and a repeated merge is looked up.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterator, NamedTuple

from .gametree import GameTree, PayoffVector
from .rationals import Rational, format_rational


class GridMismatchError(ValueError):
    """Operands live on different payoff grids."""


class EmptySetError(ValueError):
    """An operation that needs a nonempty set received an empty one."""


@dataclass
class WorkMeter:
    """Work done by the set operators on one grid (see module docs)."""

    flag_ops: int = 0


class _Lanes(NamedTuple):
    """Bit layout of one player's lanes on a grid (see module docs)."""

    step: int  # bit distance between neighbours in a lane
    first: int  # the first bit of every lane, its marker
    spread: int  # marker * spread is the marker's whole lane
    along: int  # every bit whose next neighbour lies in the same lane
    # (shift, down mask, up mask) per doubling step t = 1, 2, 4, ...: the
    # masks keep the shifted bits that stay inside their own lane.
    smears: tuple[tuple[int, int, int], ...]


def _lane_layout(first: int, spread: int, step: int, length: int) -> _Lanes:
    def below(k: int) -> int:
        """Every lane's bits at in-lane index < k."""
        return first * (spread & ((1 << (k * step)) - 1))

    smears = []
    t = 1
    while t < length:
        down = below(length - t)
        smears.append((t * step, down, down << (t * step)))
        t *= 2
    return _Lanes(step, first, spread, below(length - 1), tuple(smears))


@dataclass(frozen=True)
class PayoffGrid:
    """Strictly increasing per-player payoff value lists (the grid axes)."""

    u1: tuple[Rational, ...]
    u2: tuple[Rational, ...]
    work: WorkMeter = field(default_factory=WorkMeter, compare=False, repr=False)
    n1: int = field(init=False, compare=False, repr=False)
    n2: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        for axis in (self.u1, self.u2):
            if not axis:
                raise ValueError("grid axes must be nonempty")
            if any(a >= b for a, b in zip(axis, axis[1:])):
                raise ValueError("grid axes must be strictly increasing")
        object.__setattr__(self, "n1", len(self.u1))
        object.__setattr__(self, "n2", len(self.u2))

    @cached_property
    def row_mask(self) -> int:
        return (1 << self.n2) - 1

    @cached_property
    def rep(self) -> int:
        """Bit 0 of every row: ``row * rep`` copies a row pattern to every row."""
        return sum(1 << (i * self.n2) for i in range(self.n1))

    @cached_property
    def lanes(self) -> dict[int, _Lanes]:
        """Player index -> layout of that player's lanes (rows or columns)."""
        return {
            1: _lane_layout(self.rep, self.row_mask, 1, self.n2),
            2: _lane_layout(self.row_mask, self.rep, self.n2, self.n1),
        }

    @cached_property
    def index1(self) -> dict[Rational, int]:
        return {v: i for i, v in enumerate(self.u1)}

    @cached_property
    def index2(self) -> dict[Rational, int]:
        return {v: j for j, v in enumerate(self.u2)}


class Ups:
    """A saturated union of basis elements over `grid` (see module docs).

    Immutable, and compared and hashed by its flags. A set that is exactly
    one point may be a `_Point`, which holds only the point's bit `at`;
    every other set has `at` None.
    """

    __slots__ = ("grid", "p", "l1", "l2", "d")
    at = None

    def __init__(self, grid: PayoffGrid, p: int, l1: int, l2: int, d: int):
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "l1", l1)
        object.__setattr__(self, "l2", l2)
        object.__setattr__(self, "d", d)

    def __setattr__(self, name, value):
        raise AttributeError(f"Ups is immutable: cannot set {name!r}")

    def _flags(self) -> tuple:
        return self.grid, self.p, self.l1, self.l2, self.d

    def __eq__(self, other):
        return self._flags() == other._flags() if isinstance(other, Ups) else NotImplemented

    def __hash__(self):
        return hash(self._flags())

    def __reduce__(self):
        return Ups, self._flags()

    def __repr__(self):
        return "Ups(grid={!r}, p={}, l1={}, l2={}, d={})".format(*self._flags())


class _Point(Ups):
    """The set of the one grid point at bit `at`; its `p` is made on each read."""

    __slots__ = ("at",)
    l1 = l2 = d = 0

    def __init__(self, grid: PayoffGrid, at: int):
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "at", at)

    @property
    def p(self) -> int:
        return 1 << self.at


def _result(grid: PayoffGrid, p: int, l1: int, l2: int, d: int) -> Ups:
    """A merge's result, holding only its position if it is one point."""
    if l1 or l2 or d or p.bit_count() != 1:
        return Ups(grid, p, l1, l2, d)
    return _Point(grid, p.bit_length() - 1)


def _higher_point(a: Ups, b: Ups, x: int) -> Ups | None:
    """Of two single points in different player-x lanes, the one in the
    higher lane: what `merge` and `merge_deterministic` yield, as nothing
    mixes across lanes and the lower point is below the other's floor.
    None if either is not a known point or both share a lane."""
    if a.at is None or b.at is None:
        return None
    n2 = a.grid.n2
    la, lb = (a.at // n2, b.at // n2) if x == 1 else (a.at % n2, b.at % n2)
    if la == lb:
        return None
    return a if la > lb else b


def _same_grid(a: Ups, b: Ups) -> None:
    if a.grid is not b.grid and a.grid != b.grid:
        raise GridMismatchError("operands are on different payoff grids")


# Most flag bits the sets of one solve may span in the worst case: distinct
# leaf payoffs times grid points. Single points hold no flag int, but with
# ties a merge result holds flag ints of up to n1 * n2 bits, and a tree
# with D distinct leaf payoffs has at least D - 1 merges. 2^34 bits is
# 2 GiB; a 2000-leaf tree with all-distinct payoffs counts about 8 * 10^9
# of them, a 3000-leaf one 2.7 * 10^10.
GRID_BUDGET = 1 << 34


def build_grid(tree: GameTree) -> PayoffGrid:
    """Sorted, deduplicated per-player payoff lists of a tree's leaves.

    Each entry of the payoff table that a leaf uses is read once, however
    many leaves share it. Raises ValueError, before any set is made, when
    distinct leaf payoffs times grid points exceed `GRID_BUDGET`, the
    worst case of the solve's flag bits.
    """
    payoffs = [tree.payoffs[i] for i in set(tree.leaf.values())]
    if not payoffs:
        raise ValueError("tree has no leaves")
    xs = {v.p1 for v in payoffs}
    ys = {v.p2 for v in payoffs}
    cells = len(xs) * len(ys)
    if len(payoffs) * cells > GRID_BUDGET:
        distinct = len({(v.p1, v.p2) for v in payoffs})
        if distinct * cells > GRID_BUDGET:
            raise ValueError(
                f"payoff grid too large: {distinct} distinct leaf payoffs on a "
                f"{len(xs)} x {len(ys)} grid need {distinct * cells} flag bits, "
                f"over the budget of {GRID_BUDGET}"
            )
    return PayoffGrid(tuple(sorted(xs)), tuple(sorted(ys)))


def singleton_ups(grid: PayoffGrid, payoff: PayoffVector) -> Ups:
    i = grid.index1.get(payoff.p1)
    j = grid.index2.get(payoff.p2)
    if i is None or j is None:
        raise ValueError(f"payoff {payoff} is not on the grid")
    return _Point(grid, i * grid.n2 + j)


def is_empty(a: Ups) -> bool:
    return a.at is None and (a.p | a.l1 | a.l2 | a.d) == 0


def union(a: Ups, b: Ups) -> Ups:
    """Flag-wise union; preserves saturation."""
    _same_grid(a, b)
    a.grid.work.flag_ops += 4
    return Ups(a.grid, a.p | b.p, a.l1 | b.l1, a.l2 | b.l2, a.d | b.d)


def _saturate_bits(n2: int, p: int, l1: int, l2: int, d: int) -> tuple[int, int, int, int]:
    # Shifts stay inside valid bit ranges: cells only exist below the last
    # row/column, so propagating them one column (<< 1) or one row (<< n2)
    # cannot bleed across row boundaries.
    l1 |= d | (d << 1)
    l2 |= d | (d << n2)
    p |= l1 | (l1 << n2) | l2 | (l2 << 1)
    return p, l1, l2, d


def saturate(a: Ups) -> Ups:
    """Downward closure: flag every basis element contained in a flagged one."""
    a.grid.work.flag_ops += 10
    return Ups(a.grid, *_saturate_bits(a.grid.n2, a.p, a.l1, a.l2, a.d))


_ON, _BETWEEN, _OUT = 0, 1, 2


def _locate(axis: tuple[Rational, ...], v) -> tuple[int, int]:
    lo, hi = 0, len(axis)
    if type(v) is Fraction and v.denominator != 1:
        # Bisect by the floor, so int entries are compared with ints only.
        f = v.numerator // v.denominator
        lo = bisect_right(axis, f)
        hi = bisect_left(axis, f + 1, lo)
    pos = bisect_left(axis, v, lo, hi)
    if pos < hi and axis[pos] == v:
        return _ON, pos
    if 0 < pos < len(axis):
        return _BETWEEN, pos - 1
    return _OUT, -1


def flag_position(grid: PayoffGrid, point: PayoffVector) -> tuple[str, int]:
    """The flag grid (`"p"`, `"l1"`, `"l2"` or `"d"`) and the bit of the
    basis element whose relative interior holds `point`; off the grid, a
    bit past every flag. On-grid coordinates are looked up, not bisected."""
    i, j = grid.index1.get(point.p1), grid.index2.get(point.p2)
    kx, i = _locate(grid.u1, point.p1) if i is None else (_ON, i)
    ky, j = _locate(grid.u2, point.p2) if j is None else (_ON, j)
    if kx == _OUT or ky == _OUT:
        return "p", grid.n1 * grid.n2
    if kx == _ON:
        return ("p" if ky == _ON else "l2"), i * grid.n2 + j
    return ("l1" if ky == _ON else "d"), i * grid.n2 + j


def holds(a: Ups, kind: str, bit: int) -> bool:
    """Whether `a` flags `bit` of flag grid `kind`, as `flag_position` names
    them; a single point compares positions and shifts no flag int."""
    if a.at is not None:
        return bit == a.at and kind == "p"
    return bool(getattr(a, kind) >> bit & 1)


def contains(a: Ups, point: PayoffVector) -> bool:
    """Exact membership of a point in the represented set (`a` saturated)."""
    return holds(a, *flag_position(a.grid, point))


def _check_player(x: int) -> None:
    if x != 1 and x != 2:
        raise ValueError(f"player index must be 1 or 2, got {x}")


def _low(lanes: _Lanes, bits: int) -> int:
    """Every bit with a flag of `bits` at or above it in its lane, so a lane's
    marker is set iff the lane holds a flag (3 * len(lanes.smears) flag ops)."""
    for shift, down, _ in lanes.smears:
        bits |= (bits >> shift) & down
    return bits


def _lowest_lane(lanes: _Lanes, low: int) -> int:
    """Marker of the lowest occupied lane of flags smeared by `_low` (3 flag ops)."""
    occupied = low & lanes.first
    return occupied & -occupied


def _floor(grid: PayoffGrid, lanes: _Lanes, x: int, bits: int) -> int:
    """Marker of the lowest player-x lane holding a flag of `bits` (nonzero);
    a player-1 lane is a row, so that is the lowest flag's row, unsmeared."""
    if x == 1:
        grid.work.flag_ops += 3
        return 1 << ((bits & -bits).bit_length() - 1) // grid.n2 * grid.n2
    grid.work.flag_ops += 3 * len(lanes.smears) + 3
    return _lowest_lane(lanes, _low(lanes, bits))


def _at_or_above(a: Ups, lanes: _Lanes, work: WorkMeter, x: int, floor: int):
    """`a`'s flags in the player-x lanes at or above the lane marked `floor`;
    saturated if `a` is, as a flag's contained flags lie in its lane or above."""
    # Rows are consecutive bit blocks, so for x = 1 these are all bits from
    # the floor up; for x = 2, the markers from the floor up, spread.
    keep = -floor if x == 1 else (lanes.first & -floor) * lanes.spread
    work.flag_ops += 5 if x == 1 else 7
    return a.p & keep, a.l1 & keep, a.l2 & keep, a.d & keep


def _spans(lanes: _Lanes, work: WorkMeter, a: int, b: int, low_a: int, low_b: int) -> int:
    """In every lane holding flags of both `a` and `b`, all bits from the
    lowest to the highest flag of either; nothing in the other lanes.
    `low_a` and `low_b` are `a` and `b` smeared by `_low`."""
    both = low_a & low_b & lanes.first
    work.flag_ops += 2
    if not both:
        return 0
    # high: a flag of either at or below, in the same lane.
    high = a | b
    for shift, _, up in lanes.smears:
        high |= (high << shift) & up
    work.flag_ops += 3 * len(lanes.smears) + 5
    return (low_a | low_b) & high & both * lanes.spread


def _mixes(grid: PayoffGrid, lanes: _Lanes, x: int, a: Ups, b: Ups, low_a: int, low_b: int):
    """Flags of `merge_random(a, b, x)`, given `a.p` and `b.p` smeared by `_low`."""
    work = grid.work
    pts = _spans(lanes, work, a.p, b.p, low_a, low_b)
    if not pts:
        return 0, 0, 0, 0
    # The segments across player-x lanes: l1 for x = 1, l2 for x = 2. Under
    # saturation their shared lanes are shared lanes of points too.
    ca, cb = (a.l1, b.l1) if x == 1 else (a.l2, b.l2)
    cross = 0
    if ca and cb:
        work.flag_ops += 6 * len(lanes.smears)
        cross = _spans(lanes, work, ca, cb, _low(lanes, ca), _low(lanes, cb))
    # Spans are contiguous in their lane, so a bit whose next neighbour is
    # also flagged starts a segment along the lane (or a cell).
    shift, along = lanes.step, lanes.along
    joins = pts & (pts >> shift) & along
    d = cross & (cross >> shift) & along
    l1, l2 = (cross, joins) if x == 1 else (joins, cross)
    work.flag_ops += 16
    return _saturate_bits(grid.n2, pts, l1, l2, d)


def min_point(a: Ups, x: int) -> PayoffVector:
    """The flagged grid point with minimal player-x coordinate.

    Ties are broken toward the minimal other coordinate. Saturation
    guarantees the represented set attains its player-x minimum at a
    flagged point.
    """
    _check_player(x)
    grid = a.grid
    at = a.at
    if at is None:
        if a.p == 0:
            raise EmptySetError("minimum of an empty set")
        lanes = grid.lanes[x]
        # The lowest flag of the lowest lane; for x = 1 that is the lowest flag.
        lane = a.p if x == 1 else a.p & _lowest_lane(lanes, _low(lanes, a.p)) * lanes.spread
        at = (lane & -lane).bit_length() - 1
    i, j = divmod(at, grid.n2)
    return PayoffVector(grid.u1[i], grid.u2[j])


def merge_ldet(a: Ups, b: Ups, x: int) -> Ups:
    """Points of `a` whose player-x coordinate is at least min over `b`.

    Implemented as a single masked copy: with saturated inputs, dropping
    every flag that sits in a player-x lane below the lowest lane
    occupied by `b` leaves exactly the truncated set, already saturated.
    """
    _same_grid(a, b)
    grid = a.grid
    if b.p == 0:
        raise EmptySetError("merge_ldet needs a nonempty second operand")
    _check_player(x)
    lanes = grid.lanes[x]
    return Ups(grid, *_at_or_above(a, lanes, grid.work, x, _floor(grid, lanes, x, b.p)))


def merge_random(a: Ups, b: Ups, x: int) -> Ups:
    """All convex combinations of one point from each set that agree in the
    player-x coordinate; saturated.

    Every point of a player-x lane pays x the same, so where both sets
    have points in a lane, the mixes fill it from the lowest to the
    highest point of either set; where both have segments that cross the
    lanes at the same place, the mixes fill cells likewise.
    """
    _same_grid(a, b)
    grid = a.grid
    _check_player(x)
    lanes = grid.lanes[x]
    grid.work.flag_ops += 6 * len(lanes.smears)
    return Ups(grid, *_mixes(grid, lanes, x, a, b, _low(lanes, a.p), _low(lanes, b.p)))


def merge(a: Ups, b: Ups, x: int) -> Ups:
    """Combine two child sets into the parent set for controller x.

    The parent can deterministically pick either child (keeping only
    payoffs no worse for x than the other child's worst case) or mix
    between x-indifferent payoff pairs: the union of `merge_random` and
    both `merge_ldet`s, in one pass that smears each operand's points once.
    """
    _same_grid(a, b)
    _check_player(x)
    point = _higher_point(a, b, x)
    if point is not None:
        return point
    if not (a.p and b.p):
        raise EmptySetError("merge needs two nonempty sets")
    grid = a.grid
    lanes, work = grid.lanes[x], grid.work
    low_a, low_b = _low(lanes, a.p), _low(lanes, b.p)
    mp, ml1, ml2, md = _mixes(grid, lanes, x, a, b, low_a, low_b)
    ap, al1, al2, ad = _at_or_above(a, lanes, work, x, _lowest_lane(lanes, low_b))
    bp, bl1, bl2, bd = _at_or_above(b, lanes, work, x, _lowest_lane(lanes, low_a))
    work.flag_ops += 6 * len(lanes.smears) + 14
    return _result(grid, mp | ap | bp, ml1 | al1 | bl1, ml2 | al2 | bl2, md | ad | bd)


def merge_deterministic(a: Ups, b: Ups, x: int) -> Ups:
    """Merge variant that never mixes, the union of both `merge_ldet`s; on
    point-only inputs the result is again point-only."""
    _same_grid(a, b)
    _check_player(x)
    point = _higher_point(a, b, x)
    if point is not None:
        return point
    if not (a.p and b.p):
        raise EmptySetError("merge_deterministic needs two nonempty sets")
    grid = a.grid
    lanes, work = grid.lanes[x], grid.work
    ap, al1, al2, ad = _at_or_above(a, lanes, work, x, _floor(grid, lanes, x, b.p))
    bp, bl1, bl2, bd = _at_or_above(b, lanes, work, x, _floor(grid, lanes, x, a.p))
    work.flag_ops += 4
    return _result(grid, ap | bp, al1 | bl1, al2 | bl2, ad | bd)


def is_single_point(a: Ups) -> bool:
    return a.at is not None or ((a.l1 | a.l2 | a.d) == 0 and a.p.bit_count() == 1)


def cross_section(a: Ups, x: int, v: Rational) -> tuple[int, int]:
    """Slice the set at coordinate `v` along player x's axis.

    Returns (points, segments) bitsets indexed by the other player's grid:
    bit k of `points` means the other-coordinate value u_other[k] is in the
    slice; bit k of `segments` means the whole closed interval
    [u_other[k], u_other[k+1]] is.
    """
    grid = a.grid
    n2 = grid.n2
    if x == 1:
        kind, i = _locate(grid.u1, v)
        if kind == _OUT:
            return 0, 0
        pts_src, seg_src = (a.p, a.l2) if kind == _ON else (a.l1, a.d)
        off = i * n2
        return (pts_src >> off) & grid.row_mask, (seg_src >> off) & grid.row_mask
    if x == 2:
        kind, j = _locate(grid.u2, v)
        if kind == _OUT:
            return 0, 0
        pts_src, seg_src = (a.p, a.l1) if kind == _ON else (a.l2, a.d)
        # Column j: every n2-th binary digit from bit j up, read lowest first.
        return tuple(int(format(src >> j, "b")[::-n2][::-1], 2) for src in (pts_src, seg_src))
    raise ValueError(f"player index must be 1 or 2, got {x}")


# -- flag enumeration and the dump format --------------------------------------

FLAG_KINDS = ("P", "L1", "L2", "D")


def _flag_dims(grid: PayoffGrid, kind: str) -> tuple[int, int]:
    n1, n2 = grid.n1, grid.n2
    return {
        "P": (n1, n2),
        "L1": (n1 - 1, n2),
        "L2": (n1, n2 - 1),
        "D": (n1 - 1, n2 - 1),
    }[kind]


def iter_flags(a: Ups) -> Iterator[tuple[str, int, int]]:
    """Yield (kind, i, j) for every true flag, kinds in dump order,
    ascending i then j, 0-based."""
    grid = a.grid
    n2 = grid.n2
    row_mask = grid.row_mask
    for kind, bits in zip(FLAG_KINDS, (a.p, a.l1, a.l2, a.d)):
        rows, _ = _flag_dims(grid, kind)
        for i in range(rows):
            row = (bits >> (i * n2)) & row_mask
            while row:
                j = (row & -row).bit_length() - 1
                yield kind, i, j
                row &= row - 1


def flag_box(grid: PayoffGrid, kind: str, i: int, j: int):
    """Closed bounding box (x0, x1, y0, y1) of one basis element."""
    u1, u2 = grid.u1, grid.u2
    if kind == "P":
        return u1[i], u1[i], u2[j], u2[j]
    if kind == "L1":
        return u1[i], u1[i + 1], u2[j], u2[j]
    if kind == "L2":
        return u1[i], u1[i], u2[j], u2[j + 1]
    if kind == "D":
        return u1[i], u1[i + 1], u2[j], u2[j + 1]
    raise ValueError(f"unknown flag kind {kind!r}")


def ups_from_flags(
    grid: PayoffGrid,
    flags: Iterator[tuple[str, int, int]] | list[tuple[str, int, int]],
) -> Ups:
    """Build a (possibly unsaturated) value from explicit (kind, i, j) flags."""
    bits = {"P": 0, "L1": 0, "L2": 0, "D": 0}
    for kind, i, j in flags:
        rows, cols = _flag_dims(grid, kind)
        if not (0 <= i < rows and 0 <= j < cols):
            raise ValueError(f"flag {kind}[{i}][{j}] out of range for {rows}x{cols}")
        bits[kind] |= 1 << (i * grid.n2 + j)
    return Ups(grid, bits["P"], bits["L1"], bits["L2"], bits["D"])


def serialize_ups(a: Ups) -> str:
    """Dump text: header, the two grid axes, then one line per flag, 1-based."""
    grid = a.grid
    out = [
        "ups v1",
        "grid1 " + " ".join(format_rational(v) for v in grid.u1),
        "grid2 " + " ".join(format_rational(v) for v in grid.u2),
    ]
    for kind, i, j in iter_flags(a):
        out.append(f"{kind} {i + 1} {j + 1}")
    return "\n".join(out) + "\n"
