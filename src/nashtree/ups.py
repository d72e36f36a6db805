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

Instrumentation
---------------
`METER` tallies the merges and elementary flag operations these
operators actually perform, so callers can check that each merge touches
O(n1 * n2) flags. A solve counts its own merges: `SetMap.merges` is one
per internal node combined, while `SetMap.distinct_merges` counts only
the merges computed, one per distinct (controller, left set, right set),
because equal sets are shared and a repeated merge is looked up.
`SetMap.flag_ops` is the flag work of the computed merges only.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator

from .gametree import GameTree, Leaf, PayoffVector
from .rationals import format_rational


class GridMismatchError(ValueError):
    """Operands live on different payoff grids."""


class EmptySetError(ValueError):
    """An operation that needs a nonempty set received an empty one."""


@dataclass
class WorkMeter:
    merges: int = 0
    flag_ops: int = 0


METER = WorkMeter()


def reset_meter() -> None:
    METER.merges = 0
    METER.flag_ops = 0


# Byte -> spread bits at a given stride, for fast bit-matrix transposes.
_SPREAD: dict[int, list[int]] = {}


def _spread_table(stride: int) -> list[int]:
    table = _SPREAD.get(stride)
    if table is None:
        table = [
            sum(1 << (k * stride) for k in range(8) if byte >> k & 1)
            for byte in range(256)
        ]
        _SPREAD[stride] = table
    return table


@dataclass(frozen=True)
class PayoffGrid:
    """Strictly increasing per-player payoff value lists (the grid axes)."""

    u1: tuple[Fraction, ...]
    u2: tuple[Fraction, ...]

    def __post_init__(self):
        for axis in (self.u1, self.u2):
            if not axis:
                raise ValueError("grid axes must be nonempty")
            if any(a >= b for a, b in zip(axis, axis[1:])):
                raise ValueError("grid axes must be strictly increasing")

    @property
    def n1(self) -> int:
        return len(self.u1)

    @property
    def n2(self) -> int:
        return len(self.u2)

    @cached_property
    def row_mask(self) -> int:
        return (1 << self.n2) - 1

    @cached_property
    def index1(self) -> dict[Fraction, int]:
        return {v: i for i, v in enumerate(self.u1)}

    @cached_property
    def index2(self) -> dict[Fraction, int]:
        return {v: j for j, v in enumerate(self.u2)}

    @cached_property
    def colmask_ge(self) -> tuple[int, ...]:
        """colmask_ge[m]: bits of every row with column index >= m."""
        masks = []
        for m in range(self.n2 + 1):
            row = self.row_mask & ~((1 << m) - 1)
            masks.append(sum(row << (i * self.n2) for i in range(self.n1)))
        return tuple(masks)

    @cached_property
    def transposed(self) -> "PayoffGrid":
        other = PayoffGrid(self.u2, self.u1)
        other.__dict__["transposed"] = self
        return other


@dataclass(frozen=True)
class Ups:
    """A saturated union of basis elements over `grid` (see module docs)."""

    grid: PayoffGrid
    p: int
    l1: int
    l2: int
    d: int


def _same_grid(a: Ups, b: Ups) -> None:
    if a.grid is not b.grid and a.grid != b.grid:
        raise GridMismatchError("operands are on different payoff grids")


def build_grid(tree: GameTree) -> PayoffGrid:
    """Sorted, deduplicated per-player leaf payoff lists of a tree."""
    xs = set()
    ys = set()
    for node in tree.nodes.values():
        if isinstance(node, Leaf):
            xs.add(node.payoff.p1)
            ys.add(node.payoff.p2)
    if not xs:
        raise ValueError("tree has no leaves")
    return PayoffGrid(tuple(sorted(xs)), tuple(sorted(ys)))


def empty_ups(grid: PayoffGrid) -> Ups:
    return Ups(grid, 0, 0, 0, 0)


def singleton_ups(grid: PayoffGrid, payoff: PayoffVector) -> Ups:
    i = grid.index1.get(payoff.p1)
    j = grid.index2.get(payoff.p2)
    if i is None or j is None:
        raise ValueError(f"payoff {payoff} is not on the grid")
    return Ups(grid, 1 << (i * grid.n2 + j), 0, 0, 0)


def is_empty(a: Ups) -> bool:
    return (a.p | a.l1 | a.l2 | a.d) == 0


def union(a: Ups, b: Ups) -> Ups:
    """Flag-wise union; preserves saturation."""
    _same_grid(a, b)
    METER.flag_ops += 4
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
    METER.flag_ops += 10
    return Ups(a.grid, *_saturate_bits(a.grid.n2, a.p, a.l1, a.l2, a.d))


def equal_ups(a: Ups, b: Ups) -> bool:
    """Flag-grid equality; decides point-set equality for saturated values."""
    _same_grid(a, b)
    return a.p == b.p and a.l1 == b.l1 and a.l2 == b.l2 and a.d == b.d


_ON, _BETWEEN, _OUT = 0, 1, 2


def _locate(axis: tuple[Fraction, ...], v) -> tuple[int, int]:
    pos = bisect_left(axis, v)
    if pos < len(axis) and axis[pos] == v:
        return _ON, pos
    if 0 < pos < len(axis):
        return _BETWEEN, pos - 1
    return _OUT, -1


def contains(a: Ups, point: PayoffVector) -> bool:
    """Exact membership of a point in the represented set (`a` saturated)."""
    grid = a.grid
    kx, i = _locate(grid.u1, point.p1)
    ky, j = _locate(grid.u2, point.p2)
    if kx == _OUT or ky == _OUT:
        return False
    bit = i * grid.n2 + j
    if kx == _ON:
        source = a.p if ky == _ON else a.l2
    else:
        source = a.l1 if ky == _ON else a.d
    return bool(source >> bit & 1)


def min_point(a: Ups, x: int) -> PayoffVector:
    """The flagged grid point with minimal player-x coordinate.

    Ties are broken toward the minimal other coordinate. Saturation
    guarantees the represented set attains its player-x minimum at a
    flagged point.
    """
    grid = a.grid
    if a.p == 0:
        raise EmptySetError("minimum of an empty set")
    n2 = grid.n2
    if x == 1:
        low = (a.p & -a.p).bit_length() - 1
        return PayoffVector(grid.u1[low // n2], grid.u2[low % n2])
    if x != 2:
        raise ValueError(f"player index must be 1 or 2, got {x}")
    occupied = 0
    for i in range(grid.n1):
        occupied |= a.p >> (i * n2)
    occupied &= grid.row_mask
    METER.flag_ops += grid.n1
    j = (occupied & -occupied).bit_length() - 1
    i = next(i for i in range(grid.n1) if a.p >> (i * n2 + j) & 1)
    return PayoffVector(grid.u1[i], grid.u2[j])


def min_value_for_player(a: Ups, x: int) -> Fraction:
    """Minimum player-x coordinate over the represented set."""
    return min_point(a, x).component(x)


def merge_ldet(a: Ups, b: Ups, x: int) -> Ups:
    """Points of `a` whose player-x coordinate is at least min over `b`.

    Implemented as a single masked copy: with saturated inputs, dropping
    every flag whose low row (x = 1) or low column (x = 2) index falls
    below the minimum occupied index of `b` leaves exactly the truncated
    set, already saturated.
    """
    _same_grid(a, b)
    grid = a.grid
    if b.p == 0:
        raise EmptySetError("merge_ldet needs a nonempty second operand")
    METER.flag_ops += 8
    if x == 1:
        m = ((b.p & -b.p).bit_length() - 1) // grid.n2
        keep = ~((1 << (m * grid.n2)) - 1)
    elif x == 2:
        occupied = 0
        for i in range(grid.n1):
            occupied |= b.p >> (i * grid.n2)
        METER.flag_ops += grid.n1
        occupied &= grid.row_mask
        m = (occupied & -occupied).bit_length() - 1
        keep = grid.colmask_ge[m]
    else:
        raise ValueError(f"player index must be 1 or 2, got {x}")
    return Ups(grid, a.p & keep, a.l1 & keep, a.l2 & keep, a.d & keep)


def transpose(a: Ups) -> Ups:
    """The same point set with the two players' axes swapped."""
    grid = a.grid
    n1, n2 = grid.n1, grid.n2
    tp = _transpose_bits(a.p, n1, n2, n1)
    tl1 = _transpose_bits(a.l2, n1, n2, n1)
    tl2 = _transpose_bits(a.l1, n1, n2, n1)
    td = _transpose_bits(a.d, n1, n2, n1)
    return Ups(grid.transposed, tp, tl1, tl2, td)


def _transpose_bits(bits: int, rows: int, stride: int, out_stride: int) -> int:
    if bits == 0:
        return 0
    table = _spread_table(out_stride)
    row_mask = (1 << stride) - 1
    out = 0
    ops = 0
    for i in range(rows):
        row = (bits >> (i * stride)) & row_mask
        shift = i
        while row:
            out |= table[row & 0xFF] << shift
            row >>= 8
            shift += 8 * out_stride
            ops += 1
    METER.flag_ops += ops
    return out


def _merge_random_rows(grid: PayoffGrid, ap: int, al1: int, bp: int, bl1: int):
    """Indifference merge for player 1 on row-major bits; returns raw flags.

    Per grid row shared by both point sets, fill points and vertical
    segments from the lowest to the highest flagged column of either set;
    per segment row shared by both horizontal-segment sets, fill segments
    and cells likewise.
    """
    n1, n2 = grid.n1, grid.n2
    row_mask = grid.row_mask
    p = l1 = l2 = d = 0
    ops = 2
    for i in range(n1):
        off = i * n2
        ra = (ap >> off) & row_mask
        ops += 1
        if not ra:
            continue
        rb = (bp >> off) & row_mask
        if not rb:
            continue
        u = ra | rb
        low = (u & -u).bit_length() - 1
        span = u.bit_length() - low
        p |= ((1 << span) - 1) << (off + low)
        if span > 1:
            l2 |= ((1 << (span - 1)) - 1) << (off + low)
        ops += 4
    for i in range(n1 - 1):
        off = i * n2
        ra = (al1 >> off) & row_mask
        ops += 1
        if not ra:
            continue
        rb = (bl1 >> off) & row_mask
        if not rb:
            continue
        u = ra | rb
        low = (u & -u).bit_length() - 1
        span = u.bit_length() - low
        l1 |= ((1 << span) - 1) << (off + low)
        if span > 1:
            d |= ((1 << (span - 1)) - 1) << (off + low)
        ops += 4
    METER.flag_ops += ops
    return p, l1, l2, d


def merge_random(a: Ups, b: Ups, x: int) -> Ups:
    """All convex combinations of one point from each set that agree in the
    player-x coordinate; saturated."""
    _same_grid(a, b)
    if x == 2:
        return transpose(merge_random(transpose(a), transpose(b), 1))
    if x != 1:
        raise ValueError(f"player index must be 1 or 2, got {x}")
    grid = a.grid
    bits = _merge_random_rows(grid, a.p, a.l1, b.p, b.l1)
    METER.flag_ops += 10
    return Ups(grid, *_saturate_bits(grid.n2, *bits))


def merge(a: Ups, b: Ups, x: int) -> Ups:
    """Combine two child sets into the parent set for controller x.

    The parent can deterministically pick either child (keeping only
    payoffs no worse for x than the other child's worst case) or mix
    between x-indifferent payoff pairs.
    """
    result = union(
        merge_random(a, b, x),
        union(merge_ldet(a, b, x), merge_ldet(b, a, x)),
    )
    METER.merges += 1
    return result


def merge_deterministic(a: Ups, b: Ups, x: int) -> Ups:
    """Merge variant that never mixes; on point-only inputs the result is
    again point-only."""
    result = union(merge_ldet(a, b, x), merge_ldet(b, a, x))
    METER.merges += 1
    return result


def is_single_point(a: Ups) -> bool:
    return (a.l1 | a.l2 | a.d) == 0 and a.p.bit_count() == 1


def cross_section(a: Ups, x: int, v: Fraction) -> tuple[int, int]:
    """Slice the set at coordinate `v` along player x's axis.

    Returns (points, segments) bitsets indexed by the other player's grid:
    bit k of `points` means the other-coordinate value u_other[k] is in the
    slice; bit k of `segments` means the whole closed interval
    [u_other[k], u_other[k+1]] is.
    """
    grid = a.grid
    n1, n2 = grid.n1, grid.n2
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
        pts = segs = 0
        for i in range(n1):
            pts |= (pts_src >> (i * n2 + j) & 1) << i
            segs |= (seg_src >> (i * n2 + j) & 1) << i
        METER.flag_ops += n1
        return pts, segs
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


def flag_corner(grid: PayoffGrid, kind: str, i: int, j: int) -> PayoffVector:
    """Upper-right corner of one basis element."""
    x0, x1, y0, y1 = flag_box(grid, kind, i, j)
    return PayoffVector(x1, y1)


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
