import random
from fractions import Fraction

import pytest

from nashtree.gametree import parse_game_tree
from nashtree.oracle import brute_contains
from nashtree.ups import (
    EmptySetError,
    GridMismatchError,
    PayoffGrid,
    build_grid,
    contains,
    cross_section,
    flag_box,
    is_empty,
    is_single_point,
    iter_flags,
    merge,
    merge_deterministic,
    merge_ldet,
    merge_random,
    min_point,
    saturate,
    serialize_ups,
    singleton_ups,
    union,
    ups_from_flags,
)

from .helpers import (
    edge_case_pair,
    empty_ups,
    equal_ups,
    min_value_for_player,
    pv,
    random_grid,
    random_saturated_ups,
    transpose,
)


@pytest.fixture(scope="module")
def demo(demo_tree):
    """Grid and per-subtree equilibrium sets of the demo tree, by hand."""
    grid = build_grid(demo_tree)
    u4 = singleton_ups(grid, pv(2, 3))
    u5 = singleton_ups(grid, pv(2, 100))
    u3 = singleton_ups(grid, pv(1000, 4))
    u2 = merge(u4, u5, 1)  # {2} x [3,100]
    u1 = merge(u2, u3, 2)  # ({2} x [4,100]) U ([2,1000] x {4})
    return grid, u1, u2, u3, u4, u5


def flags(a):
    return sorted(iter_flags(a))


class TestGrid:
    def test_demo_grid(self, demo_tree):
        grid = build_grid(demo_tree)
        assert grid.u1 == (Fraction(2), Fraction(1000))
        assert grid.u2 == (Fraction(3), Fraction(4), Fraction(100))
        assert (grid.n1, grid.n2) == (2, 3)

    def test_single_leaf_grid(self):
        tree = parse_game_tree("gtree v1\nroot 1\nleaf 1 payoff 0 0\n")
        grid = build_grid(tree)
        assert grid.u1 == (Fraction(0),) and grid.u2 == (Fraction(0),)

    def test_axes_must_increase(self):
        with pytest.raises(ValueError):
            PayoffGrid((Fraction(1), Fraction(1)), (Fraction(0),))

    def test_transposed_grid_is_reciprocal(self, demo):
        grid, u1, *_ = demo
        swapped = transpose(u1).grid
        assert (swapped.u1, swapped.u2) == (grid.u2, grid.u1)
        assert transpose(transpose(u1)).grid == grid


class TestConstructors:
    def test_singleton_sets_one_point_flag(self, demo):
        grid = demo[0]
        assert flags(singleton_ups(grid, pv(2, 3))) == [("P", 0, 0)]
        assert flags(singleton_ups(grid, pv(1000, 4))) == [("P", 1, 1)]

    def test_singleton_off_grid_rejected(self, demo):
        with pytest.raises(ValueError, match="not on the grid"):
            singleton_ups(demo[0], pv(5, 5))

    def test_empty_contains_nothing(self, demo):
        grid = demo[0]
        e = empty_ups(grid)
        assert is_empty(e)
        for x in grid.u1:
            for y in grid.u2:
                assert not contains(e, pv(x, y))


class TestUnion:
    def test_empty_is_identity(self, demo):
        _, u1, u2, *_ = demo
        for a in (u1, u2):
            assert equal_ups(union(a, empty_ups(a.grid)), a)

    def test_commutes(self, demo):
        _, u1, u2, u3, *_ = demo
        assert equal_ups(union(u2, u3), union(u3, u2))

    def test_hand_worked_flags(self, demo):
        grid, u1, u2, u3, *_ = demo
        left = merge_ldet(u2, u3, 2)   # {2} x [4,100]
        right = merge_random(u2, u3, 2)  # [2,1000] x {4}
        got = union(left, right)
        assert flags(got) == sorted(
            [("P", 0, 1), ("P", 0, 2), ("L2", 0, 1), ("P", 1, 1), ("L1", 0, 1)]
        )

    def test_grid_mismatch(self, demo):
        other = PayoffGrid((Fraction(0),), (Fraction(0),))
        with pytest.raises(GridMismatchError):
            union(demo[1], empty_ups(other))


class TestSaturate:
    def test_cell_closure_flags_everything_it_contains(self):
        grid = PayoffGrid(
            (Fraction(0), Fraction(1)), (Fraction(0), Fraction(1))
        )
        got = saturate(ups_from_flags(grid, [("D", 0, 0)]))
        assert flags(got) == sorted(
            [
                ("D", 0, 0),
                ("L1", 0, 0),
                ("L1", 0, 1),
                ("L2", 0, 0),
                ("L2", 1, 0),
                ("P", 0, 0),
                ("P", 0, 1),
                ("P", 1, 0),
                ("P", 1, 1),
            ]
        )

    def test_idempotent(self):
        rng = random.Random(3)
        for _ in range(40):
            a = random_saturated_ups(rng, random_grid(rng))
            assert equal_ups(saturate(a), a)

    def test_empty_fixed_point(self, demo):
        assert is_empty(saturate(empty_ups(demo[0])))

    def test_point_set_unchanged(self):
        # Sampled membership agrees before and after closure.
        rng = random.Random(5)
        from nashtree.oracle import _rep_points

        from .helpers import random_flags

        for _ in range(30):
            grid = random_grid(rng, max_side=5)
            raw = ups_from_flags(grid, random_flags(rng, grid))
            sat = saturate(raw)
            for kind, i, j in iter_flags(union(sat, raw)):
                for point in _rep_points(flag_box(grid, kind, i, j)):
                    assert brute_contains(raw, point) == brute_contains(sat, point)


class TestContains:
    def test_interior_of_vertical_segment(self, demo):
        _, _, u2, *_ = demo
        assert contains(u2, pv(2, 50))

    def test_below_segment(self, demo):
        _, _, u2, *_ = demo
        assert not contains(u2, pv(2, 2))

    def test_flagged_point(self, demo):
        _, u1, *_ = demo
        assert contains(u1, pv(1000, 4))

    def test_outside_hull(self, demo):
        _, u1, *_ = demo
        assert not contains(u1, pv(10**6, 4))
        assert not contains(u1, pv(2, 2))

    def test_random_points_match_the_brute_force_geometry(self):
        # On-grid coordinates take the index lookup, the others the
        # bisection; both must agree with exact interval geometry.
        rng = random.Random(13)

        def coordinate(axis):
            k = rng.randrange(len(axis))
            roll = rng.random()
            if roll < 0.5:
                return axis[k]
            if roll < 0.8 and k + 1 < len(axis):
                return (axis[k] + axis[k + 1]) / 2
            return axis[0] - 1 if roll < 0.9 else axis[-1] + Fraction(1, 3)

        for _ in range(60):
            grid = random_grid(rng)
            a = random_saturated_ups(rng, grid, 0.3)
            for _ in range(12):
                point = pv(coordinate(grid.u1), coordinate(grid.u2))
                assert contains(a, point) == brute_contains(a, point), point

    def test_cell_interior(self):
        grid = PayoffGrid((Fraction(0), Fraction(2)), (Fraction(0), Fraction(2)))
        a = saturate(ups_from_flags(grid, [("D", 0, 0)]))
        assert contains(a, pv(Fraction(1, 3), Fraction(7, 5)))
        assert contains(a, pv(1, 0))
        assert not contains(empty_ups(grid), pv(1, 1))


class TestMinValue:
    def test_segment_minimum(self, demo):
        _, _, u2, *_ = demo
        assert min_value_for_player(u2, 2) == 3

    def test_singleton_minimum(self, demo):
        _, _, _, u3, *_ = demo
        assert min_value_for_player(u3, 1) == 1000

    def test_root_minimum(self, demo):
        _, u1, *_ = demo
        assert min_value_for_player(u1, 1) == 2

    def test_empty_raises(self, demo):
        with pytest.raises(EmptySetError):
            min_value_for_player(empty_ups(demo[0]), 1)

    def test_min_point_tie_breaks_on_other_coordinate(self):
        grid = PayoffGrid(
            (Fraction(0), Fraction(1)), (Fraction(0), Fraction(1), Fraction(2))
        )
        a = ups_from_flags(grid, [("P", 0, 2), ("P", 0, 1), ("P", 1, 0)])
        assert min_point(a, 1) == pv(0, 1)
        assert min_point(a, 2) == pv(1, 0)


class TestMergeLdet:
    def test_truncates_by_other_sets_minimum(self, demo):
        _, _, u2, u3, *_ = demo
        got = merge_ldet(u2, u3, 2)
        assert flags(got) == sorted([("P", 0, 1), ("P", 0, 2), ("L2", 0, 1)])

    def test_self_merge_is_identity(self, demo):
        _, u1, u2, *_ = demo
        for a in (u1, u2):
            for x in (1, 2):
                assert equal_ups(merge_ldet(a, a, x), a)

    def test_keeps_only_qualifying_points(self, demo):
        _, _, u2, u3, *_ = demo
        got = merge_ldet(u3, u2, 2)
        assert flags(got) == [("P", 1, 1)]

    def test_empty_second_operand_raises(self, demo):
        with pytest.raises(EmptySetError):
            merge_ldet(demo[1], empty_ups(demo[0]), 1)


class TestMergeRandom:
    def test_indifferent_column_fills_segment(self, demo):
        grid, _, u2, _, u4, u5 = demo
        got = merge_random(u4, u5, 1)
        assert equal_ups(got, u2)
        assert flags(got) == sorted(
            [("P", 0, 0), ("P", 0, 1), ("P", 0, 2), ("L2", 0, 0), ("L2", 0, 1)]
        )

    def test_disjoint_controller_values_empty(self, demo):
        grid = demo[0]
        a = singleton_ups(grid, pv(2, 3))
        b = singleton_ups(grid, pv(1000, 4))
        assert is_empty(merge_random(a, b, 1))

    def test_player2_indifference_fills_row(self, demo):
        _, _, u2, u3, *_ = demo
        got = merge_random(u2, u3, 2)
        assert flags(got) == sorted([("P", 0, 1), ("P", 1, 1), ("L1", 0, 1)])


class TestMerge:
    def test_indifferent_singletons(self, demo):
        grid, _, u2, _, u4, u5 = demo
        assert equal_ups(merge(u4, u5, 1), u2)

    def test_root_merge(self, demo):
        grid, u1, u2, u3, *_ = demo
        expected = ups_from_flags(
            grid,
            [("P", 0, 1), ("P", 0, 2), ("L2", 0, 1), ("P", 1, 1), ("L1", 0, 1)],
        )
        assert equal_ups(u1, expected)

    def test_identical_singletons(self, demo):
        grid = demo[0]
        p = singleton_ups(grid, pv(2, 4))
        for x in (1, 2):
            assert flags(merge(p, p, x)) == [("P", 0, 1)]

    def test_merge_output_nonempty_and_saturated(self):
        # The one-pass kernels against the operators they fuse, flag for
        # flag, and `min_point` against a scan of the flagged points.
        rng = random.Random(17)
        for case in range(160):
            if case < 80:
                grid = random_grid(rng)
                a = random_saturated_ups(rng, grid)
                b = random_saturated_ups(rng, grid)
            else:
                a, b = edge_case_pair(rng)
            if is_empty(a) or is_empty(b):
                continue
            for x in (1, 2):
                out = merge(a, b, x)
                assert not is_empty(out)
                assert equal_ups(saturate(out), out)
                det = merge_deterministic(a, b, x)
                assert equal_ups(saturate(det), det)
                assert not is_empty(det)
                kept = union(merge_ldet(a, b, x), merge_ldet(b, a, x))
                assert flags(out) == flags(union(merge_random(a, b, x), kept))
                assert flags(det) == flags(kept)
                for u in (a, b):
                    grid = u.grid
                    points = [pv(grid.u1[i], grid.u2[j]) for k, i, j in iter_flags(u) if k == "P"]
                    scan = min(points, key=lambda v: (v.component(x), v.component(3 - x)))
                    assert min_point(u, x) == scan


class TestTranspose:
    def test_involution_and_symmetry(self):
        rng = random.Random(29)
        for case in range(120):
            if case < 60:
                grid = random_grid(rng)
                a = random_saturated_ups(rng, grid)
                b = random_saturated_ups(rng, grid)
            else:
                a, b = edge_case_pair(rng)
            assert equal_ups(transpose(transpose(a)), a)
            if is_empty(a) or is_empty(b):
                continue
            direct = merge(a, b, 2)
            via_transpose = transpose(merge(transpose(a), transpose(b), 1))
            assert equal_ups(direct, via_transpose)
            direct1 = merge(a, b, 1)
            via_transpose1 = transpose(merge(transpose(a), transpose(b), 2))
            assert equal_ups(direct1, via_transpose1)


class TestEquality:
    def test_saturate_of_saturated_equal(self, demo):
        _, u1, *_ = demo
        assert equal_ups(u1, saturate(u1))

    def test_different_points_differ(self, demo):
        grid = demo[0]
        a = ups_from_flags(grid, [("P", 0, 0)])
        b = ups_from_flags(grid, [("P", 0, 1)])
        assert not equal_ups(a, b)

    def test_canonicality_on_random_flag_sets(self):
        # Saturated flags are equal exactly when sampled membership agrees
        # on representative points of every basis element.
        from nashtree.oracle import _rep_points
        from nashtree.ups import FLAG_KINDS, _flag_dims
        from .helpers import random_flags

        rng = random.Random(41)
        for _ in range(60):
            grid = random_grid(rng, max_side=5)
            raw_a = ups_from_flags(grid, random_flags(rng, grid, 0.12))
            raw_b = ups_from_flags(grid, random_flags(rng, grid, 0.12))
            sat_a, sat_b = saturate(raw_a), saturate(raw_b)
            memberships_agree = True
            for kind in FLAG_KINDS:
                rows, cols = _flag_dims(grid, kind)
                for i in range(rows):
                    for j in range(cols):
                        for point in _rep_points(flag_box(grid, kind, i, j)):
                            if brute_contains(raw_a, point) != brute_contains(raw_b, point):
                                memberships_agree = False
            assert equal_ups(sat_a, sat_b) == memberships_agree

    def test_points_behave_as_their_flags(self):
        # A point built from its position, whether by singleton_ups or by a
        # merge whose result is one point, holds no flag int; it must still
        # compare, hash, dump, answer membership and slice like its flags.
        rng = random.Random(24)
        for _ in range(40):
            grid = random_grid(rng, max_side=5)
            i, j = rng.randrange(grid.n1), rng.randrange(grid.n2)
            plain = ups_from_flags(grid, [("P", i, j)])
            point = singleton_ups(grid, pv(grid.u1[i], grid.u2[j]))
            x = rng.randint(1, 2)
            merged = (merge, merge_deterministic)[rng.randrange(2)](point, plain, x)
            probes = [pv(a, b) for a in _probe_values(grid.u1) for b in _probe_values(grid.u2)]
            for u in (point, merged):
                assert u.at == i * grid.n2 + j and plain.at is None
                assert u == plain and plain == u and hash(u) == hash(plain)
                assert u.p == plain.p and serialize_ups(u) == serialize_ups(plain)
                assert [contains(u, q) for q in probes] == [contains(plain, q) for q in probes]
                for y, axis in ((1, grid.u1), (2, grid.u2)):
                    for v in _probe_values(axis):
                        assert cross_section(u, y, v) == cross_section(plain, y, v)
                with pytest.raises(AttributeError):
                    u.at = None


def _probe_values(axis):
    """Every axis value, the midpoints between them and one value beyond each end."""
    mids = [(a + b) / 2 for a, b in zip(axis, axis[1:])]
    return [axis[0] - 1, *axis, *mids, axis[-1] + Fraction(1, 2)]


class TestPlayerIndex:
    @pytest.mark.parametrize("x", [0, 3, -1])
    def test_rejected_on_points_and_on_flag_sets(self, demo, x):
        # u3 and u4 are points in different lanes of both players, which a
        # merge answers from their positions; u1 and u2 go through the kernel.
        grid, u1, u2, u3, u4, _ = demo
        for a, b in ((u3, u4), (u1, u2)):
            for op in (merge, merge_deterministic, merge_ldet, merge_random):
                with pytest.raises(ValueError, match="player index"):
                    op(a, b, x)
            with pytest.raises(ValueError, match="player index"):
                min_point(a, x)
            with pytest.raises(ValueError, match="player index"):
                cross_section(a, x, grid.u1[0])


class TestCrossSection:
    def test_on_grid_column(self, demo):
        _, u1, *_ = demo
        pts, segs = cross_section(u1, 1, Fraction(2))
        assert pts == 0b110  # rows 4 and 100 on the u2 axis
        assert segs == 0b010  # the [4,100] interval

    def test_between_columns(self, demo):
        _, u1, *_ = demo
        pts, segs = cross_section(u1, 1, Fraction(17))
        assert pts == 0b010  # only y = 4 (the horizontal segment crosses)
        assert segs == 0

    def test_row_sections(self, demo):
        _, u1, *_ = demo
        pts, segs = cross_section(u1, 2, Fraction(4))
        assert pts == 0b11
        assert segs == 0b1
        pts, segs = cross_section(u1, 2, Fraction(50))
        assert pts == 0b01  # only x = 2 (the vertical segment crosses)
        assert segs == 0

    def test_outside(self, demo):
        _, u1, *_ = demo
        assert cross_section(u1, 1, Fraction(5000)) == (0, 0)

    def test_random_grids_match_a_per_bit_gather(self):
        rng = random.Random(71)
        for case in range(300):
            grid = random_grid(rng, max_side=9)
            a = random_saturated_ups(rng, grid, 0.3)
            x = 1 + case % 2
            axis, other = (grid.u1, grid.n2) if x == 1 else (grid.u2, grid.n1)
            k = rng.randrange(len(axis))
            on = rng.random() < 0.6 or k + 1 == len(axis)
            v = axis[k] if on else (axis[k] + axis[k + 1]) / 2
            # The flags crossed by the slice: points and segments along the
            # other axis on a grid line, segments and cells between lines.
            if x == 1:
                srcs = (a.p, a.l2) if on else (a.l1, a.d)
            else:
                srcs = (a.p, a.l1) if on else (a.l2, a.d)
            want = []
            for src in srcs:
                bits = 0
                for m in range(other):
                    bit = k * grid.n2 + m if x == 1 else m * grid.n2 + k
                    bits |= (src >> bit & 1) << m
                want.append(bits)
            assert cross_section(a, x, v) == tuple(want)


class TestMeterAndDump:
    def test_one_merge_counted_and_work_bounded(self):
        rng = random.Random(53)
        for _ in range(40):
            grid = random_grid(rng)
            a = random_saturated_ups(rng, grid)
            b = random_saturated_ups(rng, grid)
            if is_empty(a) or is_empty(b):
                continue
            ops = grid.work.flag_ops  # the operands' saturation counts too
            merge(a, b, rng.randint(1, 2))
            assert grid.work.flag_ops - ops <= 96 * max(grid.n1 * grid.n2, 1)

    def test_dump_format(self, demo):
        _, u1, *_ = demo
        assert serialize_ups(u1) == (
            "ups v1\n"
            "grid1 2 1000\n"
            "grid2 3 4 100\n"
            "P 1 2\nP 1 3\nP 2 2\n"
            "L1 1 2\n"
            "L2 1 2\n"
        )

    def test_flag_constructor_validates_ranges(self, demo):
        with pytest.raises(ValueError, match="out of range"):
            ups_from_flags(demo[0], [("P", 2, 0)])
        with pytest.raises(ValueError, match="out of range"):
            ups_from_flags(demo[0], [("L1", 1, 0)])

    def test_single_point_predicate(self, demo):
        grid, u1, *_ = demo
        assert is_single_point(singleton_ups(grid, pv(2, 3)))
        assert not is_single_point(u1)
        assert not is_single_point(empty_ups(grid))
