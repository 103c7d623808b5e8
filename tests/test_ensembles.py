"""Boundary ensembles: point samplers, triple classification, distances.

The statistical tests pin each sampler against an exactly computed law:
interval samples span labeled combs uniformly, coin-stream samples follow
the complete-tree shape weights, and excursion samples on a contour grid
follow the enumerable law of distinct index tuples.
"""

import itertools
import re
from fractions import Fraction

import numpy as np
import pytest

from remychain import (
    DegenerateSampleError,
    DyadicEnsemble,
    DyadicPoint,
    ExcursionEnsemble,
    ExcursionGrid,
    Hierarchy,
    IntervalEnsemble,
    IntervalPoint,
    RetryLimitError,
    SampleView,
    SegmentRelation,
    TripleType,
    UltrametricError,
    attachment_distance,
    axioms_check,
    catalan,
    check_ensemble_axioms,
    chi_square,
    decode_labeled_tree,
    didendritic_array_from_points,
    distance_matrix,
    enumerate_labeled_trees,
    estimate_distance,
    format_grid,
    harris_path,
    kappa_shape_prob,
    leaf_visit_indices,
    make_rng,
    parse_grid,
    random_dyck_path,
    sample_didendritic,
    sample_points,
    tv_distance,
    ultrametric_tree,
)
from remychain import decode as decode_array
from remychain import ensembles as ensembles_module
from remychain.ensembles import _ConditionedLaw, _leaf_order_tree
from remychain.rng import split_rng
from conftest import all_trees_up_to, is_comb, three_sigma

EQ = SegmentRelation.EQUAL
IN = SegmentRelation.CONTAINED
OUT = SegmentRelation.CONTAINS


def ipoint(x: float, aux: float = 0.5) -> IntervalPoint:
    return IntervalPoint(x=x, aux=aux)


def dpoint(bits, aux: float = 0.5) -> DyadicPoint:
    return DyadicPoint(bits=bits, ext_seed=0, aux=aux)


# ---------------------------------------------------------------------------
# Interval ensemble mechanics


def test_interval_compare_orders_minima():
    e = IntervalEnsemble()
    a, b, c = ipoint(0.2), ipoint(0.5), ipoint(0.8)
    assert e.compare(a, b, a, c) == EQ  # both branch at 0.2
    assert e.compare(a, b, b, c) == IN  # 0.2 above 0.5
    assert e.compare(b, c, a, c) == OUT
    assert e.compare(b, c, b, c) == EQ


def test_interval_orientation_table():
    e = IntervalEnsemble()
    shallow_left = ipoint(0.3, aux=0.2)
    shallow_right = ipoint(0.3, aux=0.8)
    deep = ipoint(0.9, aux=0.4)  # deeper point's coin is never consulted
    assert e.left_value(shallow_left, deep) == 1
    assert e.left_value(deep, shallow_left) == 0
    assert e.left_value(shallow_right, deep) == 0
    assert e.left_value(deep, shallow_right) == 1


def test_interval_orientation_antisymmetric_randomly(rng):
    e = IntervalEnsemble()
    for _ in range(500):
        a, b = e.sample_point(rng), e.sample_point(rng)
        assert e.left_value(a, b) + e.left_value(b, a) == 1


def test_interval_crafted_triple_decodes_as_expected():
    e = IntervalEnsemble()
    handles = [ipoint(0.2, aux=0.9), ipoint(0.5, aux=0.1), ipoint(0.8, aux=0.5)]
    arr = didendritic_array_from_points(e, handles)
    assert arr.entry(1, 2, 3).token == "bc_a"
    assert decode_array(arr) == decode_labeled_tree("(((2)(3))(1))")


def test_interval_depth():
    assert ipoint(0.25).depth == 0.75


# ---------------------------------------------------------------------------
# Dyadic ensemble mechanics


def test_dyadic_compare_by_prefixes():
    e = DyadicEnsemble()
    p1 = dpoint([0, 0, 0, 0])
    p2 = dpoint([0, 1, 0, 0])
    p3 = dpoint([1, 0, 0, 0])
    # branch(p1,p2) is the vertex 0; branch(p1,p3) = branch(p2,p3) = root
    assert e.compare(p1, p2, p1, p3) == OUT
    assert e.compare(p1, p3, p2, p3) == EQ
    assert e.compare(p1, p3, p1, p2) == IN
    arr = didendritic_array_from_points(e, [p1, p2, p3])
    assert arr.entry(1, 2, 3).token == "ab_c"
    assert decode_array(arr) == decode_labeled_tree("(((1)(2))(3))")


def test_dyadic_orientation_by_first_differing_bit():
    e = DyadicEnsemble()
    p1, p2 = dpoint([0, 0]), dpoint([0, 1])
    assert e.left_value(p1, p2) == 1
    assert e.left_value(p2, p1) == 0


def test_dyadic_incomparable_branches():
    e = DyadicEnsemble()
    pa, pb = dpoint([0, 0, 1]), dpoint([0, 0, 0])  # branch 00
    pc, pd = dpoint([0, 1, 1]), dpoint([0, 1, 0])  # branch 01
    assert e.compare(pa, pb, pc, pd) == SegmentRelation.INCOMPARABLE


def test_dyadic_identical_streams_hit_the_cap():
    e = DyadicEnsemble(bit_cap=8)
    p1, p2 = dpoint([0] * 8), dpoint([0] * 8)
    with pytest.raises(DegenerateSampleError):
        e.compare(p1, p2, p1, dpoint([1] * 8))


def test_dyadic_points_extend_past_initial_block(rng):
    e = DyadicEnsemble()
    p = e.sample_point(rng)
    first = p.bit(40)
    assert p.bit(40) == first  # extension is cached, not redrawn
    assert p.prefix(3) == tuple(p.bit(i) for i in range(3))


# ---------------------------------------------------------------------------
# Excursion grids


def test_grid_validation():
    with pytest.raises(ValueError):
        ExcursionGrid((0.0, 1.0))  # even length
    with pytest.raises(ValueError):
        ExcursionGrid((0.0, 1.0, 1.0, 1.0, 0.5))  # nonzero end
    with pytest.raises(ValueError):
        ExcursionGrid((0.0, -1.0, 0.0))
    with pytest.raises(ValueError):
        parse_grid("")
    assert ExcursionGrid((0.0, 0.0, 0.0)).heights == (0.0, 0.0, 0.0)


def test_grid_format_parse_round_trip():
    for heights in [(0, 1, 0), (0, 1, 2, 1, 0), (0, 0.5, 0)]:
        g = ExcursionGrid(tuple(float(h) for h in heights))
        assert parse_grid(format_grid(g)) == g
    assert format_grid(ExcursionGrid((0.0, 1.0, 0.0))) == "0 1 0"


def test_is_dyck():
    assert ExcursionGrid((0.0, 1.0, 0.0)).is_dyck
    assert not ExcursionGrid((0.0, 2.0, 0.0)).is_dyck
    assert not ExcursionGrid((0.0, 0.5, 0.0)).is_dyck


def test_random_dyck_path_smallest():
    rng = make_rng(0)
    assert random_dyck_path(1, rng).heights == (0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        random_dyck_path(0, rng)


def test_random_dyck_path_shape(rng):
    for n in (2, 5, 40):
        g = random_dyck_path(n, rng)
        assert len(g.heights) == 2 * n + 1
        assert g.is_dyck


def test_random_dyck_two_steps_fair(rng):
    reps = 10_000
    peaked = sum(
        1 for _ in range(reps) if random_dyck_path(2, rng).heights[2] == 2.0
    )
    assert three_sigma(peaked, reps, Fraction(1, 2))


def test_random_dyck_three_steps_uniform(rng):
    reps = 50_000
    counts: dict = {}
    for _ in range(reps):
        key = random_dyck_path(3, rng).heights
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == catalan(3) == 5
    expected = {k: Fraction(1, 5) for k in counts}
    report = chi_square(counts, expected, significance=0.01, name="dyck-uniformity")
    assert report.passed, report.line()


def test_excursion_support_validation():
    g = ExcursionGrid((0.0, 1.0, 2.0, 1.0, 0.0))
    with pytest.raises(ValueError):
        ExcursionEnsemble(g, support=(0, 0, 1))
    with pytest.raises(ValueError):
        ExcursionEnsemble(g, support=(0, 9))
    with pytest.raises(ValueError):
        ExcursionEnsemble(g).point_at(7)


def test_excursion_compare_on_a_double_peak():
    g = ExcursionGrid((0.0, 1.0, 2.0, 1.0, 2.0, 1.0, 0.0))
    e = ExcursionEnsemble(g)
    p2, p4 = e.point_at(2), e.point_at(4)  # the two peaks
    p1 = e.point_at(1)
    # peaks branch at height 1 (index 3); peak vs index 1 also branches at 1
    assert e.compare(p2, p4, p2, p1) == EQ
    assert e.compare(p2, p4, p4, p1) == EQ
    p0 = e.point_at(0)
    assert e.compare(p2, p4, p2, p0) == OUT
    assert e.left_value(p2, p4) == 1 and e.left_value(p4, p2) == 0


def test_excursion_same_height_same_point():
    # with a dip between them, indices 1 and 3 branch at the root
    g = ExcursionGrid((0.0, 1.0, 0.0, 1.0, 0.0))
    e = ExcursionEnsemble(g)
    a, b = e.point_at(1), e.point_at(3)
    assert e.compare(a, b, e.point_at(0), e.point_at(4)) == EQ
    # with a ridge between them they code one tree point above the root
    g2 = ExcursionGrid((0.0, 1.0, 2.0, 1.0, 0.0))
    e2 = ExcursionEnsemble(g2)
    a2, b2 = e2.point_at(1), e2.point_at(3)
    assert e2.compare(a2, b2, e2.point_at(0), e2.point_at(4)) == OUT
    peak = e2.point_at(2)
    assert e2.compare(a2, peak, b2, peak) == EQ  # a2 and b2 coincide


# ---------------------------------------------------------------------------
# Sampling points and trees


def test_sample_points_rejects_identity_collisions():
    g = ExcursionGrid((0.0, 1.0, 2.0, 1.0, 0.0))
    e = ExcursionEnsemble(g, support=(1, 2, 3))
    rng = make_rng(3)
    pts = sample_points(e, 3, rng)
    assert sorted(p.index for p in pts) == [1, 2, 3]
    with pytest.raises(RetryLimitError):
        sample_points(e, 4, rng)


def test_sample_didendritic_rejects_small_m(rng):
    with pytest.raises(ValueError):
        sample_didendritic(IntervalEnsemble(), 0, rng)


def test_sample_didendritic_two_leaves(rng):
    counts = {1: 0, 2: 0}
    for _ in range(2000):
        lt = sample_didendritic(IntervalEnsemble(), 1, rng)
        assert lt.tree.n_leaves == 2
        key = 1 if lt.leaf_of_label[1] == (0,) else 2
        counts[key] += 1
    assert three_sigma(counts[1], 2000, Fraction(1, 2))


def test_sample_didendritic_labels_and_shape(rng):
    for m in (2, 3, 5):
        lt = sample_didendritic(IntervalEnsemble(), m, rng)
        assert sorted(lt.leaf_of_label) == list(range(1, m + 2))
        assert is_comb(lt.tree)


def test_tent_grid_samples_are_combs(rng):
    tent = ExcursionGrid(tuple(float(min(i, 16 - i)) for i in range(17)))
    e = ExcursionEnsemble(tent)
    for _ in range(200):
        lt = sample_didendritic(e, 3, rng)
        assert is_comb(lt.tree)


def test_all_zero_grid_exhausts_retries(rng):
    e = ExcursionEnsemble(ExcursionGrid((0.0, 0.0, 0.0, 0.0, 0.0)))
    with pytest.raises(RetryLimitError):
        sample_didendritic(e, 2, rng)


def test_retry_limit_names_label_counts_and_triple(rng):
    # Four streams capped at one bit always have two that tie, so every whole
    # draw is degenerate; the tie surfaces while sorting into leaf order.
    with pytest.raises(RetryLimitError) as info:
        sample_didendritic(DyadicEnsemble(bit_cap=1), 3, rng)
    msg = str(info.value)
    assert "past 100 whole redraws of 4 points" in msg
    pair = re.search(r"last degenerate pair \((\d), (\d)\): streams agree", msg)
    assert pair, msg
    i, j = int(pair[1]), int(pair[2])
    assert 1 <= i < j <= 4


def test_endpoint_pair_is_redrawn_not_fatal():
    """The two endpoint indices code the same tree point (the root); a
    sampler that keeps redrawing only the third point would spin forever."""
    g = random_dyck_path(20, make_rng(1))
    e = ExcursionEnsemble(g, support=(0, len(g.heights) - 1, 5, 9))
    hit = 0
    for seed in range(40):
        rng = make_rng(seed)
        lt = sample_didendritic(e, 2, rng)
        assert lt.tree.n_leaves == 3
        hit += 1
    assert hit == 40


def test_sampled_arrays_pass_axioms(rng):
    grid = random_dyck_path(60, rng)
    ensembles = [IntervalEnsemble(), DyadicEnsemble(), ExcursionEnsemble(grid)]
    for e in ensembles:
        for _ in range(20):
            while True:
                pts = sample_points(e, 5, rng)
                try:
                    arr = didendritic_array_from_points(e, pts)
                    break
                except DegenerateSampleError:
                    continue
            assert axioms_check(arr) == []


@pytest.mark.parametrize(
    "make", [IntervalEnsemble, DyadicEnsemble, lambda: ExcursionEnsemble(random_dyck_path(50, make_rng(9)))]
)
def test_ensemble_axioms_hold(make, rng):
    assert check_ensemble_axioms(make(), 2000, rng) == []


def test_same_seed_reproduces_samples():
    grid = random_dyck_path(40, make_rng(2))
    for e in (IntervalEnsemble(), DyadicEnsemble(), ExcursionEnsemble(grid)):
        runs = []
        for _ in range(2):
            rng = make_rng(77)
            runs.append([sample_didendritic(e, 2, rng) for _ in range(50)])
        assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# The leaf-order builder and the exact excursion law


def small_excursions(seed: int) -> list[ExcursionEnsemble]:
    """Grids of at most 11 heights: Dyck and general, full and partial support."""
    rng = make_rng(seed)
    n = int(rng.integers(1, 6))
    dyck = random_dyck_path(n, rng)
    heights = [0.0, *(float(x) for x in rng.integers(0, 4, size=2 * n - 1)), 0.0]
    general = ExcursionGrid(tuple(heights))
    out = []
    for grid in (dyck, general):
        size = len(grid.heights)
        out.append(ExcursionEnsemble(grid))
        if size > 3:
            part = sorted(int(i) for i in rng.choice(size, size=size - 2, replace=False))
            out.append(ExcursionEnsemble(grid, support=part))
    return out


def test_builder_matches_decoded_table_and_flags_exactly_the_degenerate_draws():
    agreed = flagged = 0
    for seed in range(60):
        ensembles = [IntervalEnsemble(), DyadicEnsemble(), DyadicEnsemble(bit_cap=3)]
        ensembles += small_excursions(seed)
        rng = make_rng(1000 + seed)
        for e in ensembles:
            for m in range(1, 13):
                try:
                    handles = sample_points(e, m + 1, rng, retry_cap=10)
                except RetryLimitError:
                    continue  # fewer support indices than points
                try:
                    if m == 1:
                        left = e.left_value(handles[0], handles[1]) == 1
                        expected = (1, 2) if left else (2, 1)
                    else:
                        expected = decode_array(didendritic_array_from_points(e, handles))
                except DegenerateSampleError:
                    with pytest.raises(DegenerateSampleError):
                        _leaf_order_tree(e, handles)
                    flagged += 1
                    continue
                got = _leaf_order_tree(e, handles)
                if m == 1:
                    assert got.leaf_labels == expected
                else:
                    assert got == expected
                agreed += 1
    assert agreed > 1500 and flagged > 1000


# Reference queries that never call branch_depth: each ensemble's four-point
# segment comparison written out from coordinates, bit prefixes or grid
# minima, and the classification of a triple by its three comparisons.


def _ref_lcp(e: DyadicEnsemble, a: DyadicPoint, b: DyadicPoint) -> int:
    if a is b:
        raise ValueError("need two distinct points")
    for k in range(e.bit_cap):
        if a.bit(k) != b.bit(k):
            return k
    raise DegenerateSampleError("streams agree through the cap")


def ref_compare(e, a, b, c, d) -> SegmentRelation:
    if isinstance(e, IntervalEnsemble):
        m1, m2 = min(a.x, b.x), min(c.x, d.x)
        if m1 == m2:
            return EQ
        return IN if m1 < m2 else OUT
    if isinstance(e, DyadicEnsemble):
        w1 = a.prefix(_ref_lcp(e, a, b))
        w2 = c.prefix(_ref_lcp(e, c, d))
        if w1 == w2:
            return EQ
        if len(w1) < len(w2) and w2[: len(w1)] == w1:
            return IN
        if len(w2) < len(w1) and w1[: len(w2)] == w2:
            return OUT
        return SegmentRelation.INCOMPARABLE
    h = e.grid.heights

    def lowest(i, j):  # the branch class of two indices: (height, leftmost argmin)
        lo, hi = sorted((i, j))
        k = min(range(lo, hi + 1), key=lambda x: (h[x], x))
        return h[k], k

    def ancestor_or_equal(c1, c2):
        return c1[0] <= c2[0] and lowest(c1[1], c2[1])[0] >= c1[0]

    c1, c2 = lowest(a.index, b.index), lowest(c.index, d.index)
    up, down = ancestor_or_equal(c1, c2), ancestor_or_equal(c2, c1)
    if up and down:
        return EQ
    if up:
        return IN
    return OUT if down else SegmentRelation.INCOMPARABLE


def ref_classify(e, handles, key) -> TripleType:
    i, j, k = key
    a, b, c = handles[i - 1], handles[j - 1], handles[k - 1]
    r_ij_ik = ref_compare(e, a, b, a, c)
    r_ij_jk = ref_compare(e, a, b, b, c)
    r_ik_jk = ref_compare(e, a, c, b, c)
    if r_ij_ik == EQ and r_ij_jk == IN and r_ik_jk == IN:
        pair, solo = (j, k), i
    elif r_ij_jk == EQ and r_ij_ik == IN and r_ik_jk == OUT:
        pair, solo = (i, k), j
    elif r_ik_jk == EQ and r_ij_ik == OUT and r_ij_jk == OUT:
        pair, solo = (i, j), k
    else:
        raise DegenerateSampleError(f"triple {key}: no two-equal-one-larger pattern")
    p, q = pair
    if e.left_value(handles[p - 1], handles[q - 1]) != 1:
        p, q = q, p
    cherry_on_left = e.left_value(handles[pair[0] - 1], handles[solo - 1]) == 1
    return TripleType((key.index(p), key.index(q)), key.index(solo), cherry_on_left)


def ref_below(e, handles, i, j, p) -> bool:
    if p in (i, j):
        return False
    hi, hj, hp = (handles[x - 1] for x in (i, j, p))
    return ref_compare(e, hi, hj, hi, hp) in (EQ, IN)


def outcome(f, *args):
    try:
        return f(*args)
    except (DegenerateSampleError, ValueError) as err:
        return type(err)


def tie_prone_points(e, rng, count):
    """Points of `e` that tie often: interval coordinates on a coarse grid,
    dyadic streams differing only in their first five bits."""
    if isinstance(e, IntervalEnsemble):
        return [ipoint(float(rng.integers(1, 5)) / 5, float(rng.random())) for _ in range(count)]
    if isinstance(e, DyadicEnsemble):
        return [dpoint([*rng.integers(0, 2, size=5), *[0] * 11]) for _ in range(count)]
    return [e.point_at(int(rng.integers(len(e.grid.heights)))) for _ in range(count)]


def test_depth_queries_match_the_four_point_reference():
    compared = degenerate = 0
    for seed in range(40):
        rng = make_rng(500 + seed)
        ensembles = [IntervalEnsemble(), DyadicEnsemble(), DyadicEnsemble(bit_cap=3)]
        ensembles += small_excursions(seed)
        ensembles.append(ExcursionEnsemble(random_dyck_path(12, rng)))
        for e in ensembles:
            pts = tie_prone_points(e, rng, 6)
            for a, b, c, d in itertools.product(pts[:4], repeat=4):
                assert outcome(e.compare, a, b, c, d) == outcome(ref_compare, e, a, b, c, d)
                compared += 1
            view = SampleView(e, pts)
            for i, j, p in itertools.permutations(view.labels, 3):
                assert outcome(view.below, i, j, p) == outcome(ref_below, e, pts, i, j, p)
            try:
                expected = {
                    key: ref_classify(e, pts, key)
                    for key in itertools.combinations(view.labels, 3)
                }
            except DegenerateSampleError:
                with pytest.raises(DegenerateSampleError):
                    didendritic_array_from_points(e, pts)
                degenerate += 1
                continue
            arr = didendritic_array_from_points(e, pts)
            assert {key: arr.entry(*key) for key in expected} == expected
    assert compared > 70_000 and degenerate > 200


def test_nondegenerate_first_draws_keep_the_previous_output_and_stream():
    """A first draw with no degenerate triple gives the tree its triple-type
    table decodes to, and leaves the stream where the draw left it."""
    grid = random_dyck_path(30, make_rng(4))
    kept = 0
    for e in (IntervalEnsemble(), DyadicEnsemble(), ExcursionEnsemble(grid)):
        for seed in range(40):
            for m in (2, 5, 9):
                before, after = make_rng(seed), make_rng(seed)
                handles = sample_points(e, m + 1, before)
                try:
                    expected = decode_array(didendritic_array_from_points(e, handles))
                except DegenerateSampleError:
                    continue
                assert sample_didendritic(e, m, after) == expected
                assert before.random() == after.random()
                kept += 1
    assert kept > 250


def brute_force_valid_sets(e: ExcursionEnsemble, size: int) -> list[tuple[int, ...]]:
    """Sets of support indices with no degenerate triple, by classifying them all."""
    valid = []
    for chosen in itertools.combinations(e.support, size):
        try:
            didendritic_array_from_points(e, [e.point_at(i) for i in chosen])
        except DegenerateSampleError:
            continue
        valid.append(chosen)
    return valid


def test_conditioned_law_counts_and_unranks_every_valid_set(monkeypatch):
    roadmap = ExcursionEnsemble(parse_grid("0 1 2 1 2 3 2 1 0 1 0"))
    assert _ConditionedLaw(roadmap.grid.heights, roadmap.support, 3).total == 96
    cases = [(roadmap, 3), (roadmap, 4)]
    cases += [(e, size) for seed in range(40) for e in small_excursions(seed) for size in (3, 4, 5)]
    for e, size in cases:
        law = _ConditionedLaw(e.grid.heights, e.support, size)
        valid = brute_force_valid_sets(e, size) if size <= len(e.support) else []
        assert law.total == len(valid)
        if law.total <= 200:
            drawn = []
            for rank in range(law.total):
                monkeypatch.setattr(ensembles_module, "_randbelow", lambda rng, n, r=rank: r)
                drawn.append(tuple(law.draw(None)))
            assert sorted(drawn) == valid


def test_impossible_excursion_sample_fails_at_once():
    # The root class allows two occupied directions and each peak holds one
    # index, so no valid set has more than two points.
    e = ExcursionEnsemble(parse_grid("0 1 0 1 0 1 0"))
    with pytest.raises(RetryLimitError, match="no sample exists"):
        sample_didendritic(e, 4, make_rng(0))


def test_star_plus_bush_grid_is_sampled():
    """200 single peaks and one bush on the root: valid 4-sets hold three
    bush indices, so nearly every first draw degenerates; redrawing one
    point at a time never recovered here."""
    heights = [0] + [1, 0] * 200 + [1, 2, 3, 2, 3, 2, 1, 2, 3, 2, 3, 2, 1, 0]
    e = ExcursionEnsemble(ExcursionGrid(tuple(float(x) for x in heights)))
    assert _ConditionedLaw(e.grid.heights, e.support, 4).total == 64_420
    for seed in range(10):
        lt = sample_didendritic(e, 3, make_rng(seed))
        assert sorted(lt.leaf_labels) == [1, 2, 3, 4]


# Steps (1 up, 0 down) of a Dyck(500) grid from the boundary benchmark, on
# which `ensemble-sample --m 30 --seed 248915710` used to exit 2 after 4.9 s.
BENCH_GRID_STEPS = (
    "df91e6adea67cbcfb3df9c70b938130dceea8544ad81a41cfa91a2d58db8ac37f4ba6bb05ffc82a5"
    "1910ed0670f872b07d7870149bb7b3eea291afcb4fe2e5325e61b54504f44c4082124c1d98ecfe"
    "13390bf3cb703b251a248be967a755c5d28b6014be4f3d8584e3341995dbe782b946b89f13ead5"
    "64f241178014f0"
)


def test_bench_grid_with_degenerate_first_draw_is_sampled():
    bits = bin(int(BENCH_GRID_STEPS, 16))[2:].zfill(1000)
    heights = list(itertools.accumulate((1 if b == "1" else -1 for b in bits), initial=0))
    e = ExcursionEnsemble(ExcursionGrid(tuple(float(x) for x in heights)))
    assert e.grid.is_dyck and len(heights) == 1001
    first, rng = (split_rng(make_rng(248915710), 1)[0] for _ in range(2))
    with pytest.raises(DegenerateSampleError):
        didendritic_array_from_points(e, sample_points(e, 31, first))
    lt = sample_didendritic(e, 30, rng)
    assert sorted(lt.leaf_labels) == list(range(1, 32))


# ---------------------------------------------------------------------------
# Sampled laws against exact ones


def test_interval_law_is_uniform_on_labeled_combs(rng):
    reps = 40_000
    counts: dict = {}
    for _ in range(reps):
        lt = sample_didendritic(IntervalEnsemble(), 3, rng)
        counts[lt] = counts.get(lt, 0) + 1
    combs = [lt for lt in enumerate_labeled_trees(3) if is_comb(lt.tree)]
    assert len(combs) == 96
    expected = {lt: Fraction(1, 96) for lt in combs}
    report = chi_square(counts, expected, significance=0.01, name="interval-combs")
    assert report.passed, report.line()


def test_dyadic_law_matches_complete_tree_weights(rng):
    reps = 40_000
    counts: dict = {}
    for _ in range(reps):
        lt = sample_didendritic(DyadicEnsemble(), 3, rng)
        counts[lt] = counts.get(lt, 0) + 1
    expected = {
        lt: kappa_shape_prob(lt.tree) / 24 for lt in enumerate_labeled_trees(3)
    }
    report = chi_square(counts, expected, significance=0.01, name="dyadic-streams")
    assert report.passed, report.line()


def test_degenerate_dyadic_draws_follow_the_conditioned_law(rng):
    """Four streams capped at three bits tie often; whole redraws give the law
    of the 8^4 equally likely prefix assignments conditioned on no tie: 1680
    of them are valid, over the 120 labeled trees."""
    e = DyadicEnsemble(bit_cap=3)
    prefixes = list(itertools.product((0, 1), repeat=3))
    expected: dict = {}
    for chosen in itertools.product(prefixes, repeat=4):
        try:
            arr = didendritic_array_from_points(e, [dpoint(p) for p in chosen])
        except DegenerateSampleError:
            continue
        lt = decode_array(arr)
        expected[lt] = expected.get(lt, 0) + 1
    assert sum(expected.values()) == 1680
    assert len(expected) == 120
    assert sorted(set(expected.values())) == [8, 38]
    expected = {lt: Fraction(c, 1680) for lt, c in expected.items()}
    reps = 10_000
    counts: dict = {}
    for _ in range(reps):
        lt = sample_didendritic(e, 3, rng)
        counts[lt] = counts.get(lt, 0) + 1
    report = chi_square(counts, expected, significance=0.01, name="capped-streams")
    assert report.passed, report.line()


def exact_contour_law(tree, m: int) -> dict:
    """Law of the labeled subtree of m+1 uniform distinct leaf visits."""
    grid = ExcursionGrid.from_harris(harris_path(tree))
    support = leaf_visit_indices(tree)
    e = ExcursionEnsemble(grid, support=support)
    law: dict = {}
    tuples = list(itertools.permutations(support, m + 1))
    for chosen in tuples:
        handles = [e.point_at(i) for i in chosen]
        lt = decode_array(didendritic_array_from_points(e, handles))
        law[lt] = law.get(lt, Fraction(0)) + Fraction(1, len(tuples))
    return law


def test_excursion_law_matches_exact_enumeration(rng):
    from remychain import decode_tree

    tree = decode_tree("(((()())(()(()())))())")
    grid = ExcursionGrid.from_harris(harris_path(tree))
    e = ExcursionEnsemble(grid, support=leaf_visit_indices(tree))
    expected = exact_contour_law(tree, 3)
    assert sum(expected.values()) == 1
    reps = 40_000
    counts: dict = {}
    for _ in range(reps):
        lt = sample_didendritic(e, 3, rng)
        counts[lt] = counts.get(lt, 0) + 1
    report = chi_square(counts, expected, significance=0.01, name="contour-samples")
    assert report.passed, report.line()


def test_excursion_law_on_a_coarse_grid_is_the_conditioned_law(rng):
    """Three i.i.d. indices of a grid where degenerate triples are common,
    conditioned on being distinct with no degenerate triple: 576 of the
    1331 ordered triples qualify, each equally likely."""
    e = ExcursionEnsemble(parse_grid("0 1 2 1 2 3 2 1 0 1 0"))
    expected: dict = {}
    valid = 0
    for chosen in itertools.permutations(e.support, 3):
        try:
            arr = didendritic_array_from_points(e, [e.point_at(i) for i in chosen])
        except DegenerateSampleError:
            continue
        lt = decode_array(arr)
        expected[lt] = expected.get(lt, 0) + 1
        valid += 1
    assert valid == 576
    expected = {lt: Fraction(c, valid) for lt, c in expected.items()}
    reps = 20_000
    counts: dict = {}
    for _ in range(reps):
        lt = sample_didendritic(e, 2, rng)
        counts[lt] = counts.get(lt, 0) + 1
    report = chi_square(counts, expected, significance=0.01, name="coarse-grid")
    assert report.passed, report.line()


def six_labeled_classes(lt) -> tuple:
    """(solo label, cherry in label order?) for a three-leaf labeled tree."""
    leaf_of = lt.leaf_of_label
    solo = min(leaf_of, key=lambda lab: (len(leaf_of[lab]), lab))
    a, b = sorted(lab for lab in (1, 2, 3) if lab != solo)
    return solo, leaf_of[a] < leaf_of[b]


def test_fixed_long_dyck_is_exchangeable(rng):
    """Given any one excursion, exchangeability of the sampled indices makes
    the six (solo, cherry order) classes uniform; the left/right coordinate
    is a property of the particular excursion and is tested annealed."""
    grid = random_dyck_path(100_000, rng)
    e = ExcursionEnsemble(grid)
    reps = 20_000
    counts: dict = {}
    for _ in range(reps):
        key = six_labeled_classes(sample_didendritic(e, 2, rng))
        counts[key] = counts.get(key, 0) + 1
    law = {k: Fraction(v, reps) for k, v in counts.items()}
    uniform = {(s, o): Fraction(1, 6) for s in (1, 2, 3) for o in (True, False)}
    assert tv_distance(law, uniform) < 0.02


def test_annealed_dyck_law_is_uniform(rng):
    """With a fresh excursion per draw, mirror symmetry restores the fair
    left/right coin, so all twelve labeled three-leaf trees are equally
    likely at every grid size."""
    reps = 12_000
    counts: dict = {}
    for _ in range(reps):
        grid = random_dyck_path(800, rng)
        lt = sample_didendritic(ExcursionEnsemble(grid), 2, rng)
        counts[lt] = counts.get(lt, 0) + 1
    expected = {lt: Fraction(1, 12) for lt in enumerate_labeled_trees(2)}
    report = chi_square(counts, expected, significance=0.01, name="annealed-dyck")
    assert report.passed, report.line()


# ---------------------------------------------------------------------------
# Distances and reconstruction


def contour_view(tree) -> SampleView:
    grid = ExcursionGrid.from_harris(harris_path(tree))
    e = ExcursionEnsemble(grid, support=leaf_visit_indices(tree))
    handles = [e.point_at(i) for i in leaf_visit_indices(tree)]
    return SampleView(e, handles)


def test_sample_view_matches_array_below(rng):
    e = IntervalEnsemble()
    pts = sample_points(e, 6, rng)
    view = SampleView(e, pts)
    arr = didendritic_array_from_points(e, pts)
    for i, j in itertools.permutations(view.labels, 2):
        for p in view.labels:
            assert view.below(i, j, p) == arr.below(i, j, p)


def test_estimate_distance_counts_leaves_below():
    from remychain import decode_tree

    tree = decode_tree("((((()())())())(()()))")  # six leaves
    view = contour_view(tree)
    n = tree.n_leaves
    leaves = tree.leaves
    for a, b in itertools.combinations(range(1, n + 1), 2):
        # hits are the leaves strictly below the branch point, so the
        # estimate is (leaves under the branch vertex - 2) / (n - 2)
        prefix = leaves[a - 1][: _lcp_len(leaves[a - 1], leaves[b - 1])]
        below = sum(1 for w in leaves if w[: len(prefix)] == prefix) - 2
        assert estimate_distance(view, a, b) == below / (n - 2)


def _lcp_len(u, v):
    k = 0
    while k < min(len(u), len(v)) and u[k] == v[k]:
        k += 1
    return k


def test_estimate_distance_cherry_is_zero():
    from remychain import decode_tree

    tree = decode_tree("((()())(()()))")
    view = contour_view(tree)
    assert estimate_distance(view, 1, 2) == 0.0
    assert estimate_distance(view, 3, 4) == 0.0
    assert estimate_distance(view, 1, 3) == 1.0  # root pair: all others below


def test_estimate_distance_validation():
    from remychain import decode_tree

    view = contour_view(decode_tree("((()())())"))
    with pytest.raises(ValueError):
        estimate_distance(view, 1, 1)
    with pytest.raises(ValueError):
        estimate_distance(view, 1, 9)


def test_interval_estimate_matches_max_depth(rng):
    e = IntervalEnsemble()
    anchor_a, anchor_b = ipoint(0.3), ipoint(0.7)
    others = sample_points(e, 2000, rng)
    view = SampleView(e, [anchor_a, anchor_b] + others)
    est = estimate_distance(view, 1, 2)
    truth = max(anchor_a.depth, anchor_b.depth)
    assert abs(est - truth) < 0.04


def test_dyadic_estimate_matches_branch_mass(rng):
    e = DyadicEnsemble()
    p1 = dpoint([0, 0, 0, 1] + [0] * 12)
    p2 = dpoint([0, 0, 1, 1] + [0] * 12)  # branch vertex 00, mass 1/4
    others = sample_points(e, 3000, rng)
    view = SampleView(e, [p1, p2] + others)
    assert abs(estimate_distance(view, 1, 2) - 0.25) < 0.03


def test_distance_matrix_is_symmetric_zero_diagonal(rng):
    e = IntervalEnsemble()
    view = SampleView(e, sample_points(e, 8, rng))
    d = distance_matrix(view)
    assert d.shape == (8, 8)
    assert np.array_equal(d, d.T)
    assert np.all(np.diag(d) == 0)


def test_distance_matrix_matches_pairwise_estimates(rng):
    grid = random_dyck_path(40, rng)
    for e in (IntervalEnsemble(), DyadicEnsemble(), ExcursionEnsemble(grid)):
        for n in (3, 4, 9):
            while True:
                pts = sample_points(e, n, rng)
                try:
                    arr = didendritic_array_from_points(e, pts)
                    break
                except DegenerateSampleError:
                    continue
            view = SampleView(e, pts)
            d = distance_matrix(view)
            for i, j in itertools.permutations(view.labels, 2):
                assert d[i - 1, j - 1] == estimate_distance(view, i, j)
            assert np.array_equal(d, distance_matrix(arr))


def test_distance_matrix_rejects_tied_handles():
    e = IntervalEnsemble()
    view = SampleView(e, [ipoint(0.2), ipoint(0.5), ipoint(0.2, aux=0.9)])
    with pytest.raises(DegenerateSampleError):
        distance_matrix(view)


def test_ultrametric_recovers_every_small_tree():
    for tree in all_trees_up_to(7):
        if tree.n_leaves < 3:
            continue
        view = contour_view(tree)
        h = ultrametric_tree(distance_matrix(view))
        labeled_shape = _labeled_canonical(tree)
        assert h.canonical() == labeled_shape


def _labeled_canonical(tree):
    """Canonical nested shape with leaves labeled in lex order, matching the
    Hierarchy convention (labels 1..n by leaf order)."""

    def walk(prefix):
        if prefix in set(tree.leaves):
            return ("leaf", tree.leaves.index(prefix) + 1)
        kids = [walk(prefix + (0,)), walk(prefix + (1,))]
        return ("node", tuple(sorted(kids)))

    return walk(())


def test_ultrametric_three_point_example():
    d = np.array([[0.0, 0.2, 0.6], [0.2, 0.0, 0.6], [0.6, 0.6, 0.0]])
    h = ultrametric_tree(d)
    assert h.height == 0.6
    assert sorted(c.leaf_labels() for c in h.children) == [[1, 2], [3]]
    inner = next(c for c in h.children if not c.is_leaf)
    assert inner.height == 0.2


def test_ultrametric_detects_violation():
    d = np.array([[0.0, 0.2, 0.6], [0.2, 0.0, 0.3], [0.6, 0.3, 0.0]])
    with pytest.raises(UltrametricError, match="exceeds"):
        ultrametric_tree(d)


def test_ultrametric_matrix_validation():
    with pytest.raises(ValueError, match="symmetric"):
        ultrametric_tree(np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(ValueError, match="diagonal"):
        ultrametric_tree(np.array([[0.1, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError, match="negative"):
        ultrametric_tree(np.array([[0.0, -1.0], [-1.0, 0.0]]))
    with pytest.raises(ValueError, match="square"):
        ultrametric_tree(np.zeros((2, 3)))


def test_ultrametric_tolerance_absorbs_jitter():
    d = np.array([[0.0, 0.2, 0.6], [0.2, 0.0, 0.6 + 1e-12], [0.6, 0.6 + 1e-12, 0.0]])
    d = (d + d.T) / 2
    h = ultrametric_tree(d, tol=1e-9)
    assert sorted(h.leaf_labels()) == [1, 2, 3]


def test_ultrametric_equal_distances_make_one_node():
    h = ultrametric_tree(np.ones((4, 4)) - np.eye(4))
    assert h.height == 1.0
    assert [(c.height, c.label) for c in h.children] == [(0.0, i) for i in (1, 2, 3, 4)]


def test_ultrametric_tied_pairs_stay_two_nodes():
    d = np.array(
        [[0, 0.6, 0.2, 0.6], [0.6, 0, 0.6, 0.2], [0.2, 0.6, 0, 0.6], [0.6, 0.2, 0.6, 0]]
    )
    h = ultrametric_tree(d)
    assert h.height == 0.6
    assert [(c.height, c.leaf_labels()) for c in h.children] == [(0.2, [1, 3]), (0.2, [2, 4])]


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
def test_ultrametric_rejects_bad_tolerance(tol):
    d = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
    with pytest.raises(ValueError, match="tolerance"):
        ultrametric_tree(d, tol=tol)


def comb_matrix(n: int) -> np.ndarray:
    """d(i, j) = max(i, j) off the diagonal: a comb nesting one level per point."""
    labels = np.arange(1, n + 1)
    d = np.maximum.outer(labels, labels).astype(float)
    np.fill_diagonal(d, 0.0)
    return d


def test_ultrametric_validates_a_long_comb():
    n = 1100
    h = ultrametric_tree(comb_matrix(n))
    assert h.height == n and h.leaf_labels() == list(range(1, n + 1))
    bad = comb_matrix(n)
    bad[0, 1] = bad[1, 0] = 3.0  # above max(d(1, 3), d(3, 2)) = 3 only by 0
    ultrametric_tree(bad)
    bad[0, 1] = bad[1, 0] = 3.5
    violation = r"d\(1,2\) = 3.5 exceeds max\(d\(1,3\), d\(3,2\)\) = 3.0"
    with pytest.raises(UltrametricError, match=violation):
        ultrametric_tree(bad)


def test_ultrametric_accepts_what_only_the_triple_scan_accepts():
    # Everything merges at height 1, and d(1, 4) = 1.8 exceeds 1 + tol, yet
    # every triple meets the strong triangle inequality within tol.
    d = np.array(
        [[0, 1, 1.4, 1.8], [1, 0, 1, 1.4], [1.4, 1, 0, 1], [1.8, 1.4, 1, 0]]
    )
    h = ultrametric_tree(d, tol=0.5)
    assert h.height == 1.0 and [c.label for c in h.children] == [1, 2, 3, 4]
    violation = r"d\(1,3\) = 1.4 exceeds max\(d\(1,2\), d\(2,3\)\) = 1.0"
    with pytest.raises(UltrametricError, match=violation):
        ultrametric_tree(d, tol=0.25)


@pytest.mark.parametrize("bad", [float("inf"), float("nan")])
def test_ultrametric_rejects_nonfinite_entries(bad):
    d = np.array([[0.0, bad], [bad, 0.0]])
    with pytest.raises(ValueError, match="finite"):
        ultrametric_tree(d)


def test_hierarchy_queries_on_a_long_comb():
    n = 1100
    h, h2 = ultrametric_tree(comb_matrix(n)), ultrametric_tree(comb_matrix(n))
    assert h == h2 and h is not h2
    text = repr(h)
    assert text.startswith(f"Hierarchy(height={float(n)}, children=(Hierarchy(height={n - 1.0},")
    assert text.count("Hierarchy(") == 2 * n - 1
    shape, first_kids = h.canonical(), []
    while shape[0] == "node":
        (kind, label), shape = shape[1]  # a leaf sorts before a node
        assert kind == "leaf"
        first_kids.append(label)
    assert first_kids == [*range(n, 2, -1), 1] and shape == ("leaf", 2)
    h3 = ultrametric_tree(comb_matrix(n) * (1 + np.eye(n)))  # same matrix
    assert h == h3
    lowered = comb_matrix(n)
    lowered[0, 1] = lowered[1, 0] = 1.5
    assert h != ultrametric_tree(lowered)


def test_hierarchy_repr_and_equality_on_a_small_tree():
    leaf = lambda i: Hierarchy(0.0, (), i)
    h = Hierarchy(2.0, (Hierarchy(1.0, (leaf(1), leaf(2))), leaf(3)))
    assert repr(h) == (
        "Hierarchy(height=2.0, children=(Hierarchy(height=1.0, children=("
        "Hierarchy(height=0.0, children=(), label=1), "
        "Hierarchy(height=0.0, children=(), label=2)), label=None), "
        "Hierarchy(height=0.0, children=(), label=3)), label=None)"
    )
    assert repr(Hierarchy(1.0, (leaf(1),))).endswith("label=1),), label=None)")
    assert h == Hierarchy(2.0, (Hierarchy(1.0, (leaf(1), leaf(2))), leaf(3)))
    assert h != Hierarchy(2.0, (leaf(3), Hierarchy(1.0, (leaf(1), leaf(2)))))
    assert h != Hierarchy(2.0, (Hierarchy(1.0, (leaf(1), leaf(2))), leaf(4)))
    assert h != Hierarchy(2.0, (Hierarchy(1.5, (leaf(1), leaf(2))), leaf(3)))
    assert h.canonical() == ("node", (("leaf", 3), ("node", (("leaf", 1), ("leaf", 2)))))
    assert h != "not a hierarchy"


def test_attachment_distance_is_half_nearest():
    d = np.array([[0.0, 0.2, 0.6], [0.2, 0.0, 0.6], [0.6, 0.6, 0.0]])
    assert attachment_distance(d, 1) == 0.1
    assert attachment_distance(d, 3) == 0.3
    with pytest.raises(ValueError):
        attachment_distance(d, 4)


def test_attachment_monotone_under_submatrix(rng):
    e = IntervalEnsemble()
    view = SampleView(e, sample_points(e, 60, rng))
    d = distance_matrix(view)
    sub = d[:20, :20]
    # the nearest neighbor over fewer candidates cannot be nearer
    assert attachment_distance(sub, 1) >= attachment_distance(d, 1)


def test_attachment_approximates_half_depth(rng):
    e = IntervalEnsemble()
    anchors = [ipoint(0.2), ipoint(0.5), ipoint(0.8)]
    pts = anchors + sample_points(e, 100, rng)
    d = distance_matrix(SampleView(e, pts))
    for i, anchor in enumerate(anchors, start=1):
        assert abs(attachment_distance(d, i) - anchor.depth / 2) < 0.06
