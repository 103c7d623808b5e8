"""Tree representation, enumeration, contour walks, and serialization."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from remychain import (
    ALEPH,
    SINGLETON,
    BinaryTree,
    HarrisPath,
    LabeledBinaryTree,
    Order,
    ParseError,
    SpineState,
    TreeInvariantError,
    catalan,
    count_labeled_trees,
    decode_labeled_tree,
    decode_tree,
    encode_labeled_tree,
    encode_tree,
    enumerate_labeled_trees,
    enumerate_trees,
    format_word_set,
    harris_path,
    harris_tree,
    leaf_visit_indices,
    make_rng,
    mrca,
    order_query,
    parse_tree,
    parse_word_set,
    remy_chain,
    spine_tree,
    to_dot,
    validate_tree,
)
from remychain.trees import leaf_order_shape
from conftest import all_trees_up_to


def test_singleton_and_aleph():
    assert len(SINGLETON) == 1 and SINGLETON.n_leaves == 1
    assert len(ALEPH) == 3 and ALEPH.n_leaves == 2
    assert ALEPH.leaves == ((0,), (1,))
    assert ALEPH.internal == ((),)


def test_leaf_order_shape_rebuilds_every_small_tree():
    # The branch point of adjacent leaves is their mrca; deeper is longer.
    for t in all_trees_up_to(9):
        leaves = t.leaves
        depth = [len(mrca(t, a, b)) for a, b in zip(leaves, leaves[1:])]

        def deeper(j, k):
            # asked only across branch points that all lie below j's
            assert j < k and all(depth[i] > depth[j] for i in range(j + 1, k))
            return depth[j] > depth[k]

        assert leaf_order_shape(t.n_leaves, deeper) == t.shape


def test_validate_rejects_prefix_gap():
    with pytest.raises(TreeInvariantError, match="parent"):
        validate_tree([(), (0, 0), (0, 1), (1,)])


def test_validate_rejects_missing_sibling():
    with pytest.raises(TreeInvariantError, match="sibling"):
        validate_tree([(), (0,)])


def test_validate_rejects_empty():
    with pytest.raises(TreeInvariantError):
        validate_tree([])


def test_enumeration_counts_and_validity():
    for m in range(9):
        trees = enumerate_trees(m)
        assert len(trees) == catalan(m)
        encodings = {encode_tree(t) for t in trees}
        assert len(encodings) == len(trees)
        for t in trees:
            assert t.n_leaves == m + 1
            validate_tree(t.words)


def test_catalan_values():
    assert [catalan(m) for m in range(7)] == [1, 1, 2, 5, 14, 42, 132]


def test_count_labeled_trees_identity():
    for n in range(1, 11):
        assert count_labeled_trees(n) == catalan(n) * __import__("math").factorial(n + 1)


def test_mrca_and_order_consistency():
    for t in all_trees_up_to(7):
        for u in t.words:
            assert mrca(t, u, u) == u
        for u, v in itertools.combinations(t.words, 2):
            w = mrca(t, u, v)
            assert mrca(t, v, u) == w
            q = order_query(t, u, v)
            qr = order_query(t, v, u)
            if q == Order.ANCESTOR_LEFT:
                assert qr == Order.DESCENDANT_LEFT and w == u
            elif q == Order.ANCESTOR_RIGHT:
                assert qr == Order.DESCENDANT_RIGHT and w == u
            elif q == Order.DESCENDANT_LEFT:
                assert qr == Order.ANCESTOR_LEFT and w == v
            elif q == Order.DESCENDANT_RIGHT:
                assert qr == Order.ANCESTOR_RIGHT and w == v
            else:
                assert q == Order.INCOMPARABLE and w not in (u, v)


def test_order_query_equal():
    assert order_query(ALEPH, (0,), (0,)) == Order.EQUAL


def test_leaves_lex_examples():
    assert ALEPH.leaves == ((0,), (1,))
    t = validate_tree([(), (0,), (1,), (1, 0), (1, 1)])
    assert t.leaves == ((0,), (1, 0), (1, 1))
    assert SINGLETON.leaves == ((),)


def test_harris_singleton():
    assert harris_path(SINGLETON).heights == (0,)
    assert harris_tree(HarrisPath((0,))) == SINGLETON


def test_harris_aleph():
    p = harris_path(ALEPH)
    assert p.heights == (0, 1, 0, 1, 0)
    assert harris_tree(p) == ALEPH


def test_harris_round_trip_enumeration():
    for t in all_trees_up_to(7):
        p = harris_path(t)
        assert len(p.heights) == 4 * len(t.internal) + 1
        assert harris_tree(p) == t


def test_deep_spine_harris_walk_without_recursion_limit():
    t = spine_tree(SpineState((0, 1) * 750))
    assert t.n_leaves == 1501
    assert harris_tree(harris_path(t)) == t
    assert len(leaf_visit_indices(t)) == 1501


def test_harris_path_invariants():
    with pytest.raises(ValueError):
        HarrisPath((0, 1, 1, 0))  # flat step
    with pytest.raises(ValueError):
        HarrisPath((0, 1, 0, -1, 0))  # negative
    with pytest.raises(ValueError):
        HarrisPath((0, 1))  # does not end at zero


def test_leaf_visit_indices_align_with_lex_leaves():
    for t in all_trees_up_to(6):
        idx = leaf_visit_indices(t)
        assert len(idx) == t.n_leaves
        heights = harris_path(t).heights
        for pos, leaf in zip(idx, t.leaves):
            assert heights[pos] == len(leaf)


def test_encode_examples():
    assert encode_tree(ALEPH) == "(()())"
    assert encode_tree(SINGLETON) == "()"


def test_encode_decode_round_trip():
    for t in enumerate_trees(6):
        assert decode_tree(encode_tree(t)) == t


def test_decode_reports_position():
    with pytest.raises(ParseError, match="position"):
        decode_tree("(()()")
    with pytest.raises(ParseError):
        decode_tree("")
    with pytest.raises(ParseError):
        decode_tree("(()())x")


def test_word_set_round_trip():
    t = validate_tree([(), (0,), (1,), (0, 0), (0, 1)])
    text = format_word_set(t)
    assert text == "e,0,1,00,01"
    assert parse_word_set(text) == t
    assert parse_tree(text) == t
    assert parse_tree("(()())") == ALEPH


def test_to_dot_mentions_all_vertices():
    dot = to_dot(ALEPH)
    assert "digraph" in dot and dot.count("->") == 2


def test_labeled_tree_validation():
    with pytest.raises(ValueError):
        LabeledBinaryTree.from_labels(ALEPH, {(0,): 1, (1,): 3})  # not 1..2
    with pytest.raises(ValueError):
        LabeledBinaryTree.from_labels(ALEPH, {(0,): 1})  # missing a leaf
    with pytest.raises(ValueError):
        LabeledBinaryTree.from_labels(ALEPH, {(0,): 1, (1,): 1})  # repeat


def test_labeled_round_trip_and_enumeration():
    for m in range(1, 4):
        seen = set()
        for lt in enumerate_labeled_trees(m):
            text = encode_labeled_tree(lt)
            assert decode_labeled_tree(text) == lt
            seen.add(text)
        assert len(seen) == count_labeled_trees(m)


def test_labeled_decode_example():
    lt = decode_labeled_tree("(((1)(3))(2))")
    assert lt.labels == {(0, 0): 1, (0, 1): 3, (1,): 2}


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=2**32 - 1))
def test_random_tree_round_trips(n, seed):
    t = remy_chain(n, make_rng(seed))
    assert t.n_leaves == n + 1
    assert decode_tree(encode_tree(t)) == t
    assert parse_word_set(format_word_set(t)) == t
    assert harris_tree(harris_path(t)) == t
