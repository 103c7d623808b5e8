"""The triple-type table of a leaf-labeled tree: codec, queries, axioms."""

import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from remychain import (
    ALL_TRIPLE_TYPES,
    DidendriticArray,
    DidendriticError,
    Order,
    TripleType,
    axioms_check,
    decode,
    decode_labeled_tree,
    encode,
    enumerate_labeled_trees,
    from_lines,
    labeled_chain,
    left_of,
    make_rng,
    mrca,
    order_query,
    parse_triple_type,
    permute,
    restrict,
    right_of,
    to_lines,
    triple_type,
)
from conftest import relabel, spanned_labeled_subtree, triple_type_oracle

EXAMPLE = decode_labeled_tree("(((1)(2))(3))")
FIVE_LEAF = decode_labeled_tree("((((2)(5))(1))((3)(4)))")


# ---------------------------------------------------------------------------
# Triple types as values


def test_twelve_types_with_distinct_tokens():
    assert len(ALL_TRIPLE_TYPES) == 12
    tokens = {tt.token for tt in ALL_TRIPLE_TYPES}
    assert len(tokens) == 12
    for tt in ALL_TRIPLE_TYPES:
        assert parse_triple_type(tt.token) == tt
        assert str(tt) == tt.token


def test_token_grammar():
    assert TripleType((0, 1), 2, True).token == "ab_c"
    assert TripleType((0, 1), 2, False).token == "c_ab"
    assert TripleType((2, 0), 1, True).token == "ca_b"
    with pytest.raises(DidendriticError):
        parse_triple_type("ab_d")
    with pytest.raises(DidendriticError):
        parse_triple_type("abc")


def test_triple_type_slot_validation():
    with pytest.raises(ValueError):
        TripleType((0, 0), 2, True)


def test_reslot_identity_and_involution():
    for tt in ALL_TRIPLE_TYPES:
        assert tt.reslot((0, 1, 2)) == tt
        swap = (1, 0, 2)
        assert tt.reslot(swap).reslot(swap) == tt


# ---------------------------------------------------------------------------
# Classifying triples of a tree


def test_triple_type_example():
    tt = triple_type(EXAMPLE, 1, 2, 3)
    assert tt.token == "ab_c"
    assert tt.cherry == (0, 1) and tt.outer == 2 and tt.cherry_on_left


def test_triple_type_reorder_consistency():
    for lt in enumerate_labeled_trees(3):
        for perm in itertools.permutations((1, 2, 3, 4), 3):
            tt = triple_type(lt, *perm)
            left = perm[tt.cherry[0]]
            right = perm[tt.cherry[1]]
            outer = perm[tt.outer]
            base = triple_type(lt, *sorted(perm))
            key = tuple(sorted(perm))
            assert key[base.cherry[0]] == left
            assert key[base.cherry[1]] == right
            assert key[base.outer] == outer
            assert base.cherry_on_left == tt.cherry_on_left


def test_triple_type_matches_oracle_small():
    for n in (2, 3):
        for lt in enumerate_labeled_trees(n):
            labels = range(1, n + 2)
            for i, j, k in itertools.combinations(labels, 3):
                tt = triple_type(lt, i, j, k)
                ordered = (i, j, k)
                got = (
                    ordered[tt.cherry[0]],
                    ordered[tt.cherry[1]],
                    ordered[tt.outer],
                    tt.cherry_on_left,
                )
                assert got == triple_type_oracle(lt, i, j, k)


def test_triple_type_matches_oracle_five_leaves(rng):
    for _ in range(200):
        lt = labeled_chain(4, rng)
        for i, j, k in itertools.combinations(range(1, 6), 3):
            tt = triple_type(lt, i, j, k)
            ordered = (i, j, k)
            got = (
                ordered[tt.cherry[0]],
                ordered[tt.cherry[1]],
                ordered[tt.outer],
                tt.cherry_on_left,
            )
            assert got == triple_type_oracle(lt, i, j, k)


def test_triple_type_rejects_bad_labels():
    with pytest.raises(ValueError):
        triple_type(EXAMPLE, 1, 1, 2)
    with pytest.raises(KeyError):
        triple_type(EXAMPLE, 1, 2, 9)


# ---------------------------------------------------------------------------
# The array: storage, entry lookup, relation queries


def test_entry_agrees_with_triple_type_for_all_orderings():
    arr = encode(FIVE_LEAF)
    for perm in itertools.permutations(range(1, 6), 3):
        assert arr.entry(*perm) == triple_type(FIVE_LEAF, *perm)


def test_entry_validation():
    arr = encode(EXAMPLE)
    with pytest.raises(ValueError):
        arr.entry(1, 1, 2)
    with pytest.raises(KeyError):
        arr.entry(1, 2, 7)


def test_array_requires_complete_table():
    with pytest.raises(DidendriticError):
        DidendriticArray([1, 2, 3, 4], {(1, 2, 3): ALL_TRIPLE_TYPES[0]})
    with pytest.raises(DidendriticError):
        DidendriticArray([1, 2], {})


def test_absolute_and_cherry_pair():
    arr = encode(EXAMPLE)
    assert arr.absolute(1, 2, 3) == (1, 2, 3, True)
    assert arr.cherry_pair(3, 1, 2) == frozenset((1, 2))


def test_below_matches_tree_geometry():
    for lt in enumerate_labeled_trees(4):
        arr = encode(lt)
        leaf_of = lt.leaf_of_label
        for i, j in itertools.permutations(arr.labels, 2):
            branch = mrca(lt.tree, leaf_of[i], leaf_of[j])
            for p in arr.labels:
                if p in (i, j):
                    assert not arr.below(i, j, p)
                    continue
                geometric = leaf_of[p][: len(branch)] == branch
                assert arr.below(i, j, p) == geometric


def test_left_of_matches_order_query():
    for n in (2, 3):
        for lt in enumerate_labeled_trees(n):
            arr = encode(lt)
            leaf_of = lt.leaf_of_label
            for h, i in itertools.combinations(arr.labels, 2):
                for j, k in itertools.combinations(arr.labels, 2):
                    if {h, i} == {j, k}:
                        continue
                    b1 = mrca(lt.tree, leaf_of[h], leaf_of[i])
                    b2 = mrca(lt.tree, leaf_of[j], leaf_of[k])
                    rel = order_query(lt.tree, b1, b2)
                    expect_left = rel == Order.ANCESTOR_LEFT
                    expect_right = rel == Order.ANCESTOR_RIGHT
                    assert left_of(arr, h, i, j, k) == expect_left
                    assert right_of(arr, h, i, j, k) == expect_right


def test_left_of_diagonal_leaf_side():
    arr = encode(EXAMPLE)
    # leaf 1 hangs left at the branch point of (1, 2); leaf 2 hangs right
    assert left_of(arr, 1, 2, 1, 1) and not right_of(arr, 1, 2, 1, 1)
    assert right_of(arr, 1, 2, 2, 2) and not left_of(arr, 1, 2, 2, 2)
    for i, j in itertools.permutations(arr.labels, 2):
        one_side = left_of(arr, i, j, i, i) ^ right_of(arr, i, j, i, i)
        assert one_side


def test_left_of_rejects_unknown_label():
    with pytest.raises(KeyError):
        left_of(encode(EXAMPLE), 1, 2, 5, 5)


# ---------------------------------------------------------------------------
# Encode / decode


def test_encode_requires_three_leaves():
    with pytest.raises(ValueError):
        encode(decode_labeled_tree("((1)(2))"))


@pytest.mark.parametrize("n", [2, 3])
def test_decode_inverts_encode_exhaustively(n):
    for lt in enumerate_labeled_trees(n):
        assert decode(encode(lt)) == lt


def test_decode_inverts_encode_five_and_six_leaves(rng):
    for n in (4, 5):
        for _ in range(60):
            lt = labeled_chain(n, rng)
            assert decode(encode(lt)) == lt


def test_encode_is_injective():
    for n in (2, 3):
        trees = list(enumerate_labeled_trees(n))
        arrays = {encode(lt) for lt in trees}
        assert len(arrays) == len(trees)


def test_all_minimal_arrays_are_consistent():
    for tt in ALL_TRIPLE_TYPES:
        arr = DidendriticArray([1, 2, 3], {(1, 2, 3): tt})
        assert axioms_check(arr) == []
        lt = decode(arr)
        assert triple_type(lt, 1, 2, 3) == tt
        assert encode(lt) == arr


def test_axioms_hold_for_every_encoding(rng):
    for lt in enumerate_labeled_trees(3):
        assert axioms_check(encode(lt)) == []
    for _ in range(25):
        assert axioms_check(encode(labeled_chain(6, rng))) == []


def test_corrupted_entries_are_detected():
    """Overwrite one stored triple with each wrong type in turn.

    A corrupted table either fails the axioms or happens to be the honest
    table of some other tree; in the latter case decode must invert encode.
    Almost every single-entry corruption of a five-label table is
    inconsistent, and every inconsistent one must be caught somewhere.
    """
    arr = encode(FIVE_LEAF)
    base = {trip: arr.entry(*trip) for trip in itertools.combinations(arr.labels, 3)}
    total = 0
    flagged = 0
    for trip in base:
        for tt in ALL_TRIPLE_TYPES:
            if tt == base[trip]:
                continue
            total += 1
            bad_entries = dict(base)
            bad_entries[trip] = tt
            bad = DidendriticArray(arr.labels, bad_entries)
            violations = axioms_check(bad)
            if violations:
                flagged += 1
                try:
                    out = decode(bad)
                except DidendriticError:
                    continue
                assert encode(out) != bad
            else:
                assert encode(decode(bad)) == bad
    assert total == 110
    assert flagged >= 99  # at least 90 percent of corruptions caught


def test_decode_is_sound_on_every_single_corruption_of_four_labels():
    """Every table decode accepts re-encodes to itself, and axioms_check
    passes exactly the tables decode accepts."""
    total = 0
    for lt in enumerate_labeled_trees(3):
        arr = encode(lt)
        base = {trip: arr.entry(*trip) for trip in itertools.combinations(arr.labels, 3)}
        for trip in base:
            for tt in ALL_TRIPLE_TYPES:
                if tt == base[trip]:
                    continue
                total += 1
                bad = DidendriticArray(arr.labels, {**base, trip: tt})
                try:
                    out = decode(bad)
                except DidendriticError:
                    assert axioms_check(bad) != []
                    continue
                assert encode(out) == bad
                assert axioms_check(bad) == []
    assert total == 5280


def test_decode_error_names_first_disagreeing_triple():
    bad = from_lines(["1 2 3 c_ab", "1 2 4 ab_c", "1 3 4 ab_c", "2 3 4 ab_c"])
    message = (
        "no tree has this table: triple (1, 3, 4) is ab_c where the tree read "
        "off the table has ba_c; 2 of 4 triples disagree"
    )
    with pytest.raises(DidendriticError, match=re.escape(message)):
        decode(bad)
    assert axioms_check(bad) == [message]


def test_left_of_rejects_table_no_tree_has():
    bad = from_lines(["1 2 3 c_ab", "1 2 4 ab_c", "1 3 4 ab_c", "2 3 4 ab_c"])
    with pytest.raises(DidendriticError):
        left_of(bad, 1, 2, 1, 1)
    with pytest.raises(DidendriticError):
        right_of(bad, 1, 2, 3, 4)


def test_order_queries_decode_each_array_once(monkeypatch):
    from remychain import didendritic

    calls = []

    def counting_decode(arr):
        calls.append(arr)
        return decode(arr)

    monkeypatch.setattr(didendritic, "decode", counting_decode)
    lt = labeled_chain(9, make_rng(3))
    arr = encode(lt)
    t, leaf = lt.tree, lt.leaf_of_label
    for h, i in itertools.permutations(range(1, 11), 2):
        expect = order_query(t, mrca(t, leaf[h], leaf[i]), leaf[h])
        assert left_of(arr, h, i, h, h) == (expect == Order.ANCESTOR_LEFT)
        assert right_of(arr, h, i, h, h) == (expect == Order.ANCESTOR_RIGHT)
    assert len(calls) == 1
    bad = from_lines(["1 2 3 c_ab", "1 2 4 ab_c", "1 3 4 ab_c", "2 3 4 ab_c"])
    for _ in range(3):
        with pytest.raises(DidendriticError):
            left_of(bad, 1, 2, 1, 1)
    assert len(calls) == 4


# ---------------------------------------------------------------------------
# Restriction and the relabeling action


def test_restrict_full_set_is_identity():
    arr = encode(FIVE_LEAF)
    assert restrict(arr, arr.labels) == arr


def test_restrict_matches_spanned_subtree():
    for lt in enumerate_labeled_trees(3):
        arr = encode(lt)
        for subset in itertools.combinations(arr.labels, 3):
            sub = spanned_labeled_subtree(lt, subset)
            assert restrict(arr, subset) == encode(sub)


def test_restrict_matches_spanned_subtree_six_leaves(rng):
    for _ in range(30):
        lt = labeled_chain(5, rng)
        arr = encode(lt)
        for size in (3, 4, 5):
            subset = sorted(
                int(x) for x in rng.choice(arr.labels, size=size, replace=False)
            )
            sub = spanned_labeled_subtree(lt, subset)
            assert restrict(arr, subset) == encode(sub)


def test_restrict_is_transitive(rng):
    lt = labeled_chain(5, rng)
    arr = encode(lt)
    mid = restrict(arr, [1, 2, 4, 5, 6])
    # labels renumber to 1..5; {2,4,5} picks original {2,5,6}
    assert restrict(mid, [2, 4, 5]) == restrict(arr, [2, 5, 6])


def test_restrict_validation():
    arr = encode(EXAMPLE)
    with pytest.raises(DidendriticError):
        restrict(arr, [1, 2])
    with pytest.raises(KeyError):
        restrict(arr, [1, 2, 9])


def test_permute_matches_relabeled_tree():
    sigmas = list(itertools.permutations(range(1, 5)))
    for lt in itertools.islice(enumerate_labeled_trees(3), 30):
        arr = encode(lt)
        for img in sigmas:
            sigma = dict(zip(range(1, 5), img))
            inverse = {v: k for k, v in sigma.items()}
            assert encode(relabel(lt, sigma)) == permute(arr, inverse)
            assert decode(permute(arr, sigma)) == relabel(lt, inverse)


def test_permute_is_a_group_action(rng):
    lt = labeled_chain(4, rng)
    arr = encode(lt)
    labels = list(arr.labels)
    for _ in range(20):
        sig_img = list(rng.permutation(labels))
        tau_img = list(rng.permutation(labels))
        sigma = {a: int(b) for a, b in zip(labels, sig_img)}
        tau = {a: int(b) for a, b in zip(labels, tau_img)}
        composed = {x: sigma[tau[x]] for x in labels}
        assert permute(permute(arr, sigma), tau) == permute(arr, composed)
    identity = {x: x for x in labels}
    assert permute(arr, identity) == arr


def test_permute_rejects_non_permutation():
    arr = encode(EXAMPLE)
    with pytest.raises(ValueError):
        permute(arr, {1: 1, 2: 2, 3: 5})


# ---------------------------------------------------------------------------
# The line format


def test_lines_round_trip():
    arr = encode(FIVE_LEAF)
    assert from_lines(to_lines(arr)) == arr


def test_lines_accept_any_ordering_comments_and_blanks():
    arr = encode(EXAMPLE)
    lines = ["# triple table", "", "3 1 2 " + arr.entry(3, 1, 2).token]
    assert from_lines(lines) == arr


def test_lines_reject_contradiction():
    with pytest.raises(DidendriticError, match="contradicts"):
        from_lines(["1 2 3 ab_c", "2 1 3 ab_c"])


def test_lines_agreeing_duplicates_are_fine():
    arr = from_lines(["1 2 3 ab_c", "2 1 3 ba_c"])
    assert arr.entry(1, 2, 3).token == "ab_c"


def test_lines_reject_malformed_input():
    with pytest.raises(DidendriticError):
        from_lines(["1 2 ab_c"])
    with pytest.raises(DidendriticError):
        from_lines(["1 2 x ab_c"])
    with pytest.raises(DidendriticError):
        from_lines(["1 2 2 ab_c"])
    with pytest.raises(DidendriticError):
        from_lines(["1 2 3 zz_q"])
    with pytest.raises(DidendriticError):
        from_lines([])
    with pytest.raises(DidendriticError):
        from_lines(["1 2 3 ab_c", "1 2 4 ab_c"])  # incomplete (missing triples)


# ---------------------------------------------------------------------------
# Exchangeability of the growth chain, seen through the encoding


@pytest.mark.parametrize("n", [2, 3])
def test_chain_array_law_is_exchangeable(n):
    from remychain import labeled_chain_push_forward

    law = labeled_chain_push_forward(n)
    arr_law: dict = {}
    for lt, p in law.items():
        arr_law[encode(lt)] = arr_law.get(encode(lt), 0) + p
    labels = list(range(1, n + 2))
    for img in itertools.permutations(labels):
        sigma = dict(zip(labels, img))
        for arr, p in arr_law.items():
            assert arr_law[permute(arr, sigma)] == p


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=9), st.integers(min_value=0, max_value=2**32 - 1))
def test_random_trees_round_trip(n, seed):
    rng = make_rng(seed)
    lt = labeled_chain(n, rng)
    arr = encode(lt)
    assert decode(arr) == lt
    assert from_lines(to_lines(arr)) == arr
