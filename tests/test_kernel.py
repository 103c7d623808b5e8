"""Embedding counts, transition probabilities, kernels, and the h-transform.

The brute-force subset oracle in conftest is the ground truth for N(s,t);
everything downstream (transition probabilities, kernels, sampling laws)
is checked in exact rationals against independent formulas.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from remychain import (
    ALEPH,
    SINGLETON,
    catalan,
    check_harmonic,
    complete_tree,
    count_embeddings,
    decode_tree,
    double_factorial_odd,
    enumerate_embeddings,
    enumerate_trees,
    forward_step_law,
    h_transform_step_complete,
    h_transform_step_law,
    h_transform_transition_prob,
    h_transform_weights,
    harmonic_h_complete,
    kappa_shape_prob,
    kernel_identity_check,
    kernel_limit_complete,
    make_rng,
    martin_kernel,
    parse_word_set,
    remy_chain,
    sample_spanned_subtree,
    spanned_subtree,
    spanned_subtree_with_map,
    transition_prob,
    validate_tree,
)
from conftest import all_trees_up_to, spanned_shape_counter, subset_count_oracle, three_sigma

LEFT_COMB3 = decode_tree("((()())())")
RIGHT_COMB3 = decode_tree("(()(()()))")


# ---------------------------------------------------------------------------
# The oracle itself, then the DP against it


def test_oracle_sanity_identity():
    for t in all_trees_up_to(5):
        assert subset_count_oracle(t, t) == 1


def test_count_embeddings_matches_oracle_up_to_six_leaves():
    trees = list(all_trees_up_to(6))
    for t in trees:
        for s in trees:
            assert count_embeddings(s, t) == subset_count_oracle(s, t), (
                s.words,
                t.words,
            )


def test_count_embeddings_examples():
    for t in all_trees_up_to(6):
        assert count_embeddings(t, t) == 1
    for t in enumerate_trees(3):
        assert count_embeddings(ALEPH, t) == 6
    assert count_embeddings(LEFT_COMB3, RIGHT_COMB3) == 0
    assert count_embeddings(RIGHT_COMB3, LEFT_COMB3) == 0


def test_count_embeddings_oversized_source_is_zero():
    t3 = enumerate_trees(2)[0]
    assert count_embeddings(t3, ALEPH) == 0


FIGURE_TREE = parse_word_set("e,0,1,00,01,000,001,10,11,100,101")


def test_spanned_subtree_figure_examples():
    got = spanned_subtree(FIGURE_TREE, [(0, 0, 0), (0, 1), (1, 0, 0)])
    assert set(got.leaves) == {(0, 0), (0, 1), (1,)}
    got2 = spanned_subtree(FIGURE_TREE, [(0, 0, 1), (1, 0, 0), (1, 1)])
    assert set(got2.leaves) == {(0,), (1, 0), (1, 1)}


def test_spanned_subtree_full_leafset_is_identity():
    for t in all_trees_up_to(6):
        assert spanned_subtree(t, t.leaves) == t


def test_spanned_subtree_rejects_non_leaf():
    with pytest.raises(ValueError):
        spanned_subtree(FIGURE_TREE, [(), (0, 1)])


def test_spanned_subtree_with_map_sends_leaves_to_leaves():
    shape, leaf_map = spanned_subtree_with_map(FIGURE_TREE, [(0, 0, 0), (0, 1), (1, 0, 0)])
    assert sorted(leaf_map.values()) == sorted(shape.leaves)
    assert set(leaf_map) == {(0, 0, 0), (0, 1), (1, 0, 0)}


def test_sample_spanned_subtree_full_size_returns_t(rng):
    t = enumerate_trees(4)[7]
    assert sample_spanned_subtree(t, 4, rng) == t
    with pytest.raises(ValueError):
        sample_spanned_subtree(t, 5, rng)


def test_enumerate_embeddings_counts_and_distinctness():
    for t in all_trees_up_to(5):
        for s in all_trees_up_to(5):
            embs = enumerate_embeddings(s, t)
            assert len(embs) == count_embeddings(s, t)
    embs = enumerate_embeddings(ALEPH, enumerate_trees(3)[0])
    images = {frozenset(e.mapping[u] for u in ALEPH.leaves) for e in embs}
    assert len(images) == 6


def test_enumerate_embeddings_identity_and_guard():
    t = enumerate_trees(3)[1]
    embs = enumerate_embeddings(t, t)
    assert len(embs) == 1 and all(u == v for u, v in embs[0].pairs)
    with pytest.raises(ValueError):
        enumerate_embeddings(ALEPH, complete_tree(4))


def test_embeddings_preserve_order_structure():
    for t in enumerate_trees(4)[:5]:
        for e in enumerate_embeddings(ALEPH, t):
            f = e.mapping
            for u in ALEPH.leaves:
                assert f[u] in t.leaves
            for u in ALEPH.words:
                for s_dir in (0, 1):
                    child = u + (s_dir,)
                    if child in ALEPH.words:
                        assert f[child][: len(f[u]) + 1] == f[u] + (s_dir,)


# ---------------------------------------------------------------------------
# Transition probabilities and the kernel


def test_transition_prob_diagonal_is_one():
    for t in all_trees_up_to(5):
        assert transition_prob(t, t) == 1


def test_transition_prob_first_step():
    for t in enumerate_trees(2):
        assert transition_prob(ALEPH, t) == Fraction(1, 2)


def test_transition_prob_rows_sum_to_one():
    for m in range(1, 4):
        for s in enumerate_trees(m):
            for n in range(1, 4):
                total = sum(transition_prob(s, t) for t in enumerate_trees(m + n))
                assert total == 1, (m, n)


def test_transition_prob_rejects_shrinking():
    with pytest.raises(ValueError):
        transition_prob(enumerate_trees(2)[0], ALEPH)


def test_martin_kernel_reference_normalization():
    for t in all_trees_up_to(6):
        if t.n_leaves >= 2:
            assert martin_kernel(ALEPH, t) == 1


def test_martin_kernel_diagonal_and_catalan_identity():
    comb = ALEPH
    for m in range(1, 9):
        assert martin_kernel(comb, comb) == catalan(m)
        assert 2**m * double_factorial_odd(m) == catalan(m) * math.factorial(m + 1)
        comb = validate_tree(
            set(comb.words) | {comb.leaves[-1] + (0,), comb.leaves[-1] + (1,)}
        )


def test_martin_kernel_column_sums():
    for t in all_trees_up_to(7):
        for m in range(1, t.level + 1):
            total = sum(martin_kernel(s, t) for s in enumerate_trees(m))
            assert total == catalan(m)


def test_martin_kernel_is_scaled_transition():
    for s in enumerate_trees(2):
        for t in enumerate_trees(4):
            m, n = 2, 2
            assert martin_kernel(s, t) == catalan(m + n) * transition_prob(s, t)


def test_kernel_identity_small():
    for k_tree in enumerate_trees(4)[:6]:
        assert kernel_identity_check(ALEPH, k_tree)
    for i in enumerate_trees(2):
        for k_tree in enumerate_trees(4)[:6]:
            assert kernel_identity_check(i, k_tree)


def test_kernel_identity_negative_control():
    bad = lambda s, t: martin_kernel(s, t) + Fraction(1, 7) * (s.n_leaves - 2)
    k_tree = enumerate_trees(4)[3]
    assert not kernel_identity_check(ALEPH, k_tree, kernel=bad)


# ---------------------------------------------------------------------------
# The complete-tree boundary point


def test_complete_tree_shapes():
    assert complete_tree(1) == ALEPH
    assert len(complete_tree(2)) == 7
    for k in range(1, 11):
        assert complete_tree(k).n_leaves == 2**k
    with pytest.raises(ValueError):
        complete_tree(17)


def test_kappa_shape_prob_values():
    assert kappa_shape_prob(ALEPH) == 1
    for s in enumerate_trees(2):
        assert kappa_shape_prob(s) == Fraction(1, 2)
    values = sorted(kappa_shape_prob(s) for s in enumerate_trees(3))
    assert values == [Fraction(1, 7)] * 4 + [Fraction(3, 7)]
    for m in range(1, 7):
        assert sum(kappa_shape_prob(s) for s in enumerate_trees(m)) == 1


def test_kappa_shape_prob_rejects_singleton():
    with pytest.raises(ValueError):
        kappa_shape_prob(SINGLETON)


def test_kernel_limit_values():
    assert kernel_limit_complete(ALEPH) == 1
    for s in enumerate_trees(2):
        assert kernel_limit_complete(s) == 1
    for m in range(1, 5):
        for s in enumerate_trees(m):
            assert kernel_limit_complete(s) == catalan(m) * kappa_shape_prob(s)


def test_harmonic_h_values():
    assert harmonic_h_complete(ALEPH) == 1
    complete4 = decode_tree("((()())(()()))")
    comb4 = decode_tree("(((()())())())")
    assert harmonic_h_complete(complete4) == Fraction(15, 7)
    assert harmonic_h_complete(comb4) == Fraction(5, 7)


def test_check_harmonic_constant_function():
    one = lambda s: Fraction(1)
    for s in all_trees_up_to(5):
        if s.n_leaves >= 2:
            assert check_harmonic(one, s)


def test_check_harmonic_h_small():
    for m in range(1, 5):
        for s in enumerate_trees(m):
            assert check_harmonic(harmonic_h_complete, s)


def test_check_harmonic_negative_control():
    perturbed = lambda s: harmonic_h_complete(s) * (
        1 if s.n_leaves < 4 else Fraction(8, 7)
    )
    assert not check_harmonic(perturbed, enumerate_trees(2)[0])


# ---------------------------------------------------------------------------
# The h-transform


def test_h_transform_weights_aleph():
    w = h_transform_weights(ALEPH)
    assert w == {(): Fraction(1, 3), (0,): Fraction(1, 3), (1,): Fraction(1, 3)}


def test_h_transform_weights_sum_to_one():
    for m in range(1, 7):
        for s in enumerate_trees(m):
            assert sum(h_transform_weights(s).values()) == 1


def test_h_transform_transition_rows_sum_to_one():
    for m in range(1, 5):
        for s in enumerate_trees(m):
            total = sum(
                h_transform_transition_prob(s, t) for t in enumerate_trees(m + 1)
            )
            assert total == 1, s.words


def test_h_transform_matches_doob_ratio():
    for m in range(1, 4):
        for s in enumerate_trees(m):
            hs = harmonic_h_complete(s)
            for t in enumerate_trees(m + 1):
                expect = transition_prob(s, t) * harmonic_h_complete(t) / hs
                assert h_transform_transition_prob(s, t) == expect


def test_h_transform_symmetric_from_aleph():
    probs = [h_transform_transition_prob(ALEPH, t) for t in enumerate_trees(2)]
    assert probs[0] == probs[1] == Fraction(1, 2)


def test_h_transform_step_law_matches_transition():
    for m in range(1, 4):
        for s in enumerate_trees(m):
            law = h_transform_step_law(s)
            for t in enumerate_trees(m + 1):
                assert law.get(t, Fraction(0)) == h_transform_transition_prob(s, t)


def test_h_transform_step_monte_carlo(rng):
    s = decode_tree("((()())())")
    law = h_transform_step_law(s)
    n = 100_000
    counts: dict = {}
    for _ in range(n):
        t = h_transform_step_complete(s, rng)
        counts[t] = counts.get(t, 0) + 1
    assert set(counts) <= set(law)
    for t, p in law.items():
        assert three_sigma(counts.get(t, 0), n, p), (t.words, counts.get(t, 0), float(p))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2**32 - 1))
def test_dp_matches_oracle_on_random_pairs(n, seed):
    rng = make_rng(seed)
    t = remy_chain(n, rng)
    m = int(rng.integers(1, n + 1))
    s = remy_chain(m, rng)
    if s.n_leaves <= 8 and t.n_leaves <= 8:
        assert count_embeddings(s, t) == subset_count_oracle(s, t)
    p = transition_prob(s, t) if s.n_leaves <= t.n_leaves else None
    if p is not None:
        assert 0 <= p <= 1


# ---------------------------------------------------------------------------
# The paper's closed forms for the complete-tree point, from leaf words


def split_product(s):
    """prod_v (2^{#s(v)-1} - 1) over internal v, #s(v) counting leaves below v."""
    return math.prod(
        2 ** (sum(w[: len(v)] == v for w in s.leaves) - 1) - 1 for v in s.internal
    )


def test_h_transform_transition_prob_closed_form():
    for m in range(1, 6):
        targets = [(t, split_product(t)) for t in enumerate_trees(m + 1)]
        for s in enumerate_trees(m):
            split_s = split_product(s)
            for t, split_t in targets:
                expect = Fraction(split_s, 2 * split_t) * count_embeddings(s, t)
                assert h_transform_transition_prob(s, t) == expect


def test_kappa_shape_prob_closed_form():
    for m in range(1, 7):
        for s in enumerate_trees(m):
            expect = Fraction(math.factorial(m + 1), 2**m * split_product(s))
            assert kappa_shape_prob(s) == expect


def test_h_transform_step_law_is_doob_transform_of_forward_law():
    for m in range(1, 7):
        for s in enumerate_trees(m):
            hs = harmonic_h_complete(s)
            doob = {t: p * harmonic_h_complete(t) / hs for t, p in forward_step_law(s).items()}
            assert h_transform_step_law(s) == doob
