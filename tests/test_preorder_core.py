"""The preorder-shape tree core against a word-set oracle kept here.

The oracle stores a tree as its set of vertex words (the root is (), the
children of w are w + (0,) and w + (1,)) and implements each operation by
rebuilding that set, as the library did before it stored the preorder
shape.  A labeled tree is a word set plus a dict from leaf words to labels,
rewritten word by word on each move, as the library did before it stored
labels in leaf order.  Random trees are grown by splitting leaves of a word
set, so they do not come from the code under test.
"""

import itertools
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from remychain import (
    LabeledBinaryTree,
    SpineState,
    count_embeddings,
    decode_labeled_tree,
    decode_tree,
    encode_labeled_tree,
    encode_tree,
    enumerate_trees,
    h_transform_weights,
    harris_path,
    harris_tree,
    labeled_chain,
    make_rng,
    remy_chain,
    spine_tree,
    validate_tree,
)
from remychain.remy import (
    apply_backward_move,
    apply_forward_move,
    apply_labeled_move,
    backward_moves,
    backward_step,
    deterministic_unlabel_step,
    extract_choice,
    forward_moves,
    labeled_forward_step,
    remy_forward_step,
)

# ---------------------------------------------------------------------------
# The word-set oracle


def is_leaf(words, v):
    return v + (0,) not in words


def oracle_leaves(words):
    return tuple(sorted(v for v in words if is_leaf(words, v)))


def oracle_forward(words, v, side):
    k = len(v)
    out = {w for w in words if w[:k] != v}
    out |= {v, v + (1 - side,)}
    out |= {v + (side,) + w[k:] for w in words if w[:k] == v}
    return frozenset(out)


def oracle_backward(words, leaf):
    parent = leaf[:-1]
    k = len(parent)
    sib = parent + (1 - leaf[-1],)
    out = {w for w in words if w[:k] != parent}
    out |= {parent + w[k + 1 :] for w in words if w[: k + 1] == sib}
    return frozenset(out)


def oracle_leaves_below(words, v):
    return sum(1 for w in oracle_leaves(words) if w[: len(v)] == v)


def oracle_weights(words):
    weights = {}
    for v in sorted(words):
        w = Fraction(1)
        for d in range(len(v)):
            cnt = oracle_leaves_below(words, v[:d])
            w *= Fraction(2 ** (cnt - 1) - 1, 2**cnt - 1)
        weights[v] = w / (2 ** oracle_leaves_below(words, v) - 1)
    return weights


def oracle_encode(words, v=()):
    if is_leaf(words, v):
        return "()"
    return "(" + oracle_encode(words, v + (0,)) + oracle_encode(words, v + (1,)) + ")"


def oracle_heights(words, v=()):
    if is_leaf(words, v):
        return [len(v)]
    left, right = oracle_heights(words, v + (0,)), oracle_heights(words, v + (1,))
    return [len(v), *left, len(v), *right, len(v)]


def oracle_count(s_words, t_words):
    """Embeddings of s into t: h(u, v) counts those of u's subtree landing
    on v or below it, over all pairs of vertex words."""
    memo = {}

    def h(u, v):
        if (u, v) not in memo:
            exact = 0
            if is_leaf(s_words, u):
                exact = 1 if is_leaf(t_words, v) else 0
            elif not is_leaf(t_words, v):
                exact = h(u + (0,), v + (0,)) * h(u + (1,), v + (1,))
            below = 0 if is_leaf(t_words, v) else h(u, v + (0,)) + h(u, v + (1,))
            memo[u, v] = exact + below
        return memo[u, v]

    return h((), ())


def oracle_spine(tosses):
    words = {()}
    prefix = ()
    for b in tosses:
        prefix += (b,)
        words |= {prefix, prefix[:-1] + (1 - b,)}
    return frozenset(words)


def oracle_labeled_forward(labels, v, side):
    k = len(v)
    out = {}
    for w, lab in labels.items():
        if w[:k] == v:
            out[v + (side,) + w[k:]] = lab
        else:
            out[w] = lab
    out[v + (1 - side,)] = len(labels) + 1
    return out


def oracle_unlabel(labels):
    top = len(labels)
    leaf = next(w for w, lab in labels.items() if lab == top)
    parent = leaf[:-1]
    k = len(parent)
    out = {}
    for w, lab in labels.items():
        if lab == top:
            continue
        if w[:k] == parent:  # lives under the sibling, shifts up one level
            out[parent + w[k + 1 :]] = lab
        else:
            out[w] = lab
    return leaf, out


@st.composite
def word_trees(draw, max_leaves=40):
    """A word set grown by splitting leaves picked by the drawn numbers."""
    words = {()}
    leaves = [()]
    for pick in draw(st.lists(st.integers(0, 10**6), max_size=max_leaves - 1)):
        v = leaves.pop(pick % len(leaves))
        words |= {v + (0,), v + (1,)}
        leaves += [v + (0,), v + (1,)]
    return frozenset(words)


@st.composite
def labeled_word_trees(draw, max_leaves=40):
    """A word tree and a drawn bijection from its leaves onto 1..n."""
    words = draw(word_trees(max_leaves))
    leaves = oracle_leaves(words)
    perm = draw(st.permutations(range(1, len(leaves) + 1)))
    return words, dict(zip(leaves, perm))


class FixedDraw:
    """Stands in for a generator whose next integers() draw is `value`."""

    def __init__(self, value):
        self.value = value

    def integers(self, n):
        assert 0 <= self.value < n
        return self.value


# ---------------------------------------------------------------------------
# The core against the oracle


@settings(max_examples=60, deadline=None)
@given(word_trees())
def test_derived_word_views_match_the_word_set(words):
    t = validate_tree(words)
    assert t.words == words
    assert t.leaves == oracle_leaves(words)
    assert t.internal == tuple(sorted(words - set(t.leaves)))
    assert list(t) == sorted(words)
    assert len(t) == len(words) and t.n_leaves == len(t.leaves)
    again = validate_tree(sorted(words, reverse=True))
    assert again == t and hash(again) == hash(t)
    parsed = decode_tree(oracle_encode(words))
    assert parsed == t and hash(parsed) == hash(t)
    other = validate_tree(words | {max(t.leaves) + (0,), max(t.leaves) + (1,)})
    assert other != t


@settings(max_examples=40, deadline=None)
@given(word_trees())
def test_forward_moves_match_the_oracle(words):
    t = validate_tree(words)
    moves = forward_moves(t)
    assert moves == [(v, side) for v in sorted(words) for side in (0, 1)]
    for k, (v, side) in enumerate(moves):
        grown = apply_forward_move(t, v, side)
        assert grown.words == oracle_forward(words, v, side)
        assert remy_forward_step(t, FixedDraw(k)) == grown


@settings(max_examples=40, deadline=None)
@given(word_trees())
def test_backward_moves_match_the_oracle(words):
    t = validate_tree(words)
    if t.n_leaves < 2:
        return
    leaves = backward_moves(t)
    assert leaves == oracle_leaves(words)
    for k, leaf in enumerate(leaves):
        pruned = apply_backward_move(t, leaf)
        assert pruned.words == oracle_backward(words, leaf)
        assert backward_step(t, FixedDraw(k)) == pruned


@settings(max_examples=40, deadline=None)
@given(word_trees())
def test_leaf_counts_and_selection_weights_match_the_oracle(words):
    t = validate_tree(words)
    for v in sorted(words):
        assert t.leaves_below(v) == oracle_leaves_below(words, v)
    if t.n_leaves >= 2:
        assert list(h_transform_weights(t).items()) == list(oracle_weights(words).items())


@settings(max_examples=25, deadline=None)
@given(word_trees(), word_trees(max_leaves=6))
def test_embedding_counts_match_the_oracle(t_words, s_words):
    t, s = validate_tree(t_words), validate_tree(s_words)
    assert count_embeddings(s, t) == oracle_count(s_words, t_words)
    for small in itertools.chain.from_iterable(enumerate_trees(m) for m in range(3)):
        assert count_embeddings(small, t) == oracle_count(small.words, t_words)


@settings(max_examples=60, deadline=None)
@given(word_trees())
def test_codec_and_contour_match_the_oracle(words):
    t = validate_tree(words)
    text = encode_tree(t)
    assert text == oracle_encode(words)
    assert decode_tree(text) == t
    path = harris_path(t)
    assert list(path.heights) == oracle_heights(words)
    assert harris_tree(path) == t


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 1), max_size=40))
def test_spine_tree_matches_the_oracle(tosses):
    assert spine_tree(SpineState(tuple(tosses))).words == oracle_spine(tosses)


def test_growth_never_builds_the_word_set():
    t = remy_chain(400, make_rng(0))
    encode_tree(t)
    assert "words" not in t.__dict__


@settings(max_examples=40, deadline=None)
@given(labeled_word_trees())
def test_labeled_moves_match_the_oracle(tree):
    words, labels = tree
    lt = LabeledBinaryTree.from_labels(validate_tree(words), labels)
    assert lt.labels == labels
    assert lt.leaf_of_label == {lab: v for v, lab in labels.items()}
    assert lt.leaf_labels == tuple(labels[v] for v in oracle_leaves(words))
    assert decode_labeled_tree(encode_labeled_tree(lt)) == lt
    moves = [(v, side) for v in sorted(words) for side in (0, 1)]
    for k, (v, side) in enumerate(moves):
        grown = apply_labeled_move(lt, v, side)
        assert grown.tree.words == oracle_forward(words, v, side)
        assert grown.labels == oracle_labeled_forward(labels, v, side)
        assert labeled_forward_step(lt, FixedDraw(k)) == grown
    if lt.n_leaves < 3:
        return
    leaf, rest = oracle_unlabel(labels)
    peeled = deterministic_unlabel_step(lt)
    assert peeled.tree.words == oracle_backward(words, leaf)
    assert peeled.labels == rest
    assert extract_choice(lt) == oracle_leaves(words).index(leaf) + 1


def test_labeled_growth_never_builds_the_word_index():
    lt = labeled_chain(400, make_rng(0))
    again = decode_labeled_tree(encode_labeled_tree(lt))
    assert again == lt and hash(again) == hash(lt)
    assert "_preorder" not in lt.tree.__dict__
    assert "_preorder" not in again.tree.__dict__
