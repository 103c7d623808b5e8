"""Embedding counts and the space-time harmonic analysis of the growth chain.

An embedding of a tree s into a tree t maps leaves to leaves injectively,
preserving the left and right ancestor orders.  Such a map is uniquely
determined by the leaf images (internal vertices go to the mrcas of their
leaf sets), so embeddings correspond one to one with leaf subsets of t that
span a copy of s.  The count N(s, t) drives the transition probabilities of
the growth chain, the kernel K normalized at the three-vertex tree, and the
conditioned dynamics below.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable

from .remy import _aggregate, _grow_tree, forward_step_law
from .rng import Rng
from .trees import (
    BinaryTree,
    Vertex,
    catalan,
    enumerate_trees,
    leaf_order_shape,
    _common_prefix_len,
    _leaf_counts,
    _subtree_ends,
    word_str,
)

MAX_ENUMERATE_EMBEDDINGS_LEAVES = 10
MAX_COMPLETE_DEPTH = 16
# count_embeddings remembers this many (s, t) pairs, least recently used out.
COUNT_CACHE_SIZE = 4096


def double_factorial_odd(m: int) -> int:
    """1 * 3 * ... * (2m-1); equals 1 when m = 0."""
    return math.prod(range(1, 2 * m, 2))


def _preorder_children(t: BinaryTree) -> tuple[list[int], list[tuple[int, int] | None]]:
    """Depth and child indices of each vertex of t, in preorder."""
    shape = t.shape
    ends = _subtree_ends(shape)
    depth = [0] * len(shape)
    kids: list[tuple[int, int] | None] = [None] * len(shape)
    for i, internal in enumerate(shape):
        if internal:
            kids[i] = left, right = i + 1, ends[i + 1]
            depth[left] = depth[right] = depth[i] + 1
    return depth, kids


@lru_cache(maxsize=COUNT_CACHE_SIZE)
def count_embeddings(s: BinaryTree, t: BinaryTree) -> int:
    """Number of order-preserving leaf-to-leaf embeddings of s into t.

    Dynamic program over vertex pairs, children before parents: h(u, v)
    counts embeddings of the subtree at u whose root lands on v or anywhere
    below it.  Those landing exactly on v pair the left and right subtrees
    of u with those of v.  Only v at least as deep as u is ever needed.
    """
    if s.n_leaves > t.n_leaves:
        return 0
    s_depth, s_kids = _preorder_children(s)
    t_depth, t_kids = _preorder_children(t)
    rows: list[list[int] | None] = [None] * len(s_kids)  # h(u, .) by t index
    for u in reversed(range(len(s_kids))):
        du, uk = s_depth[u], s_kids[u]
        if uk is not None:
            left, right = rows[uk[0]], rows[uk[1]]
            rows[uk[0]] = rows[uk[1]] = None  # each row is read by its parent only
        row = [0] * len(t_kids)
        for v in reversed(range(len(t_kids))):
            if t_depth[v] < du:
                continue
            vk = t_kids[v]
            if vk is None:
                row[v] = 1 if uk is None else 0
            else:
                a, b = vk
                exact = 0 if uk is None else left[a] * right[b]
                row[v] = exact + row[a] + row[b]
        rows[u] = row
    return rows[0][0]


def spanned_subtree_with_map(
    t: BinaryTree, leaf_set: Iterable[Vertex]
) -> tuple[BinaryTree, dict[Vertex, Vertex]]:
    """Plane tree spanned by a nonempty set of leaves of t.

    Returns the spanned shape together with the map from each chosen leaf of
    t to the leaf of the shape it becomes.  Sorted, the chosen leaves are the
    leaves left to right, and two neighbours branch at the depth of their
    longest common prefix.
    """
    chosen = sorted(set(leaf_set))
    if not chosen:
        raise ValueError("need at least one leaf")
    for v in chosen:
        if v not in t.words or v + (0,) in t.words:
            raise ValueError(f"{word_str(v)} is not a leaf of t")
    depth = [_common_prefix_len(a, b) for a, b in zip(chosen, chosen[1:])]
    shape = BinaryTree(leaf_order_shape(len(chosen), lambda j, k: depth[j] > depth[k]))
    return shape, dict(zip(chosen, shape.leaves))


def spanned_subtree(t: BinaryTree, leaf_set: Iterable[Vertex]) -> BinaryTree:
    return spanned_subtree_with_map(t, leaf_set)[0]


def sample_spanned_subtree(t: BinaryTree, m: int, rng: Rng) -> BinaryTree:
    """Shape spanned by m+1 leaves of t drawn uniformly without replacement."""
    leaves = t.leaves
    if not 0 <= m + 1 <= len(leaves):
        raise ValueError(f"cannot choose {m + 1} of {len(leaves)} leaves")
    idx = rng.choice(len(leaves), size=m + 1, replace=False)
    return spanned_subtree(t, [leaves[i] for i in idx])


@dataclass(frozen=True)
class Embedding:
    """An order-preserving embedding, stored as a vertex-to-vertex map."""

    pairs: tuple[tuple[Vertex, Vertex], ...]

    @property
    def mapping(self) -> dict[Vertex, Vertex]:
        return dict(self.pairs)


def enumerate_embeddings(s: BinaryTree, t: BinaryTree) -> list[Embedding]:
    """All embeddings of s into t, via leaf subsets spanning a copy of s."""
    if t.n_leaves > MAX_ENUMERATE_EMBEDDINGS_LEAVES:
        raise ValueError(
            f"enumeration is guarded at {MAX_ENUMERATE_EMBEDDINGS_LEAVES} leaves"
        )
    out = []
    for subset in itertools.combinations(t.leaves, s.n_leaves):
        shape, mapping = spanned_subtree_with_map(t, subset)
        if shape != s:
            continue
        # leaf of s -> chosen leaf of t, then internal vertices by mrca
        leaf_to_t = {shape_leaf: tl for tl, shape_leaf in mapping.items()}
        pairs: dict[Vertex, Vertex] = dict()
        for u in s.words:
            below = [leaf_to_t[w] for w in s.leaves if w[: len(u)] == u]
            common = below[0]
            for w in below[1:]:
                common = common[: _common_prefix_len(common, w)]
            pairs[u] = common
        out.append(Embedding(tuple(sorted(pairs.items()))))
    return out


# ---------------------------------------------------------------------------
# Transition probabilities and the kernel


def _check_growth_pair(s: BinaryTree, t: BinaryTree) -> tuple[int, int]:
    m = s.level
    n = t.level - s.level
    if n < 0:
        raise ValueError("t must have at least as many leaves as s")
    return m, n


def transition_prob(s: BinaryTree, t: BinaryTree) -> Fraction:
    """P{chain visits t at time level(t) | it is at s at time level(s)}."""
    m, n = _check_growth_pair(s, t)
    denom = 2**n * math.prod(range(2 * m + 1, 2 * (m + n), 2))
    return Fraction(math.factorial(n), denom) * count_embeddings(s, t)


def backward_transition_prob(s: BinaryTree, t: BinaryTree) -> Fraction:
    """P{backward step from t lands on s} = N(s, t) / (m + 2)."""
    if t.level != s.level + 1:
        raise ValueError("leaf counts must differ by exactly one")
    return Fraction(count_embeddings(s, t), s.n_leaves + 1)


def martin_kernel(s: BinaryTree, t: BinaryTree) -> Fraction:
    """K(s, t), the transition probability normalized by the chain's law at t.

    Equals catalan(level(t)) * transition_prob(s, t); the closed form below
    avoids the factorials.  K(ALEPH, t) = 1 for every t.
    """
    m, n = _check_growth_pair(s, t)
    denom = math.prod(range(n + 1, m + n + 2))
    return Fraction(2**m * double_factorial_odd(m), denom) * count_embeddings(s, t)


def kernel_identity_check(
    i: BinaryTree,
    k: BinaryTree,
    kernel: Callable[[BinaryTree, BinaryTree], Fraction] = martin_kernel,
) -> bool:
    """Does sum_j P(i, j) kernel(j, k) equal kernel(i, k) exactly?

    j runs over the level above i; P is the one-step growth law.
    """
    if i.level >= k.level:
        raise ValueError("need level(i) < level(k)")
    total = Fraction(0)
    for j in enumerate_trees(i.level + 1):
        p = transition_prob(i, j)
        if p:
            total += p * kernel(j, k)
    return total == kernel(i, k)


# ---------------------------------------------------------------------------
# The complete-tree boundary point


@lru_cache(maxsize=None)
def complete_tree(k: int) -> BinaryTree:
    """The full binary tree of depth k, with 2^k leaves."""
    if k < 0:
        raise ValueError("negative depth")
    if k > MAX_COMPLETE_DEPTH:
        raise ValueError(f"depth is guarded at {MAX_COMPLETE_DEPTH}")
    shape = b"\x00"
    for _ in range(k):
        shape = b"\x01" + shape + shape
    return BinaryTree(shape)


def _split_product(s: BinaryTree) -> int:
    """prod_v (2^{#s(v)-1} - 1) over the internal vertices v of s."""
    return math.prod(
        2 ** (c - 1) - 1 for c, internal in zip(_leaf_counts(s.shape), s.shape) if internal
    )


def harmonic_h_complete(s: BinaryTree) -> Fraction:
    """The space-time harmonic function of the complete-tree boundary point.

    h(s) = lim_k K(s, complete_tree(k))
         = (2m-1)!! * prod_v (2^{#s(v)-1} - 1)^{-1} over internal vertices v,
    where #s(v) counts leaves below v.  The three-vertex tree gets 1.
    """
    m = s.level
    if m < 1:
        raise ValueError("need at least two leaves")
    return Fraction(double_factorial_odd(m), _split_product(s))


kernel_limit_complete = harmonic_h_complete


def kappa_shape_prob(s: BinaryTree) -> Fraction:
    """Probability that m+1 independent fair-coin sequences span the shape s.

    The harmonic function over the Catalan number: h(s) / C_m.
    """
    return harmonic_h_complete(s) / catalan(s.level)


def check_harmonic(
    h: Callable[[BinaryTree], Fraction], s: BinaryTree
) -> bool:
    """Does the one-step growth law from s preserve h exactly?"""
    law = forward_step_law(s)
    return sum(p * h(t) for t, p in law.items()) == h(s)


# ---------------------------------------------------------------------------
# The chain conditioned to converge to the complete tree


def _selection_weights(s: BinaryTree) -> list[Fraction]:
    """h_transform_weights in preorder, from one pass over the shape."""
    if s.level < 1:
        raise ValueError("need at least two leaves")
    shape = s.shape
    ends = _subtree_ends(shape)
    above = [Fraction(1)] * len(shape)  # product of the factors of proper ancestors
    weights = []
    for i, internal in enumerate(shape):
        cnt = (ends[i] - i + 1) // 2
        if internal:
            above[i + 1] = above[ends[i + 1]] = above[i] * Fraction(
                2 ** (cnt - 1) - 1, 2**cnt - 1
            )
        weights.append(above[i] / (2**cnt - 1))
    total = sum(weights)
    if total != 1:
        raise AssertionError(f"selection weights sum to {total}, not 1")
    return weights


def h_transform_weights(s: BinaryTree) -> dict[Vertex, Fraction]:
    """Vertex selection weights of the conditioned growth step.

    The weight of v multiplies, over proper ancestors u of v, the factor
    (2^{#s(u)-1} - 1) / (2^{#s(u)} - 1), times 1/(2^{#s(v)} - 1) with
    #s(v) = 1 at leaves.  The weights sum to one by telescoping.
    """
    return dict(zip(s, _selection_weights(s)))


def h_transform_step_complete(s: BinaryTree, rng: Rng) -> BinaryTree:
    """One step of the chain conditioned on the complete-tree limit.

    Picks a vertex with the exact weights above, then clones it and
    reattaches its subtree to a fair-coin side, as in the plain growth step.
    """
    probs = [float(w) for w in _selection_weights(s)]
    i = int(rng.choice(len(probs), p=probs))
    side = int(rng.integers(2))
    return _grow_tree(s, i, side)


def h_transform_step_law(s: BinaryTree) -> dict[BinaryTree, Fraction]:
    """Exact one-step law of h_transform_step_complete."""
    return _aggregate(
        (_grow_tree(s, i, side), w / 2)
        for i, w in enumerate(_selection_weights(s))
        for side in (0, 1)
    )


def h_transform_transition_prob(s: BinaryTree, t: BinaryTree) -> Fraction:
    """Doob transform of one growth step by h: P(s, t) h(t) / h(s)."""
    if t.level != s.level + 1:
        raise ValueError("t must have exactly one more leaf than s")
    return transition_prob(s, t) * harmonic_h_complete(t) / harmonic_h_complete(s)
