"""Growth dynamics on plane binary trees and the bridges to fixed targets.

The forward step picks one of the 2n+1 vertices uniformly, splices a fresh
cherry into the edge above it, and reattaches the displaced subtree to a
uniform side.  Run from the three-vertex tree this makes every shape with
n+1 leaves equally likely, and with the new leaf labeled by the step count
it makes every leaf-labeled tree equally likely.

The backward step deletes a uniform leaf together with its sibling edge.
Conditioning the forward chain to hit a fixed target t is the time reversal
of the backward chain started at t, which is how finite bridges are sampled.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, TypeVar

from .kernel import count_embeddings, span_words
from .rng import Rng
from .trees import (
    ALEPH,
    ROOT,
    BinaryTree,
    LabeledBinaryTree,
    Vertex,
    sibling,
    validate_tree,
    word_str,
)

T = TypeVar("T")


# ---------------------------------------------------------------------------
# Forward growth


def forward_moves(t: BinaryTree) -> list[tuple[Vertex, int]]:
    """The 2(2n+1) equally likely (vertex, side) moves out of t."""
    return [(v, side) for v in sorted(t.words) for side in (0, 1)]


def apply_forward_move(t: BinaryTree, v: Vertex, side: int) -> BinaryTree:
    """Splice a cherry into the edge above v, pushing v's subtree to `side`."""
    if v not in t.words:
        raise KeyError(f"{word_str(v)} is not a vertex")
    if side not in (0, 1):
        raise ValueError("side must be 0 or 1")
    k = len(v)
    words = {w for w in t.words if w[:k] != v}
    words.add(v)
    words.add(v + (1 - side,))
    for w in t.words:
        if w[:k] == v:
            words.add(v + (side,) + w[k:])
    return BinaryTree(frozenset(words))


def remy_forward_step(t: BinaryTree, rng: Rng) -> BinaryTree:
    moves = forward_moves(t)
    v, side = moves[rng.integers(len(moves))]
    return apply_forward_move(t, v, side)


def remy_chain(n: int, rng: Rng) -> BinaryTree:
    """Run the chain from the three-vertex tree to n+1 leaves (n >= 1)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    t = ALEPH
    for _ in range(n - 1):
        t = remy_forward_step(t, rng)
    return t


def _aggregate(outcomes: Iterable[tuple[T, Fraction]]) -> dict[T, Fraction]:
    """Law of the outcomes, summing the weights of repeated ones."""
    law: dict[T, Fraction] = {}
    for u, p in outcomes:
        law[u] = law.get(u, Fraction(0)) + p
    return law


def _propagate(
    law: dict[T, Fraction], step_law: Callable[[T], dict[T, Fraction]], steps: int
) -> dict[T, Fraction]:
    """Push `law` through `steps` transitions of the one-step law `step_law`."""
    for _ in range(steps):
        law = _aggregate(
            (u, p * q) for t, p in law.items() for u, q in step_law(t).items()
        )
    return law


def forward_step_law(t: BinaryTree) -> dict[BinaryTree, Fraction]:
    """Exact one-step distribution, aggregating the 2(2n+1) moves."""
    moves = forward_moves(t)
    p = Fraction(1, len(moves))
    return _aggregate((apply_forward_move(t, v, side), p) for v, side in moves)


def chain_push_forward(n: int) -> dict[BinaryTree, Fraction]:
    """Exact law of the chain at n+1 leaves, propagated from the start."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return _propagate({ALEPH: Fraction(1)}, forward_step_law, n - 1)


# ---------------------------------------------------------------------------
# Labeled growth


def apply_labeled_move(
    lt: LabeledBinaryTree, v: Vertex, side: int
) -> LabeledBinaryTree:
    """Forward move on a labeled tree; the fresh leaf gets the next label."""
    t = lt.tree
    new_tree = apply_forward_move(t, v, side)
    k = len(v)
    labels: dict[Vertex, int] = {}
    for w, lab in lt.label_items:
        if w[:k] == v:
            labels[v + (side,) + w[k:]] = lab
        else:
            labels[w] = lab
    labels[v + (1 - side,)] = lt.n_leaves + 1
    return LabeledBinaryTree.from_labels(new_tree, labels)


def labeled_forward_step(lt: LabeledBinaryTree, rng: Rng) -> LabeledBinaryTree:
    moves = forward_moves(lt.tree)
    v, side = moves[rng.integers(len(moves))]
    return apply_labeled_move(lt, v, side)


ALEPH_LABELED = (
    LabeledBinaryTree.from_labels(ALEPH, {(0,): 1, (1,): 2}),
    LabeledBinaryTree.from_labels(ALEPH, {(0,): 2, (1,): 1}),
)


def labeled_chain(n: int, rng: Rng) -> LabeledBinaryTree:
    if n < 1:
        raise ValueError("n must be at least 1")
    lt = ALEPH_LABELED[rng.integers(2)]
    for _ in range(n - 1):
        lt = labeled_forward_step(lt, rng)
    return lt


def labeled_forward_step_law(
    lt: LabeledBinaryTree,
) -> dict[LabeledBinaryTree, Fraction]:
    moves = forward_moves(lt.tree)
    p = Fraction(1, len(moves))
    return _aggregate((apply_labeled_move(lt, v, side), p) for v, side in moves)


def labeled_chain_push_forward(n: int) -> dict[LabeledBinaryTree, Fraction]:
    if n < 1:
        raise ValueError("n must be at least 1")
    law = {ALEPH_LABELED[0]: Fraction(1, 2), ALEPH_LABELED[1]: Fraction(1, 2)}
    return _propagate(law, labeled_forward_step_law, n - 1)


# ---------------------------------------------------------------------------
# Backward (leaf deletion) dynamics


def backward_moves(t: BinaryTree) -> tuple[Vertex, ...]:
    """The equally likely leaves whose deletion defines the backward step."""
    if t.n_leaves < 2:
        raise ValueError("the single-vertex tree has no predecessor")
    return t.leaves


def apply_backward_move(t: BinaryTree, leaf: Vertex) -> BinaryTree:
    """Delete `leaf` and its parent edge, grafting the sibling subtree up."""
    if leaf not in t.words or leaf + (0,) in t.words:
        raise KeyError(f"{word_str(leaf)} is not a leaf")
    if leaf == ROOT:
        raise ValueError("cannot delete the root")
    parent = leaf[:-1]
    sib = sibling(leaf)
    k = len(parent)
    words = {w for w in t.words if w[:k] != parent}
    for w in t.subtree_words(sib):
        words.add(parent + w[k + 1 :])
    return BinaryTree(frozenset(words))


def backward_step(t: BinaryTree, rng: Rng) -> BinaryTree:
    leaves = backward_moves(t)
    return apply_backward_move(t, leaves[rng.integers(len(leaves))])


def backward_step_law(t: BinaryTree) -> dict[BinaryTree, Fraction]:
    leaves = backward_moves(t)
    p = Fraction(1, len(leaves))
    return _aggregate((apply_backward_move(t, leaf), p) for leaf in leaves)


def backward_transition_prob(s: BinaryTree, t: BinaryTree) -> Fraction:
    """P{backward step from t lands on s} = N(s, t) / (m + 2)."""
    if t.level != s.level + 1:
        raise ValueError("leaf counts must differ by exactly one")
    return Fraction(count_embeddings(s, t), s.n_leaves + 1)


def deterministic_unlabel_step(lt: LabeledBinaryTree) -> LabeledBinaryTree:
    """Remove the highest-labeled leaf; remaining labels ride along."""
    n_plus_2 = lt.n_leaves
    if n_plus_2 < 3:
        raise ValueError("need at least three leaves")
    leaf = lt.leaf_of_label[n_plus_2]
    parent = leaf[:-1]
    sib = sibling(leaf)
    k = len(parent)
    new_tree = apply_backward_move(lt.tree, leaf)
    labels: dict[Vertex, int] = {}
    for w, lab in lt.label_items:
        if lab == n_plus_2:
            continue
        if w[:k] == parent:  # lives under the sibling, shifts up one level
            labels[parent + w[k + 1 :]] = lab
        else:
            labels[w] = lab
    return LabeledBinaryTree.from_labels(new_tree, labels)


def extract_choice(lt: LabeledBinaryTree) -> int:
    """1-based rank, in leaf lex order, of the highest-labeled leaf."""
    target = lt.leaf_of_label[lt.n_leaves]
    return lt.tree.leaves.index(target) + 1


# ---------------------------------------------------------------------------
# Bridges to a fixed target


def finite_bridge(target: BinaryTree, rng: Rng) -> list[BinaryTree]:
    """Sample the chain conditioned to pass through `target`.

    Returns the path (T_1, ..., T_m) with T_1 the three-vertex tree and
    T_m = target, produced by running backward steps from the target and
    reversing.
    """
    if target.n_leaves < 2:
        raise ValueError("target needs at least two leaves")
    path = [target]
    t = target
    while t.n_leaves > 2:
        t = backward_step(t, rng)
        path.append(t)
    path.reverse()
    return path


def bridge_marginal_law(target: BinaryTree, k: int) -> dict[BinaryTree, Fraction]:
    """Exact law of the bridge at k+1 leaves, by backward propagation."""
    if not 1 <= k <= target.level:
        raise ValueError("k out of range")
    return _propagate({target: Fraction(1)}, backward_step_law, target.level - k)


# ---------------------------------------------------------------------------
# The coin-tossing spine bridge


@dataclass(frozen=True)
class SpineState:
    """Fair bits along the distinguished ray of the spine bridge."""

    tosses: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(b not in (0, 1) for b in self.tosses):
            raise ValueError("tosses must be bits")

    def __len__(self) -> int:
        return len(self.tosses)


def spine_bridge_step(state: SpineState, rng: Rng) -> SpineState:
    """Insert a fresh fair bit at a uniform position among the n+1 slots."""
    n = len(state.tosses)
    slot = int(rng.integers(n + 1))
    bit = int(rng.integers(2))
    return SpineState(state.tosses[:slot] + (bit,) + state.tosses[slot:])


def spine_tree(state: SpineState) -> BinaryTree:
    """Tree read off the tosses: the spine plus one pendant leaf per level.

    Vertices are all prefixes of the toss word together with the siblings of
    the nonempty ones; with n tosses this has 2n+1 vertices.
    """
    words: set[Vertex] = {ROOT}
    prefix: Vertex = ()
    for b in state.tosses:
        prefix = prefix + (b,)
        words.add(prefix)
        words.add(sibling(prefix))
    return validate_tree(words)


def spine_chain(n: int, rng: Rng) -> SpineState:
    state = SpineState(())
    for _ in range(n):
        state = spine_bridge_step(state, rng)
    return state


# ---------------------------------------------------------------------------
# The bridge driven by fair-coin sequences

DYADIC_BIT_CAP = 64
DEFAULT_RETRY_CAP = 100


class RetryLimitError(RuntimeError):
    """Too many resamples; the driving randomness looks degenerate."""


def dyadic_bridge_sample(
    n: int,
    rng: Rng,
    bit_cap: int = DYADIC_BIT_CAP,
    retry_cap: int = DEFAULT_RETRY_CAP,
) -> BinaryTree:
    """Shape spanned by n+1 independent fair-coin sequences.

    Streams are materialized to `bit_cap` bits; a pair still identical at
    that length has one member redrawn (probability 2^-bit_cap per pair),
    at most `retry_cap` times per stream.
    """
    if n < 1:
        raise ValueError("n must be at least 1")

    def draw() -> tuple[int, ...]:
        return tuple(rng.integers(0, 2, size=bit_cap).tolist())

    streams = [draw() for _ in range(n + 1)]
    redraws = [0] * (n + 1)
    while True:
        # redraw the first stream that repeats an earlier one
        first: dict[tuple[int, ...], int] = {}
        clash = next(
            (i for i, s in enumerate(streams) if first.setdefault(s, i) != i), None
        )
        if clash is None:
            break
        redraws[clash] += 1
        if redraws[clash] > retry_cap:
            raise RetryLimitError(
                f"stream collisions persist past {retry_cap} redraws of stream "
                f"{clash + 1} ({sum(redraws) - 1} redraws in all)"
            )
        streams[clash] = draw()
    return span_words(streams)[0]
