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
from functools import partial
from itertools import compress, count, islice
from typing import Callable, Iterable, Iterator, TypeVar

import numpy as np

from .rng import _BLOCK, Rng, _check_int64, _integers
from .trees import (
    ALEPH,
    ROOT,
    BinaryTree,
    LabeledBinaryTree,
    Vertex,
    _subtree_end,
    leaf_order_shape,
    word_str,
)

T = TypeVar("T")

# Draw bounds for _integers, row k for step k: 4k + 6 moves, -k, (slot, bit).
_FORWARD = np.arange(6, 4 * _BLOCK + 6, 4)
_DESCENT = np.arange(0, -_BLOCK, -1)
_SPINE = np.stack((np.arange(1, _BLOCK + 1), np.full(_BLOCK, 2)), axis=1)


# ---------------------------------------------------------------------------
# Forward growth


def _grow(shape: bytes, i: int, side: int) -> tuple[bytes, int]:
    """Forward move at the vertex with preorder index i.

    A fresh internal vertex takes i's place, with i's subtree on `side` and
    a fresh leaf on the other side.  Returns the new shape and the preorder
    index of the fresh leaf.
    """
    if side:
        return shape[:i] + b"\x01\x00" + shape[i:], i + 1
    end = _subtree_end(shape, i)
    return shape[:i] + b"\x01" + shape[i:end] + b"\x00" + shape[end:], end + 1


def _grow_tree(t: BinaryTree, i: int, side: int) -> BinaryTree:
    return BinaryTree(_grow(t.shape, i, side)[0])


def _grow_labeled(lt: LabeledBinaryTree, i: int, side: int) -> LabeledBinaryTree:
    """_grow_tree, with the next label inserted at the fresh leaf's rank."""
    shape, pos = _grow(lt.tree.shape, i, side)
    labels, rank = lt.leaf_labels, shape.count(0, 0, pos)
    fresh = (len(labels) + 1,)
    return LabeledBinaryTree(BinaryTree(shape), labels[:rank] + fresh + labels[rank:])


def _move_index(t: BinaryTree, v: Vertex, side: int) -> int:
    """Preorder index of v, once the move (v, side) is checked."""
    i = t.index(v)
    if side not in (0, 1):
        raise ValueError("side must be 0 or 1")
    return i


def _draw_move(t: BinaryTree, rng: Rng) -> tuple[int, int]:
    """Uniform (preorder index, side) among the 2(2n+1) moves out of t."""
    return divmod(int(rng.integers(2 * len(t))), 2)


def _move_law(t: BinaryTree, grow: Callable[[int, int], T]) -> dict[T, Fraction]:
    """Law of grow(i, side) over the 2(2n+1) equally likely moves out of t."""
    p = Fraction(1, 2 * len(t))
    return _aggregate((grow(i, side), p) for i in range(len(t)) for side in (0, 1))


def forward_moves(t: BinaryTree) -> list[tuple[Vertex, int]]:
    """The 2(2n+1) equally likely (vertex, side) moves out of t.

    Move k is the vertex with preorder index k // 2, on side k % 2.
    """
    return [(v, side) for v in t for side in (0, 1)]


def apply_forward_move(t: BinaryTree, v: Vertex, side: int) -> BinaryTree:
    """Splice a cherry into the edge above v, pushing v's subtree to `side`."""
    return _grow_tree(t, _move_index(t, v, side), side)


def remy_forward_step(t: BinaryTree, rng: Rng) -> BinaryTree:
    return _grow_tree(t, *_draw_move(t, rng))


def remy_chain(n: int, rng: Rng) -> BinaryTree:
    """Run the chain from the three-vertex tree to n+1 leaves (n >= 1)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    _check_int64(n, 4 * n - 2)
    shape = ALEPH.shape
    for h in _integers(rng, _FORWARD, n - 1):
        shape = _grow(shape, h >> 1, h & 1)[0]
    return BinaryTree(shape)


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
    return _move_law(t, partial(_grow_tree, t))


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
    return _grow_labeled(lt, _move_index(lt.tree, v, side), side)


def labeled_forward_step(lt: LabeledBinaryTree, rng: Rng) -> LabeledBinaryTree:
    return _grow_labeled(lt, *_draw_move(lt.tree, rng))


ALEPH_LABELED = (LabeledBinaryTree(ALEPH, (1, 2)), LabeledBinaryTree(ALEPH, (2, 1)))


def labeled_chain(n: int, rng: Rng) -> LabeledBinaryTree:
    if n < 1:
        raise ValueError("n must be at least 1")
    _check_int64(n, 4 * n - 2)
    draws = _integers(rng, _FORWARD, n, -4)
    shape, labels = ALEPH.shape, list(ALEPH_LABELED[next(draws)].leaf_labels)
    for label, h in enumerate(draws, start=3):
        shape, pos = _grow(shape, h >> 1, h & 1)
        labels.insert(shape.count(0, 0, pos), label)
    return LabeledBinaryTree(BinaryTree(shape), tuple(labels))


def labeled_forward_step_law(
    lt: LabeledBinaryTree,
) -> dict[LabeledBinaryTree, Fraction]:
    return _move_law(lt.tree, partial(_grow_labeled, lt))


def labeled_chain_push_forward(n: int) -> dict[LabeledBinaryTree, Fraction]:
    if n < 1:
        raise ValueError("n must be at least 1")
    law = {ALEPH_LABELED[0]: Fraction(1, 2), ALEPH_LABELED[1]: Fraction(1, 2)}
    return _propagate(law, labeled_forward_step_law, n - 1)


# ---------------------------------------------------------------------------
# Backward (leaf deletion) dynamics


def _prune(shape: bytes, i: int) -> bytes:
    """Backward move at the leaf with preorder index i > 0.

    The leaf and its parent go, and the sibling's subtree takes the
    parent's place.  The parent is the nearest internal j before i with at
    most one whole subtree in shape[j+1:i]: none when the leaf is a left
    child (j = i - 1), its left sibling's when it is a right child.
    """
    j, excess = i - 1, 0  # excess: leaves minus internal vertices in shape[j+1:i]
    while not shape[j] or excess > 1:
        excess += -1 if shape[j] else 1
        j -= 1
    return shape[:j] + shape[j + 1 : i] + shape[i + 1 :]


_LEAF_MARKS = bytes.maketrans(b"\x00\x01", b"\x01\x00")


def _leaf_positions(t: BinaryTree) -> Iterator[int]:
    """Preorder indices of the leaves, in the order of backward_moves."""
    if t.n_leaves < 2:
        raise ValueError("the single-vertex tree has no predecessor")
    return compress(count(), t.shape.translate(_LEAF_MARKS))


def backward_moves(t: BinaryTree) -> tuple[Vertex, ...]:
    """The equally likely leaves whose deletion defines the backward step."""
    vertices = tuple(t)
    return tuple(vertices[i] for i in _leaf_positions(t))


def apply_backward_move(t: BinaryTree, leaf: Vertex) -> BinaryTree:
    """Delete `leaf` and its parent edge, grafting the sibling subtree up."""
    if leaf not in t or not t.is_leaf(leaf):
        raise KeyError(f"{word_str(leaf)} is not a leaf")
    if leaf == ROOT:
        raise ValueError("cannot delete the root")
    return BinaryTree(_prune(t.shape, t.index(leaf)))


def backward_step(t: BinaryTree, rng: Rng) -> BinaryTree:
    leaves = _leaf_positions(t)
    i = next(islice(leaves, int(rng.integers(t.n_leaves)), None))
    return BinaryTree(_prune(t.shape, i))


def backward_step_law(t: BinaryTree) -> dict[BinaryTree, Fraction]:
    p = Fraction(1, t.n_leaves)
    return _aggregate((BinaryTree(_prune(t.shape, i)), p) for i in _leaf_positions(t))


def deterministic_unlabel_step(lt: LabeledBinaryTree) -> LabeledBinaryTree:
    """Remove the highest-labeled leaf; remaining labels ride along."""
    if lt.n_leaves < 3:
        raise ValueError("need at least three leaves")
    labels = lt.leaf_labels
    rank = extract_choice(lt) - 1
    i = next(islice(_leaf_positions(lt.tree), rank, None))
    return LabeledBinaryTree(
        BinaryTree(_prune(lt.tree.shape, i)), labels[:rank] + labels[rank + 1 :]
    )


def extract_choice(lt: LabeledBinaryTree) -> int:
    """1-based rank, in leaf lex order, of the highest-labeled leaf."""
    return lt.leaf_labels.index(lt.n_leaves) + 1


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
    for h in _integers(rng, _DESCENT, t.n_leaves - 2, t.n_leaves):
        t = BinaryTree(_prune(t.shape, next(islice(_leaf_positions(t), h, None))))
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


def _insert_toss(tosses: list[int], rng: Rng) -> None:
    """spine_bridge_step in place on a list of tosses."""
    slot = int(rng.integers(len(tosses) + 1))
    tosses.insert(slot, int(rng.integers(2)))


def spine_bridge_step(state: SpineState, rng: Rng) -> SpineState:
    """Insert a fresh fair bit at a uniform position among the n+1 slots."""
    tosses = list(state.tosses)
    _insert_toss(tosses, rng)
    return SpineState(tuple(tosses))


def spine_tree(state: SpineState) -> BinaryTree:
    """Tree read off the tosses: the spine plus one pendant leaf per level.

    Vertices are all prefixes of the toss word together with the siblings of
    the nonempty ones; with n tosses this has 2n+1 vertices.  In preorder a
    toss 0 (spine goes left) is an internal vertex whose pendant leaf comes
    after the rest of the spine, a toss 1 an internal vertex then its leaf.
    """
    tosses = state.tosses
    head = b"".join(b"\x01\x00" if b else b"\x01" for b in tosses)
    return BinaryTree(head + b"\x00" * (1 + tosses.count(0)))


def spine_chain(n: int, rng: Rng) -> SpineState:
    if n < 0:
        raise ValueError("n must be nonnegative")
    _check_int64(n, n)
    tosses: list[int] = []
    for slot, bit in _integers(rng, _SPINE, n):
        tosses.insert(slot, bit)
    return SpineState(tuple(tosses))


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

    Streams are materialized to `bit_cap` bits, each packed into an int
    with its first bit most significant; a pair still identical at that
    length has one member redrawn (probability 2^-bit_cap per pair), at most
    `retry_cap` times per stream.  Sorted, the ints are the leaves left to
    right, and two neighbours branch at their common-prefix length.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    pad = -bit_cap % 8

    def draw(rows: int) -> list[int]:
        bits = np.packbits(rng.integers(0, 2, size=(rows, bit_cap)), axis=1)
        return [int.from_bytes(row, "big") >> pad for row in bits.tolist()]

    _check_int64(n, n + 1)
    step = max(1, _BLOCK // max(1, bit_cap))  # streams per numpy call
    streams = [s for k in range(0, n + 1, step) for s in draw(min(step, n + 1 - k))]
    redraws = [0] * (n + 1)
    while True:
        # redraw the first stream that repeats an earlier one
        first: dict[int, int] = {}
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
        streams[clash] = draw(1)[0]
    streams.sort()
    depth = [bit_cap - (a ^ b).bit_length() for a, b in zip(streams, streams[1:])]
    return BinaryTree(leaf_order_shape(n + 1, lambda j, k: depth[j] > depth[k]))
