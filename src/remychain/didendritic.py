"""Triple-type arrays for leaf-labeled binary trees.

Any three distinct leaves i, j, k of a leaf-labeled plane binary tree span a
three-leaf shape: one pair (the cherry) branches strictly below the point
where the third leaf splits off, each part on a definite side.  Writing
((x,y),z) for "cherry with x left and y right, hanging left of the root,
with z on the right" and (z,(x,y)) for its mirror, each ordered triple falls
into one of 12 types.  The full table of types determines the labeled tree,
and this module provides the codec in both directions plus the relation
queries, restriction, and the permutation action on arrays.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cmp_to_key
from typing import Iterable, Mapping, Sequence

from .trees import (
    BinaryTree,
    LabeledBinaryTree,
    Order,
    _common_prefix_len,
    leaf_order_shape,
    mrca,
    order_query,
)

_SLOT_LETTERS = "abc"


class DidendriticError(ValueError):
    """An array is malformed or does not describe a tree."""


@dataclass(frozen=True)
class TripleType:
    """Shape of an ordered triple, in terms of slot positions 0, 1, 2.

    cherry = (left leaf, right leaf) slots of the deep pair, outer = the
    remaining slot, cherry_on_left tells which side of the root the cherry
    hangs on.  Rendered as e.g. 'ab_c' for ((a,b),c) or 'c_ab' for (c,(a,b)).
    """

    cherry: tuple[int, int]
    outer: int
    cherry_on_left: bool

    def __post_init__(self) -> None:
        if {self.cherry[0], self.cherry[1], self.outer} != {0, 1, 2}:
            raise ValueError("slots must partition {0, 1, 2}")

    @property
    def token(self) -> str:
        pair = _SLOT_LETTERS[self.cherry[0]] + _SLOT_LETTERS[self.cherry[1]]
        solo = _SLOT_LETTERS[self.outer]
        return f"{pair}_{solo}" if self.cherry_on_left else f"{solo}_{pair}"

    def reslot(self, perm: Sequence[int]) -> "TripleType":
        """Rewrite for a reordered triple; perm maps old slot to new slot."""
        return TripleType(
            (perm[self.cherry[0]], perm[self.cherry[1]]),
            perm[self.outer],
            self.cherry_on_left,
        )

    def __str__(self) -> str:
        return self.token


ALL_TRIPLE_TYPES: tuple[TripleType, ...] = tuple(
    TripleType((x, y), ({0, 1, 2} - {x, y}).pop(), side)
    for x, y in itertools.permutations(range(3), 2)
    for side in (True, False)
)

_TOKEN_TO_TYPE = {tt.token: tt for tt in ALL_TRIPLE_TYPES}
_TYPE_OF_CHERRY = {(*tt.cherry, tt.cherry_on_left): tt for tt in ALL_TRIPLE_TYPES}


def parse_triple_type(token: str) -> TripleType:
    try:
        return _TOKEN_TO_TYPE[token]
    except KeyError:
        raise DidendriticError(f"unknown triple type token {token!r}") from None


def triple_type(lt: LabeledBinaryTree, i: int, j: int, k: int) -> TripleType:
    """Classify the ordered triple (i, j, k) of leaf labels of lt."""
    if len({i, j, k}) != 3:
        raise ValueError("labels must be distinct")
    try:
        a, b, c = words = [lt.leaf_of_label[x] for x in (i, j, k)]
    except KeyError as e:
        raise KeyError(f"label {e.args[0]} not present") from None
    # leaf words are prefix-free, so comparing them compares leaf positions
    return _classify(
        _common_prefix_len(a, b), _common_prefix_len(a, c), _common_prefix_len(b, c), words
    )


def _classify(d01: int, d02: int, d12: int, pos: Sequence) -> TripleType:
    """Type of three leaves in slots 0, 1, 2, given the depth of each pair's
    branch point and each leaf's left-to-right position.

    The deepest pair is the cherry; of the other two depths, which agree,
    neither can exceed it.
    """
    if d01 == d02:
        x, y, z = 1, 2, 0
    elif d01 > d02:
        x, y, z = 0, 1, 2
    else:
        x, y, z = 0, 2, 1
    if pos[x] > pos[y]:
        x, y = y, x
    return _TYPE_OF_CHERRY[x, y, pos[x] < pos[z]]


class DidendriticArray:
    """Complete table of triple types over a finite label set.

    Entries are stored once per unordered triple, keyed by the sorted
    ordering; entry() rewrites the stored type for any other ordering.
    The hash and the decoded tree are computed on first use.
    """

    __slots__ = ("labels", "_entries", "_hash", "_tree")

    def __init__(
        self,
        labels: Iterable[int],
        entries: Mapping[tuple[int, int, int], TripleType],
    ) -> None:
        labs = tuple(sorted(set(labels)))
        if len(labs) < 3:
            raise DidendriticError("need at least three labels")
        table = dict(entries)
        for trip in itertools.combinations(labs, 3):
            if trip not in table:
                raise DidendriticError(f"missing entry for triple {trip}")
        if len(table) != len(labs) * (len(labs) - 1) * (len(labs) - 2) // 6:
            extra = set(table) - set(itertools.combinations(labs, 3))
            raise DidendriticError(f"unexpected entries: {sorted(extra)[:3]}")
        object.__setattr__(self, "labels", labs)
        object.__setattr__(self, "_entries", table)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_tree", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("DidendriticArray is immutable")

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DidendriticArray)
            and self.labels == other.labels
            and self._entries == other._entries
        )

    def __hash__(self) -> int:
        if self._hash is None:
            items = tuple(sorted(self._entries.items()))
            object.__setattr__(self, "_hash", hash((self.labels, items)))
        return self._hash

    def entry(self, i: int, j: int, k: int) -> TripleType:
        """Type of the ordered triple (i, j, k)."""
        ordered = (i, j, k)
        if len(set(ordered)) != 3:
            raise ValueError("labels must be distinct")
        key = tuple(sorted(ordered))
        try:
            stored = self._entries[key]
        except KeyError:
            raise KeyError(f"labels {ordered} not all present") from None
        if key == ordered:
            return stored
        perm = tuple(ordered.index(lab) for lab in key)
        return stored.reslot(perm)

    def absolute(self, i: int, j: int, k: int) -> tuple[int, int, int, bool]:
        """(left cherry label, right cherry label, outer label, cherry left?)."""
        key = tuple(sorted((i, j, k)))
        tt = self._entries[key] if key == (i, j, k) else self.entry(*key)
        return key[tt.cherry[0]], key[tt.cherry[1]], key[tt.outer], tt.cherry_on_left

    def cherry_pair(self, i: int, j: int, k: int) -> frozenset[int]:
        x, y, _, _ = self.absolute(i, j, k)
        return frozenset((x, y))

    def below(self, i: int, j: int, p: int) -> bool:
        """Is leaf p strictly below the branch point of i and j?

        Exactly when p does not sit outside the pair, i.e. the cherry of the
        triple {i, j, p} is not {i, j}.
        """
        if p == i or p == j:
            return False
        return self.cherry_pair(i, j, p) != frozenset((i, j))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DidendriticArray(labels={self.labels}, triples={len(self._entries)})"


def encode(lt: LabeledBinaryTree) -> DidendriticArray:
    """Triple-type table of a labeled tree with at least three leaves.

    Each pair's branch-point depth and each leaf's position are computed
    once; a triple then picks one of the 12 types from those numbers.
    """
    if lt.n_leaves < 3:
        raise ValueError("need at least three leaves")
    leaf_of = lt.leaf_of_label
    labs = sorted(leaf_of)
    pos = {lab: r for r, lab in enumerate(lt.leaf_labels)}
    depth = {
        (a, b): _common_prefix_len(leaf_of[a], leaf_of[b])
        for a, b in itertools.combinations(labs, 2)
    }
    entries = {
        (i, j, k): _classify(
            depth[i, j], depth[i, k], depth[j, k], (pos[i], pos[j], pos[k])
        )
        for i, j, k in itertools.combinations(labs, 3)
    }
    return DidendriticArray(labs, entries)


# ---------------------------------------------------------------------------
# Reconstruction


def _pair_orientation(arr: DidendriticArray, a: int, b: int) -> bool:
    """True when a hangs left of b at their branch point, as the triple of
    a, b and the smallest other label reads it."""
    q = next(x for x in arr.labels if x != a and x != b)
    x, y, z, cherry_on_left = arr.absolute(a, b, q)
    if z == q:
        # cherry is {a, b}: read the orientation straight off
        return x == a
    # q is in the cherry with one of a, b; that one sits on the cherry's side
    partner = x if y == q else y
    return cherry_on_left if partner == a else not cherry_on_left


def decode(arr: DidendriticArray) -> LabeledBinaryTree:
    """Rebuild the labeled tree whose triple types are `arr`.

    Sorts the labels into leaf order and builds the tree with
    leaf_order_shape, where the branch point of leaves j, j+1 is the deeper
    exactly when j is not the outer leaf of the triple (j, k, k+1).  The
    tree so built is encoded and compared with `arr`, so a DidendriticError,
    naming the first disagreeing triple, is raised exactly when no tree has
    this table.
    """
    labs = arr.labels
    if labs != tuple(range(1, len(labs) + 1)):
        raise DidendriticError(f"labels must be 1..{len(labs)}, got {labs}")
    order = sorted(
        labs, key=cmp_to_key(lambda a, b: -1 if _pair_orientation(arr, a, b) else 1)
    )
    shape = leaf_order_shape(
        len(order),
        lambda j, k: arr.absolute(order[j], order[k], order[k + 1])[2] != order[j],
    )
    lt = LabeledBinaryTree(BinaryTree(shape), tuple(order))
    got = encode(lt)
    if got != arr:
        wrong = [
            trip
            for trip in itertools.combinations(labs, 3)
            if got.entry(*trip) != arr.entry(*trip)
        ]
        first = wrong[0]
        raise DidendriticError(
            f"no tree has this table: triple {first} is "
            f"{arr.entry(*first).token} where the tree read off the table has "
            f"{got.entry(*first).token}; {len(wrong)} of "
            f"{len(arr._entries)} triples disagree"
        )
    return lt


# ---------------------------------------------------------------------------
# Relation queries and the group action


def _branch_order(arr: DidendriticArray, h: int, i: int, j: int, k: int) -> Order:
    """order_query between the branch points of (h, i) and (j, k) in the
    decoded tree; a diagonal pair stands for the leaf itself."""
    for lab in (h, i, j, k):
        if lab not in arr.labels:
            raise KeyError(f"label {lab} not present")
    lt = arr._tree
    if lt is None:  # a table no tree has raises here, on every call
        lt = decode(arr)
        object.__setattr__(arr, "_tree", lt)
    t, leaf = lt.tree, lt.leaf_of_label
    return order_query(t, mrca(t, leaf[h], leaf[i]), mrca(t, leaf[j], leaf[k]))


def left_of(arr: DidendriticArray, h: int, i: int, j: int, k: int) -> bool:
    """Is the branch point of (h, i) a strict left ancestor of that of (j, k)?

    Diagonal pairs stand for the leaves themselves: left_of(arr, i, j, i, i)
    asks whether leaf i hangs on the left at the branch point of i and j.
    Raises DidendriticError when no tree has the table `arr`.
    """
    return _branch_order(arr, h, i, j, k) == Order.ANCESTOR_LEFT


def right_of(arr: DidendriticArray, h: int, i: int, j: int, k: int) -> bool:
    """Right-handed companion of left_of."""
    return _branch_order(arr, h, i, j, k) == Order.ANCESTOR_RIGHT


def restrict(arr: DidendriticArray, subset: Iterable[int]) -> DidendriticArray:
    """Sub-array over `subset`, relabeled order-preservingly to 1..|subset|."""
    chosen = sorted(set(subset))
    if len(chosen) < 3:
        raise DidendriticError("need at least three labels")
    missing = [x for x in chosen if x not in arr.labels]
    if missing:
        raise KeyError(f"labels {missing} not present")
    rank = {lab: r + 1 for r, lab in enumerate(chosen)}
    entries = {
        (rank[a], rank[b], rank[c]): arr.entry(a, b, c)
        for a, b, c in itertools.combinations(chosen, 3)
    }
    return DidendriticArray(rank.values(), entries)


def permute(arr: DidendriticArray, sigma: Mapping[int, int]) -> DidendriticArray:
    """Array of the relabeled tree: entry at (i, j, k) is arr's at (si, sj, sk)."""
    if sorted(sigma) != list(arr.labels) or sorted(sigma.values()) != list(arr.labels):
        raise ValueError("sigma must permute the label set")
    entries = {
        trip: arr.entry(sigma[trip[0]], sigma[trip[1]], sigma[trip[2]])
        for trip in itertools.combinations(arr.labels, 3)
    }
    return DidendriticArray(arr.labels, entries)


# ---------------------------------------------------------------------------
# Validation


def axioms_check(arr: DidendriticArray) -> list[str]:
    """Why no tree has the table `arr`; empty exactly for encodings of trees.

    The table is valid exactly when decode succeeds, so the one violation
    listed is decode's: the first triple the decoded tree reads otherwise.
    """
    try:
        decode(arr)
    except DidendriticError as e:
        return [str(e)]
    return []


# ---------------------------------------------------------------------------
# Line format: one 'i j k token' line per sorted triple


def to_lines(arr: DidendriticArray) -> list[str]:
    return [
        f"{a} {b} {c} {arr._entries[a, b, c].token}"
        for a, b, c in itertools.combinations(arr.labels, 3)
    ]


def from_lines(lines: Iterable[str]) -> DidendriticArray:
    entries: dict[tuple[int, int, int], TripleType] = {}
    labels: set[int] = set()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 4:
            raise DidendriticError(f"line {lineno}: expected 'i j k token'")
        try:
            ordered = tuple(int(p) for p in parts[:3])
        except ValueError:
            raise DidendriticError(f"line {lineno}: bad labels") from None
        if len(set(ordered)) != 3:
            raise DidendriticError(f"line {lineno}: labels must be distinct")
        tt = parse_triple_type(parts[3])
        key = tuple(sorted(ordered))
        if key != ordered:
            perm = tuple(key.index(lab) for lab in ordered)
            tt = tt.reslot(perm)
        if key in entries and entries[key] != tt:
            raise DidendriticError(
                f"line {lineno}: entry for triple {key} contradicts an "
                "earlier line"
            )
        entries[key] = tt
        labels.update(ordered)
    if not entries:
        raise DidendriticError("no entries")
    return DidendriticArray(labels, entries)
