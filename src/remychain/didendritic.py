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
from typing import Iterable, Mapping, Sequence

from .trees import LabeledBinaryTree, Vertex, _common_prefix_len, validate_tree

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
        words = [lt.leaf_of_label[x] for x in (i, j, k)]
    except KeyError as e:
        raise KeyError(f"label {e.args[0]} not present") from None
    return _classify_words(words)


def _classify_words(words: Sequence[Vertex]) -> TripleType:
    """TripleType of three leaf words, slots following their given order."""
    pairs = [(0, 1), (0, 2), (1, 2)]
    depths = [_common_prefix_len(words[a], words[b]) for a, b in pairs]
    deepest = max(range(3), key=lambda idx: depths[idx])
    x, y = pairs[deepest]
    outer = ({0, 1, 2} - {x, y}).pop()
    d = depths[deepest]
    if words[x][d] == 1:
        x, y = y, x
    root_depth = min(depths)
    return TripleType((x, y), outer, cherry_on_left=words[x][root_depth] == 0)


class DidendriticArray:
    """Complete table of triple types over a finite label set.

    Entries are stored once per unordered triple, keyed by the sorted
    ordering; entry() rewrites the stored type for any other ordering.
    """

    __slots__ = ("labels", "_entries", "_hash")

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
    """Triple-type table of a labeled tree with at least three leaves."""
    if lt.n_leaves < 3:
        raise ValueError("need at least three leaves")
    leaf_of = lt.leaf_of_label
    entries = {
        trip: _classify_words([leaf_of[x] for x in trip])
        for trip in itertools.combinations(sorted(leaf_of), 3)
    }
    return DidendriticArray(leaf_of.keys(), entries)


# ---------------------------------------------------------------------------
# Reconstruction


def _leafsets(arr: DidendriticArray) -> dict[frozenset[int], frozenset[int]]:
    """For each label pair, every label at or below the pair's branch point."""
    out: dict[frozenset[int], frozenset[int]] = {}
    labs = arr.labels
    for i, j in itertools.combinations(labs, 2):
        below = {i, j}
        below.update(p for p in labs if arr.below(i, j, p))
        out[frozenset((i, j))] = frozenset(below)
    return out


def _pair_orientation(arr: DidendriticArray, a: int, b: int, q: int) -> bool:
    """True when a hangs left of b at their branch point, per witness q."""
    x, y, z, cherry_on_left = arr.absolute(a, b, q)
    if z == q:
        # cherry is {a, b}: read the orientation straight off
        return x == a
    # q is in the cherry with one of a, b; that one sits on the cherry's side
    partner = x if y == q else y
    partner_left = cherry_on_left
    return partner_left if partner == a else not partner_left


def _split_sides(
    arr: DidendriticArray, a: int, b: int, members: frozenset[int], witness: int
) -> tuple[set[int], set[int]]:
    """Partition `members` into left and right of the branch point of (a, b).

    `witness` orients the pair itself when no third member is available.
    """
    q = next(iter(members - {a, b}), witness)
    a_left = _pair_orientation(arr, a, b, q)
    left, right = (set(), set())
    (left if a_left else right).add(a)
    (right if a_left else left).add(b)
    for p in members - {a, b}:
        x, y, z, _ = arr.absolute(a, b, p)
        if z == p:
            raise DidendriticError(
                f"triple {tuple(sorted((a, b, p)))} contradicts "
                f"containment below the pair ({a}, {b})"
            )
        partner = x if y == p else y
        if partner == a:
            (left if a_left else right).add(p)
        else:
            (right if a_left else left).add(p)
    return left, right


def decode(arr: DidendriticArray) -> LabeledBinaryTree:
    """Rebuild the labeled tree whose triple types are `arr`.

    Raises DidendriticError when no tree is consistent with the table.
    """
    labs = arr.labels
    if labs != tuple(range(1, len(labs) + 1)):
        raise DidendriticError(f"labels must be 1..{len(labs)}, got {labs}")
    leafsets = _leafsets(arr)
    by_set: dict[frozenset[int], tuple[int, int]] = {}
    for pair, ls in leafsets.items():
        by_set.setdefault(ls, tuple(sorted(pair)))  # keep one witness pair

    words: set[Vertex] = set()
    labels: dict[Vertex, int] = {}

    def build(members: frozenset[int], prefix: Vertex) -> None:
        words.add(prefix)
        if len(members) == 1:
            labels[prefix] = next(iter(members))
            return
        pair = by_set.get(members)
        if pair is None:
            raise DidendriticError(
                f"no pair of labels spans {sorted(members)}; "
                "the containment structure is not tree-like"
            )
        a, b = pair
        left, right = _split_sides(arr, a, b, members, witness=_witness(labs, a, b))
        build(frozenset(left), prefix + (0,))
        build(frozenset(right), prefix + (1,))

    build(frozenset(labs), ())
    tree = validate_tree(words)
    return LabeledBinaryTree.from_labels(tree, labels)


def _witness(labs: Sequence[int], a: int, b: int) -> int:
    for q in labs:
        if q != a and q != b:
            return q
    raise DidendriticError("need at least three labels")


# ---------------------------------------------------------------------------
# Relation queries and the group action


def _below_side(arr: DidendriticArray, h: int, i: int, j: int, k: int) -> str | None:
    """'L' or 'R' when the class of (j, k) sits strictly below that side of
    the branch point of (h, i); None when it is not strictly below."""
    for lab in (h, i, j, k):
        if lab not in arr.labels:
            raise KeyError(f"label {lab} not present")
    if h == i:
        return None  # a leaf has nothing strictly below it
    leafsets = _leafsets(arr)
    upper = leafsets[frozenset((h, i))]
    target = frozenset((j,)) if j == k else leafsets[frozenset((j, k))]
    if not target < upper:
        return None
    left, _ = _split_sides(arr, h, i, upper, witness=_witness(arr.labels, h, i))
    return "L" if target <= left else "R"


def left_of(arr: DidendriticArray, h: int, i: int, j: int, k: int) -> bool:
    """Is the branch point of (h, i) a strict left ancestor of that of (j, k)?

    Diagonal pairs stand for the leaves themselves: left_of(arr, i, j, i, i)
    asks whether leaf i hangs on the left at the branch point of i and j.
    """
    return _below_side(arr, h, i, j, k) == "L"


def right_of(arr: DidendriticArray, h: int, i: int, j: int, k: int) -> bool:
    """Right-handed companion of left_of."""
    return _below_side(arr, h, i, j, k) == "R"


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
    """Violations of the defining relations; empty for encodings of trees.

    The relations derived from the table must orient every pair exactly one
    way (every witness triple agreeing), nest branch points consistently,
    and compose left/right ancestry transitively.
    """
    violations: list[str] = []
    labs = arr.labels

    # Every witness must assign the same left/right orientation to a pair.
    for a, b in itertools.combinations(labs, 2):
        votes = {}
        for q in labs:
            if q in (a, b):
                continue
            votes.setdefault(_pair_orientation(arr, a, b, q), []).append(q)
        if len(votes) == 2:
            violations.append(
                f"pair ({a}, {b}) is oriented both ways: left per witnesses "
                f"{votes[True]}, right per witnesses {votes[False]}"
            )

    # Within each triple, the two pairs through the outer leaf must share a
    # branch point (equal leaf sets) sitting strictly above the cherry's.
    leafsets = _leafsets(arr)
    for trip in itertools.combinations(labs, 3):
        x, y, z, _ = arr.absolute(*trip)
        ls_xz = leafsets[frozenset((x, z))]
        ls_yz = leafsets[frozenset((y, z))]
        ls_xy = leafsets[frozenset((x, y))]
        if ls_xz != ls_yz:
            violations.append(
                f"triple {trip}: pairs ({x},{z}) and ({y},{z}) should share a "
                f"branch point but span {sorted(ls_xz)} and {sorted(ls_yz)}"
            )
        if not ls_xy < ls_xz:
            violations.append(
                f"triple {trip}: cherry ({x},{y}) does not branch strictly "
                f"below the outer leaf {z}"
            )

    if violations:
        return violations

    # Left/right ancestry must compose: anything left of a branch point stays
    # left of it through deeper branch points, and symmetrically.
    classes = {}
    for pair, ls in leafsets.items():
        classes.setdefault(ls, sorted(pair))
    sides = {}
    for ls, (a, b) in classes.items():
        try:
            sides[ls] = _split_sides(arr, a, b, ls, witness=_witness(labs, a, b))
        except DidendriticError as e:
            violations.append(str(e))
            return violations
    rel = {}
    for u in classes:
        for v in classes:
            if u == v:
                continue
            left, right = sides[u]
            if v <= frozenset(left):
                rel[(u, v)] = "L"
            elif v <= frozenset(right):
                rel[(u, v)] = "R"
    for (u, v), s1 in rel.items():
        for w in classes:
            s2 = rel.get((v, w))
            if s2 is None or w == u:
                continue
            s3 = rel.get((u, w))
            if s3 != s1:
                violations.append(
                    f"ancestry fails to compose: {classes[u]} {s1} {classes[v]}"
                    f" and {classes[v]} {s2} {classes[w]} but {classes[u]} "
                    f"{s3 or 'unrelated'} {classes[w]}"
                )
    return violations


# ---------------------------------------------------------------------------
# Line format: one 'i j k token' line per sorted triple


def to_lines(arr: DidendriticArray) -> list[str]:
    return [
        f"{a} {b} {c} {arr.entry(a, b, c).token}"
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
