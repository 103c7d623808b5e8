"""Finite rooted plane binary trees as prefix-closed word sets over {0,1}.

A tree is a finite set of words (tuples of bits) that is closed under
prefixes and under taking siblings: if a word w + (b,) is a vertex then so
is w + (1-b,).  The root is the empty word.  Such a set always has an odd
number of vertices, 2m+1, consisting of m+1 leaves and m internal vertices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Iterator, Mapping

Vertex = tuple[int, ...]

ROOT: Vertex = ()

# enumerate_trees is guarded at this size; catalan(12) = 208012 shapes is the
# largest table we are willing to hold in memory.
MAX_ENUM_LEAVES = 13


class TreeInvariantError(ValueError):
    """The vertex set is not a valid plane binary tree."""


class ParseError(ValueError):
    """A textual tree encoding is malformed."""


def sibling(v: Vertex) -> Vertex:
    if not v:
        raise ValueError("the root has no sibling")
    return v[:-1] + (1 - v[-1],)


def word_str(v: Vertex) -> str:
    """Render a vertex for messages and DOT output; the root prints as 'e'."""
    return "".join(str(b) for b in v) if v else "e"


def parse_word(text: str) -> Vertex:
    if text == "e":
        return ()
    if not text or any(c not in "01" for c in text):
        raise ParseError(f"bad vertex word {text!r}")
    return tuple(int(c) for c in text)


@dataclass(frozen=True)
class BinaryTree:
    """Immutable plane binary tree; construct through validate_tree/from_words."""

    words: frozenset[Vertex]

    @staticmethod
    def from_words(words: Iterable[Vertex]) -> "BinaryTree":
        return validate_tree(words)

    def __contains__(self, v: Vertex) -> bool:
        return v in self.words

    def __len__(self) -> int:
        return len(self.words)

    def __iter__(self) -> Iterator[Vertex]:
        return iter(sorted(self.words))

    def is_leaf(self, v: Vertex) -> bool:
        if v not in self.words:
            raise KeyError(f"{word_str(v)} is not a vertex")
        return v + (0,) not in self.words

    @cached_property
    def leaves(self) -> tuple[Vertex, ...]:
        """Leaves in lexicographic (left to right) order."""
        return tuple(sorted(v for v in self.words if v + (0,) not in self.words))

    @cached_property
    def internal(self) -> tuple[Vertex, ...]:
        return tuple(sorted(v for v in self.words if v + (0,) in self.words))

    @property
    def n_leaves(self) -> int:
        return len(self.leaves)

    @property
    def level(self) -> int:
        """m such that the tree has m+1 leaves and 2m+1 vertices."""
        return self.n_leaves - 1

    def subtree_words(self, v: Vertex) -> list[Vertex]:
        """Vertices of the subtree rooted at v, as words relative to the root."""
        if v not in self.words:
            raise KeyError(f"{word_str(v)} is not a vertex")
        k = len(v)
        return [w for w in self.words if w[:k] == v]

    def leaves_below(self, v: Vertex) -> int:
        k = len(v)
        return sum(1 for w in self.leaves if w[:k] == v)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BinaryTree({encode_tree(self)!r})"


def validate_tree(words: Iterable[Vertex]) -> BinaryTree:
    """Check prefix and sibling closure; raise TreeInvariantError otherwise."""
    ws = frozenset(tuple(w) for w in words)
    if not ws:
        raise TreeInvariantError("empty vertex set")
    for w in sorted(ws):
        if any(b not in (0, 1) for b in w):
            raise TreeInvariantError(f"word {w!r} has a non-bit letter")
        if w and w[:-1] not in ws:
            raise TreeInvariantError(f"missing parent of {word_str(w)}")
        if w and sibling(w) not in ws:
            raise TreeInvariantError(f"missing sibling of {word_str(w)}")
    return BinaryTree(ws)


SINGLETON = BinaryTree(frozenset({ROOT}))
# The three-vertex tree: a root with two leaf children.
ALEPH = BinaryTree(frozenset({(), (0,), (1,)}))


def catalan(m: int) -> int:
    if m < 0:
        raise ValueError("negative index")
    return math.comb(2 * m, m) // (m + 1)


def count_labeled_trees(n: int) -> int:
    """Number of binary trees with n+1 leaves labeled 1..n+1: (2n)!/n!."""
    if n < 0:
        raise ValueError("negative index")
    return math.factorial(2 * n) // math.factorial(n)


@lru_cache(maxsize=None)
def enumerate_trees(m: int) -> tuple[BinaryTree, ...]:
    """All trees with m+1 leaves, sorted by their parenthesis encoding."""
    if m < 0:
        raise ValueError("negative index")
    if m + 1 > MAX_ENUM_LEAVES:
        raise ValueError(f"enumeration is guarded at {MAX_ENUM_LEAVES} leaves")
    if m == 0:
        return (SINGLETON,)
    out = []
    for i in range(m):
        for left in enumerate_trees(i):
            for right in enumerate_trees(m - 1 - i):
                words = {ROOT}
                words.update((0,) + w for w in left.words)
                words.update((1,) + w for w in right.words)
                out.append(BinaryTree(frozenset(words)))
    out.sort(key=encode_tree)
    return tuple(out)


def mrca(t: BinaryTree, u: Vertex, v: Vertex) -> Vertex:
    """Most recent common ancestor: the longest common prefix."""
    if u not in t.words:
        raise KeyError(f"{word_str(u)} is not a vertex")
    if v not in t.words:
        raise KeyError(f"{word_str(v)} is not a vertex")
    return u[: _common_prefix_len(u, v)]


def _common_prefix_len(u: Vertex, v: Vertex) -> int:
    """Length of the longest common prefix of two words."""
    k = 0
    for a, b in zip(u, v):
        if a != b:
            break
        k += 1
    return k


class Order(Enum):
    """Outcome of order_query(t, u, v)."""

    EQUAL = "equal"
    # u is a strict ancestor with v in its left (right) subtree: u <_L v.
    ANCESTOR_LEFT = "u <L v"
    ANCESTOR_RIGHT = "u <R v"
    # v is a strict ancestor of u.
    DESCENDANT_LEFT = "v <L u"
    DESCENDANT_RIGHT = "v <R u"
    INCOMPARABLE = "incomparable"


def order_query(t: BinaryTree, u: Vertex, v: Vertex) -> Order:
    if u not in t.words:
        raise KeyError(f"{word_str(u)} is not a vertex")
    if v not in t.words:
        raise KeyError(f"{word_str(v)} is not a vertex")
    if u == v:
        return Order.EQUAL
    if v[: len(u)] == u:
        return Order.ANCESTOR_LEFT if v[len(u)] == 0 else Order.ANCESTOR_RIGHT
    if u[: len(v)] == v:
        return Order.DESCENDANT_LEFT if u[len(v)] == 0 else Order.DESCENDANT_RIGHT
    return Order.INCOMPARABLE


# ---------------------------------------------------------------------------
# Harris (contour) walks


@dataclass(frozen=True)
class HarrisPath:
    """Height sequence of the contour walk around a tree.

    The walk starts and ends at the root, visits left subtrees before right
    ones, and traverses every edge exactly twice, so a tree with 2m+1
    vertices yields 4m+1 heights.
    """

    heights: tuple[int, ...]

    def __post_init__(self) -> None:
        h = self.heights
        if not h or h[0] != 0 or h[-1] != 0:
            raise ValueError("a Harris path must start and end at height 0")
        if any(x < 0 for x in h):
            raise ValueError("negative height")
        if any(abs(a - b) != 1 for a, b in zip(h, h[1:])):
            raise ValueError("steps must change height by exactly 1")

    def __len__(self) -> int:
        return len(self.heights)


def contour_vertices(t: BinaryTree) -> tuple[Vertex, ...]:
    """Vertices in contour order; leaves appear exactly once each."""
    out: list[Vertex] = []
    stack = [(ROOT, True)]  # (vertex, first visit); later visits emit only
    while stack:
        v, first = stack.pop()
        out.append(v)
        if first and v + (0,) in t.words:
            stack += ((v, False), (v + (1,), True), (v, False), (v + (0,), True))
    return tuple(out)


def harris_path(t: BinaryTree) -> HarrisPath:
    return HarrisPath(tuple(len(v) for v in contour_vertices(t)))


def leaf_visit_indices(t: BinaryTree) -> tuple[int, ...]:
    """Positions of the contour walk that sit at a leaf, in leaf lex order."""
    return tuple(
        i for i, v in enumerate(contour_vertices(t)) if v + (0,) not in t.words
    )


def harris_tree(path: HarrisPath) -> BinaryTree:
    """Invert harris_path.  Raises ParseError if the walk is not binary."""
    h = path.heights
    words: set[Vertex] = set()
    # h[lo:hi] is the contour of the subtree at `prefix`, whose root height
    # is h[lo]; the walk starts and ends there.
    stack = [(0, len(h), ROOT)]
    while stack:
        lo, hi, prefix = stack.pop()
        words.add(prefix)
        if hi - lo == 1:
            continue
        d = h[lo]
        returns = [i for i in range(lo + 1, hi) if h[i] == d]
        if len(returns) != 2 or returns[1] != hi - 1 or h[hi - 1] != d:
            raise ParseError("walk does not describe a binary tree")
        mid = returns[0]
        stack += ((mid + 1, hi - 1, prefix + (1,)), (lo + 1, mid, prefix + (0,)))
    return validate_tree(words)


# ---------------------------------------------------------------------------
# Text encodings


def _encode(t: BinaryTree, leaf_token: Callable[[Vertex], str]) -> str:
    """Parenthesis walk in preorder; an internal vertex wraps its two kids."""
    words = t.words
    out: list[str] = []
    stack: list[Vertex | None] = [ROOT]  # None stands for an internal vertex's ')'
    while stack:
        v = stack.pop()
        if v is None:
            out.append(")")
            continue
        left = v + (0,)
        if left in words:
            out.append("(")
            stack += (None, v + (1,), left)
        else:
            out.append(leaf_token(v))
    return "".join(out)


def _decode(text: str, labeled: bool) -> tuple[set[Vertex], dict[Vertex, int]]:
    """Parse a parenthesis encoding into its vertex words and leaf labels.

    Unlabeled leaves are '()', labeled ones '(k)' with k a decimal label.
    """
    words: set[Vertex] = set()
    labels: dict[Vertex, int] = {}
    pos, end = 0, len(text)
    stack: list[Vertex | None] = [ROOT]  # vertices to parse, None for a ')'
    while stack:
        v = stack.pop()
        if v is None:
            if pos >= end or text[pos] != ")":
                raise ParseError(f"expected ')' at position {pos}")
            pos += 1
            continue
        if pos >= end or text[pos] != "(":
            raise ParseError(f"expected '(' at position {pos}")
        pos += 1
        words.add(v)
        if labeled and pos < end and text[pos].isdigit():
            start = pos
            while pos < end and text[pos].isdigit():
                pos += 1
            labels[v] = int(text[start:pos])
            stack.append(None)
        elif pos < end and text[pos] == ")":
            if labeled:
                raise ParseError(f"leaf at position {pos} is missing a label")
            pos += 1
        else:
            stack += [None, v + (1,), v + (0,)]
    if pos != end:
        raise ParseError(f"trailing characters at position {pos}")
    return words, labels


def encode_tree(t: BinaryTree) -> str:
    """Balanced parentheses: a leaf is '()', an internal vertex wraps its kids."""
    return _encode(t, lambda v: "()")


def decode_tree(text: str) -> BinaryTree:
    return validate_tree(_decode(text, labeled=False)[0])


def format_word_set(t: BinaryTree) -> str:
    """Comma-separated vertex words sorted by length then bits, e.g. 'e,0,1'."""
    return ",".join(word_str(v) for v in sorted(t.words, key=lambda w: (len(w), w)))


def parse_word_set(text: str) -> BinaryTree:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ParseError("empty word set")
    return validate_tree(parse_word(p) for p in parts)


def parse_tree(text: str) -> BinaryTree:
    """Accept either the parenthesis encoding or the word-set form."""
    text = text.strip()
    if text.startswith("("):
        return decode_tree(text)
    return parse_word_set(text)


def to_dot(t: BinaryTree, labels: Mapping[Vertex, int] | None = None) -> str:
    """GraphViz export; leaves are boxes, labeled leaves show their label."""
    lines = ["digraph tree {", "  node [shape=circle];"]
    for v in sorted(t.words):
        name = word_str(v)
        if v + (0,) not in t.words:
            txt = str(labels[v]) if labels and v in labels else name
            lines.append(f'  "{name}" [shape=box, label="{txt}"];')
        else:
            lines.append(f'  "{name}" [label="{name}"];')
    for v in sorted(t.words):
        if v:
            lines.append(f'  "{word_str(v[:-1])}" -> "{word_str(v)}";')
    lines.append("}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Leaf-labeled trees


@dataclass(frozen=True)
class LabeledBinaryTree:
    """A plane binary tree whose m+1 leaves carry the labels 1..m+1."""

    tree: BinaryTree
    label_items: tuple[tuple[Vertex, int], ...]

    @staticmethod
    def from_labels(tree: BinaryTree, labels: Mapping[Vertex, int]) -> "LabeledBinaryTree":
        leaves = set(tree.leaves)
        if set(labels) != leaves:
            raise TreeInvariantError("labels must be assigned to exactly the leaves")
        vals = sorted(labels.values())
        if vals != list(range(1, len(leaves) + 1)):
            raise TreeInvariantError(
                f"labels must be a bijection onto 1..{len(leaves)}, got {vals}"
            )
        return LabeledBinaryTree(tree, tuple(sorted(labels.items())))

    @cached_property
    def labels(self) -> dict[Vertex, int]:
        return dict(self.label_items)

    @cached_property
    def leaf_of_label(self) -> dict[int, Vertex]:
        return {lab: v for v, lab in self.label_items}

    @property
    def n_leaves(self) -> int:
        return self.tree.n_leaves

    def unlabel(self) -> BinaryTree:
        return self.tree

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LabeledBinaryTree({encode_labeled_tree(self)!r})"


def encode_labeled_tree(lt: LabeledBinaryTree) -> str:
    """Parenthesis encoding with leaf labels, e.g. '(((1)(3))(2))'."""
    labels = lt.labels
    return _encode(lt.tree, lambda v: f"({labels[v]})")


def decode_labeled_tree(text: str) -> LabeledBinaryTree:
    words, labels = _decode(text, labeled=True)
    return LabeledBinaryTree.from_labels(validate_tree(words), labels)


def enumerate_labeled_trees(m: int) -> Iterator[LabeledBinaryTree]:
    """All (2m)!/m! leaf-labeled trees with m+1 leaves."""
    import itertools

    for t in enumerate_trees(m):
        for perm in itertools.permutations(range(1, m + 2)):
            yield LabeledBinaryTree(t, tuple(zip(t.leaves, perm)))
