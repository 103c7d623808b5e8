"""Finite rooted plane binary trees, stored as their preorder shape.

A tree with m+1 leaves has 2m+1 vertices.  `BinaryTree.shape` lists them in
preorder (a vertex, then its left subtree, then its right subtree) as bytes,
1 for an internal vertex and 0 for a leaf: the Lukasiewicz word of the tree.
The subtree of vertex i is the shortest stretch shape[i:j] holding one more
leaf than internal vertices, so its left child is i+1 and its right child
starts where the left subtree ends.

Vertices are also named by words over {0,1}: the root is the empty word and
w + (b,) is the left (b=0) or right (b=1) child of w.  The word set is closed
under prefixes and siblings, and sorted it is the preorder, so vertex k is
sorted(t.words)[k] and the leaves are the zeros of the shape, left to right.
`words`, `leaves` and `internal` are derived from the shape on first use.

A `LabeledBinaryTree` adds `leaf_labels`, the labels of its leaves in that
left-to-right order; its word-keyed label maps are derived on first use.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from itertools import repeat
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


def _subtree_end(shape: bytes, i: int) -> int:
    """One past the last preorder index of the subtree at i, by scanning it."""
    need = 1  # subtrees still to read
    while need:
        need += 1 if shape[i] else -1
        i += 1
    return i


def _subtree_ends(shape: bytes) -> list[int]:
    """_subtree_end of every vertex, in one right-to-left pass."""
    ends = [0] * len(shape)
    roots: list[int] = []  # roots of the whole subtrees right of i, nearest last
    for i in range(len(shape) - 1, -1, -1):
        if shape[i]:
            roots.pop()  # the left child, i + 1
            ends[i] = ends[roots.pop()]  # the right child's end is i's end
        else:
            ends[i] = i + 1
        roots.append(i)
    return ends


def _leaf_counts(shape: bytes) -> list[int]:
    """Number of leaves below each vertex, in preorder."""
    return [(end - i + 1) // 2 for i, end in enumerate(_subtree_ends(shape))]


@dataclass(frozen=True)
class BinaryTree:
    """Immutable plane binary tree, stored as its preorder shape.

    Construct through validate_tree, the parsers or the moves; the
    constructor trusts `shape` to describe a tree.
    """

    shape: bytes

    def __contains__(self, v: Vertex) -> bool:
        return v in self._index

    def __len__(self) -> int:
        return len(self.shape)

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self._preorder)

    def index(self, v: Vertex) -> int:
        """Preorder index of the vertex named by the word v."""
        try:
            return self._index[v]
        except KeyError:
            raise KeyError(f"{word_str(v)} is not a vertex") from None

    def is_leaf(self, v: Vertex) -> bool:
        return not self.shape[self.index(v)]

    @cached_property
    def _preorder(self) -> tuple[Vertex, ...]:
        """Vertex words in preorder, which is their sorted order."""
        out: list[Vertex] = []
        stack = [ROOT]  # words of the vertices still to visit, next last
        for internal in self.shape:
            v = stack.pop()
            out.append(v)
            if internal:
                stack += (v + (1,), v + (0,))
        return tuple(out)

    @cached_property
    def _index(self) -> dict[Vertex, int]:
        return {v: i for i, v in enumerate(self._preorder)}

    @cached_property
    def words(self) -> frozenset[Vertex]:
        return frozenset(self._preorder)

    @cached_property
    def leaves(self) -> tuple[Vertex, ...]:
        """Leaves in lexicographic (left to right) order."""
        return tuple(v for v, b in zip(self._preorder, self.shape) if not b)

    @cached_property
    def internal(self) -> tuple[Vertex, ...]:
        return tuple(v for v, b in zip(self._preorder, self.shape) if b)

    @property
    def n_leaves(self) -> int:
        return (len(self.shape) + 1) // 2

    @property
    def level(self) -> int:
        """m such that the tree has m+1 leaves and 2m+1 vertices."""
        return len(self.shape) // 2

    def leaves_below(self, v: Vertex) -> int:
        i = self.index(v)
        return (_subtree_end(self.shape, i) - i + 1) // 2

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BinaryTree({encode_tree(self)!r})"


def validate_tree(words: Iterable[Vertex]) -> BinaryTree:
    """Check prefix and sibling closure; raise TreeInvariantError otherwise."""
    ws = frozenset(tuple(w) for w in words)
    if not ws:
        raise TreeInvariantError("empty vertex set")
    order = sorted(ws)
    for w in order:
        if any(b not in (0, 1) for b in w):
            raise TreeInvariantError(f"word {w!r} has a non-bit letter")
        if w and w[:-1] not in ws:
            raise TreeInvariantError(f"missing parent of {word_str(w)}")
        if w and sibling(w) not in ws:
            raise TreeInvariantError(f"missing sibling of {word_str(w)}")
    return BinaryTree(bytes(w + (0,) in ws for w in order))


SINGLETON = BinaryTree(b"\x00")
# The three-vertex tree: a root with two leaf children.
ALEPH = BinaryTree(b"\x01\x00\x00")


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
    out = [
        BinaryTree(b"\x01" + left.shape + right.shape)
        for i in range(m)
        for left in enumerate_trees(i)
        for right in enumerate_trees(m - 1 - i)
    ]
    out.sort(key=encode_tree)
    return tuple(out)


def mrca(t: BinaryTree, u: Vertex, v: Vertex) -> Vertex:
    """Most recent common ancestor: the longest common prefix."""
    t.index(u), t.index(v)  # both must be vertices
    return u[: _common_prefix_len(u, v)]


def leaf_order_shape(n: int, deeper: Callable[[int, int], bool]) -> bytes:
    """Preorder shape of the tree with n leaves, as the Cartesian tree of
    its branch points in inorder (Vuillemin, CACM 1980).

    `deeper(j, k)`, j < k, says whether the branch point of leaves j, j+1
    lies strictly below that of k, k+1; it is asked only when every branch
    point between leaves j+1 and k lies below j's.  Each leaf follows, in
    preorder, the internal vertices it is leftmost under.
    """
    opened = [0] * n  # internal vertices whose leftmost leaf is leaf k
    stack: list[tuple[int, int]] = []  # (branch point, its leftmost leaf), deepest last
    for k in range(n - 1):
        first = k
        while stack and deeper(stack[-1][0], k):
            first = stack.pop()[1]
        stack.append((k, first))
        opened[first] += 1
    return b"".join(b"\x01" * count + b"\x00" for count in opened)


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
    t.index(u), t.index(v)  # both must be vertices
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


def _contour(t: BinaryTree) -> list[tuple[int, int]]:
    """(preorder index, depth) of each position of the contour walk."""
    shape = t.shape
    ends = _subtree_ends(shape)
    out: list[tuple[int, int]] = []
    stack = [(0, 0, True)]  # (vertex, depth, first visit); later visits emit only
    while stack:
        i, d, first = stack.pop()
        out.append((i, d))
        if first and shape[i]:
            right, left = (ends[i + 1], d + 1, True), (i + 1, d + 1, True)
            stack += ((i, d, False), right, (i, d, False), left)
    return out


def harris_path(t: BinaryTree) -> HarrisPath:
    return HarrisPath(tuple(d for _, d in _contour(t)))


def leaf_visit_indices(t: BinaryTree) -> tuple[int, ...]:
    """Positions of the contour walk that sit at a leaf, in leaf lex order."""
    shape = t.shape
    return tuple(pos for pos, (i, _) in enumerate(_contour(t)) if not shape[i])


def harris_tree(path: HarrisPath) -> BinaryTree:
    """Invert harris_path.  Raises ParseError if the walk is not binary.

    A vertex is internal iff the walk steps down right after its first
    visit, and the walk must leave every vertex with zero or two children.
    """
    h = path.heights
    shape = bytearray()
    kids = [0]  # children so far of each vertex on the walk's current path
    first = True  # is the walk at a vertex it has not visited before?
    for a, b in zip(h, h[1:]):
        down = b > a
        if first:
            shape.append(down)
        if down:
            kids[-1] += 1
            if kids[-1] > 2:
                raise ParseError("walk does not describe a binary tree")
            kids.append(0)
        elif kids.pop() == 1:
            raise ParseError("walk does not describe a binary tree")
        first = down
    if first:  # the one-vertex walk
        shape.append(0)
    if kids[0] == 1:
        raise ParseError("walk does not describe a binary tree")
    return BinaryTree(bytes(shape))


# ---------------------------------------------------------------------------
# Text encodings


def _encode(t: BinaryTree, leaf_tokens: Iterator[str]) -> str:
    """Parenthesis walk in preorder; an internal vertex wraps its two kids."""
    out: list[str] = []
    kids_left: list[int] = []  # per open internal vertex, kids still to come
    for internal in t.shape:
        if internal:
            out.append("(")
            kids_left.append(2)
            continue
        out.append(next(leaf_tokens))
        while kids_left and kids_left[-1] == 1:
            kids_left.pop()
            out.append(")")
        if kids_left:
            kids_left[-1] = 1
    return "".join(out)


def _decode(text: str, labeled: bool) -> tuple[bytes, list[int]]:
    """Parse a parenthesis encoding into its preorder shape and its leaf
    labels, left to right.

    Unlabeled leaves are '()', labeled ones '(k)' with k a decimal label.
    """
    shape = bytearray()
    labels: list[int] = []
    pos, end = 0, len(text)
    stack = [True]  # True for a vertex to parse, False for an internal's ')'
    while stack:
        if not stack.pop():
            if pos >= end or text[pos] != ")":
                raise ParseError(f"expected ')' at position {pos}")
            pos += 1
            continue
        if pos >= end or text[pos] != "(":
            raise ParseError(f"expected '(' at position {pos}")
        pos += 1
        if labeled and pos < end and text[pos].isdigit():
            start = pos
            while pos < end and text[pos].isdigit():
                pos += 1
            labels.append(int(text[start:pos]))
            shape.append(0)
            stack.append(False)
        elif pos < end and text[pos] == ")":
            if labeled:
                raise ParseError(f"leaf at position {pos} is missing a label")
            pos += 1
            shape.append(0)
        else:
            shape.append(1)
            stack += (False, True, True)
    if pos != end:
        raise ParseError(f"trailing characters at position {pos}")
    return bytes(shape), labels


def encode_tree(t: BinaryTree) -> str:
    """Balanced parentheses: a leaf is '()', an internal vertex wraps its kids."""
    return _encode(t, repeat("()"))


def decode_tree(text: str) -> BinaryTree:
    return BinaryTree(_decode(text, labeled=False)[0])


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
    for v, internal in zip(t, t.shape):
        name = word_str(v)
        if not internal:
            txt = str(labels[v]) if labels and v in labels else name
            lines.append(f'  "{name}" [shape=box, label="{txt}"];')
        else:
            lines.append(f'  "{name}" [label="{name}"];')
    for v in t:
        if v:
            lines.append(f'  "{word_str(v[:-1])}" -> "{word_str(v)}";')
    lines.append("}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Leaf-labeled trees


@dataclass(frozen=True)
class LabeledBinaryTree:
    """A plane binary tree whose m+1 leaves carry the labels 1..m+1.

    `leaf_labels[r]` is the label of the r-th leaf from the left.  Construct
    through from_labels, the parsers or the moves; like BinaryTree, the
    constructor trusts its input.  The word maps `labels`, `leaf_of_label`
    and `label_items` are derived on first use.
    """

    tree: BinaryTree
    leaf_labels: tuple[int, ...]

    @staticmethod
    def from_labels(tree: BinaryTree, labels: Mapping[Vertex, int]) -> "LabeledBinaryTree":
        if set(labels) != set(tree.leaves):
            raise TreeInvariantError("labels must be assigned to exactly the leaves")
        leaf_labels = tuple(labels[v] for v in tree.leaves)
        _check_bijection(leaf_labels)
        return LabeledBinaryTree(tree, leaf_labels)

    @cached_property
    def label_items(self) -> tuple[tuple[Vertex, int], ...]:
        """(leaf word, label) pairs, leaves left to right."""
        return tuple(zip(self.tree.leaves, self.leaf_labels))

    @cached_property
    def labels(self) -> dict[Vertex, int]:
        return dict(self.label_items)

    @cached_property
    def leaf_of_label(self) -> dict[int, Vertex]:
        return dict(zip(self.leaf_labels, self.tree.leaves))

    @property
    def n_leaves(self) -> int:
        return self.tree.n_leaves

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LabeledBinaryTree({encode_labeled_tree(self)!r})"


def _check_bijection(leaf_labels: Iterable[int]) -> None:
    vals = sorted(leaf_labels)
    if vals != list(range(1, len(vals) + 1)):
        raise TreeInvariantError(
            f"labels must be a bijection onto 1..{len(vals)}, got {vals}"
        )


def encode_labeled_tree(lt: LabeledBinaryTree) -> str:
    """Parenthesis encoding with leaf labels, e.g. '(((1)(3))(2))'."""
    return _encode(lt.tree, (f"({lab})" for lab in lt.leaf_labels))


def decode_labeled_tree(text: str) -> LabeledBinaryTree:
    shape, labels = _decode(text, labeled=True)
    _check_bijection(labels)
    return LabeledBinaryTree(BinaryTree(shape), tuple(labels))


def enumerate_labeled_trees(m: int) -> Iterator[LabeledBinaryTree]:
    """All (2m)!/m! leaf-labeled trees with m+1 leaves."""
    for t in enumerate_trees(m):
        for perm in itertools.permutations(range(1, m + 2)):
            yield LabeledBinaryTree(t, perm)
