"""Concrete realizations of the chain's boundary as sampleable metric data.

An ensemble is a rooted continuum shape S with a base point, a sampling
measure, and a left/right rule W.  Leaves are sampled as points of S; of
S the library asks only the depth of two samples' branch point below the
base point.  The branch points it compares lie on one root path, where
equal depth means one vertex, so depths classify every triple of samples,
which yields the triple-type table of a labeled tree.  The tree the samples
span is built directly: sorted into leaf order by W, the branch points of
neighbouring samples form its internal vertices in order, and one stack
over their depths places each under its parent.

Three ensembles are provided: the unit interval with coin-flip orientation
(the comb limit), infinite fair-coin sequences under longest-common-prefix
metric (the complete-tree limit), and discrete excursion grids (contour
walks, including random Dyck paths).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from functools import cmp_to_key
from typing import Protocol, Sequence

import numpy as np

from . import didendritic
from .didendritic import DidendriticArray, TripleType, decode
from .remy import DEFAULT_RETRY_CAP, DYADIC_BIT_CAP, RetryLimitError
from .rng import Rng
from .trees import BinaryTree, HarrisPath, LabeledBinaryTree, _subtree_ends, leaf_order_shape

ULTRAMETRIC_TOL = 1e-9


class SegmentRelation(Enum):
    """How the base-to-branch-point segment of one pair meets another's."""

    EQUAL = "equal"
    CONTAINS = "contains"  # first segment strictly contains the second
    CONTAINED = "contained"  # first segment strictly inside the second
    INCOMPARABLE = "incomparable"


class DegenerateSampleError(RuntimeError):
    """A draw hit a tie that valid samples avoid almost surely."""


class Ensemble(Protocol):
    def sample_point(self, rng: Rng) -> "PointHandle": ...

    def branch_depth(self, a, b) -> float: ...

    def left_value(self, a, b) -> int: ...


def _compare(ensemble: Ensemble, a, b, c, d) -> SegmentRelation:
    """How the base-to-branch-point segment of a, b meets that of c, d.

    The first, at depth d1 on the path to a, is an ancestor of (or equals)
    the second, at depth d2 on the path to c, when d1 <= d2 and the paths
    to a and c still agree at d1; one point, or two streams agreeing
    through the dyadic cap, agree throughout.
    """
    depth = ensemble.branch_depth
    d1, d2 = depth(a, b), depth(c, d)
    try:
        cross = depth(a, c) if a is not c else math.inf
    except DegenerateSampleError:
        cross = math.inf
    up = d1 <= d2 and d1 <= cross  # the first segment inside the second
    down = d2 <= d1 and d2 <= cross
    if up and down:
        return SegmentRelation.EQUAL
    if up:
        return SegmentRelation.CONTAINED
    if down:
        return SegmentRelation.CONTAINS
    return SegmentRelation.INCOMPARABLE


class PointHandle:
    """Base for sampled points; aux is the auxiliary uniform coordinate."""

    aux: float

    @property
    def identity(self) -> object | None:
        """Hashable collision key, or None when collisions need no watch."""
        return None


# ---------------------------------------------------------------------------
# The unit interval with base point 0


@dataclass(frozen=True)
class IntervalPoint(PointHandle):
    x: float
    aux: float

    @property
    def identity(self) -> float:
        return self.x

    @property
    def depth(self) -> float:
        """Distance from the far end; pairwise tree distance is max of depths."""
        return 1.0 - self.x


class IntervalEnsemble:
    """S = [0, 1] rooted at 0 with uniform samples.

    The branch point of x and y is min(x, y), at that depth from the base
    point.  The pair orientation is the fair coin of the point sitting at
    the branch point (the one with the smaller coordinate): it goes left
    when its auxiliary is below one half.  The other point's coin is read in
    reverse so that orientation is antisymmetric.
    """

    def sample_point(self, rng: Rng) -> IntervalPoint:
        return IntervalPoint(x=float(rng.random()), aux=float(rng.random()))

    def branch_depth(self, a: IntervalPoint, b: IntervalPoint) -> float:
        return min(a.x, b.x)

    compare = _compare

    def left_value(self, a: IntervalPoint, b: IntervalPoint) -> int:
        if a.x < b.x:
            return 1 if a.aux < 0.5 else 0
        if b.x < a.x:
            return 1 if b.aux > 0.5 else 0
        return 0  # coordinate ties are probability zero and resampled


# ---------------------------------------------------------------------------
# Fair-coin sequences


class DyadicPoint(PointHandle):
    """A lazily extended fair bit stream.

    An initial block of bits is drawn eagerly from the sampling stream;
    deeper bits, rarely needed, come from a private generator whose seed
    was also drawn eagerly, so values never depend on later sampling.
    """

    __slots__ = ("aux", "_bits", "_ext_seed", "_gen")

    def __init__(self, bits: Sequence[int], ext_seed: int, aux: float) -> None:
        self.aux = aux
        self._bits = [int(b) for b in bits]
        self._ext_seed = ext_seed
        self._gen: Rng | None = None

    def bit(self, idx: int) -> int:
        while len(self._bits) <= idx:
            if self._gen is None:
                self._gen = np.random.Generator(np.random.PCG64(self._ext_seed))
            self._bits.extend(int(b) for b in self._gen.integers(0, 2, size=16))
        return self._bits[idx]

    def prefix(self, length: int) -> tuple[int, ...]:
        if length:
            self.bit(length - 1)
        return tuple(self._bits[:length])


class DyadicEnsemble:
    """Infinite fair-coin sequences; branch points are common prefixes.

    Streams are extended on demand and capped: a pair agreeing through
    `bit_cap` bits counts as a tie and is resampled by callers.
    Orientation is deterministic, by the first differing bit.
    """

    def __init__(self, bit_cap: int = DYADIC_BIT_CAP) -> None:
        self.bit_cap = bit_cap

    INITIAL_BLOCK = 16

    def sample_point(self, rng: Rng) -> DyadicPoint:
        return DyadicPoint(
            bits=rng.integers(0, 2, size=self.INITIAL_BLOCK),
            ext_seed=int(rng.integers(1 << 63)),
            aux=float(rng.random()),
        )

    def branch_depth(self, a: DyadicPoint, b: DyadicPoint) -> int:
        if a is b:
            raise ValueError("need two distinct points")
        for d in range(self.bit_cap):
            if a.bit(d) != b.bit(d):
                return d
        raise DegenerateSampleError(
            f"streams agree through the {self.bit_cap}-bit cap"
        )

    compare = _compare

    def left_value(self, a: DyadicPoint, b: DyadicPoint) -> int:
        return 1 if a.bit(self.branch_depth(a, b)) == 0 else 0


# ---------------------------------------------------------------------------
# Excursion grids


@dataclass(frozen=True)
class ExcursionGrid:
    """Nonnegative heights f(0), ..., f(2N) with f(0) = f(2N) = 0."""

    heights: tuple[float, ...]

    def __post_init__(self) -> None:
        h = self.heights
        if len(h) < 3 or len(h) % 2 == 0:
            raise ValueError("need an odd number of heights, at least three")
        if h[0] != 0 or h[-1] != 0:
            raise ValueError("the walk must start and end at zero")
        if not all(math.isfinite(x) for x in h):
            raise ValueError("heights must be finite")
        if any(x < 0 for x in h):
            raise ValueError("negative height")

    @property
    def is_dyck(self) -> bool:
        return all(
            abs(a - b) == 1 and float(a).is_integer()
            for a, b in zip(self.heights, self.heights[1:])
        )

    @staticmethod
    def from_harris(path: HarrisPath) -> "ExcursionGrid":
        return ExcursionGrid(tuple(float(x) for x in path.heights))


def parse_grid(text: str) -> ExcursionGrid:
    parts = text.split()
    if not parts:
        raise ValueError("empty grid")
    return ExcursionGrid(tuple(float(p) for p in parts))


def format_grid(grid: ExcursionGrid) -> str:
    out = []
    for x in grid.heights:
        out.append(str(int(x)) if float(x).is_integer() else repr(x))
    return " ".join(out)


def random_dyck_path(n: int, rng: Rng) -> ExcursionGrid:
    """Uniform Dyck path with 2n steps, by the cycle construction.

    Shuffle n+1 rises and n falls; exactly one rotation of the resulting
    cycle keeps every partial sum positive (start just after the last
    minimum of the prefix sums), and dropping its first rise leaves a
    nonnegative walk of length 2n hitting zero at the end, uniform over the
    catalan(n) possibilities.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    steps = np.concatenate([np.ones(n + 1, dtype=np.int64), -np.ones(n, dtype=np.int64)])
    steps = rng.permutation(steps)
    sums = np.cumsum(steps)
    start = int(np.flatnonzero(sums == sums.min())[-1]) + 1
    rotated = np.concatenate([steps[start:], steps[:start]])
    heights = np.concatenate([[0], np.cumsum(rotated[1:])])
    return ExcursionGrid(tuple(float(x) for x in heights))


class _RangeMin:
    """Sparse table for range minima."""

    def __init__(self, values: Sequence[float]) -> None:
        self._val = [np.asarray(values, dtype=float)]  # row k: minima of 2**k
        while 2 ** len(self._val) <= len(values):
            row, half = self._val[-1], 2 ** (len(self._val) - 1)
            self._val.append(np.minimum(row[:-half], row[half:]))

    def query(self, lo: int, hi: int) -> float:
        """Minimum over the inclusive window [lo, hi]."""
        k = (hi - lo + 1).bit_length() - 1
        row = self._val[k]
        return float(min(row[lo], row[hi - 2**k + 1]))


@dataclass(frozen=True)
class ExcursionPoint(PointHandle):
    index: int
    aux: float

    @property
    def identity(self) -> int:
        return self.index


class ExcursionEnsemble:
    """The tree coded by an excursion grid, sampled at uniform grid indices.

    Two indices branch at the minimum of the grid between them; positions
    are the same tree point exactly when the grid never dips below their
    common height between them.  Orientation follows index order, so W is
    deterministic.  `support` restricts sampling to a subset of indices
    (e.g. the leaf visits of a contour walk).
    """

    def __init__(
        self, grid: ExcursionGrid, support: Sequence[int] | None = None
    ) -> None:
        self.grid = grid
        self._rmq = _RangeMin(grid.heights)
        n = len(grid.heights)
        if support is None:
            self.support: tuple[int, ...] = tuple(range(n))
        else:
            self.support = tuple(int(i) for i in support)
            if len(set(self.support)) != len(self.support):
                raise ValueError("support indices must be distinct")
            if any(not 0 <= i < n for i in self.support):
                raise ValueError("support index out of range")
        self._law: _ConditionedLaw | None = None  # for the last count asked

    def _conditioned_draw(self, count: int, rng: Rng) -> list[ExcursionPoint]:
        """`count` points from the law of i.i.d. support samples conditioned on
        distinct indices and no degenerate triple, labels in sampling order."""
        if self._law is None or self._law.size != count:
            self._law = _ConditionedLaw(self.grid.heights, self.support, count)
        if not self._law.total:
            raise RetryLimitError(
                f"no sample exists: no {count} distinct indices of the "
                f"{len(self.support)} in the support avoid a degenerate triple"
            )
        chosen = self._law.draw(rng)
        return [self.point_at(chosen[j]) for j in rng.permutation(count)]

    def point_at(self, index: int, aux: float = 0.5) -> ExcursionPoint:
        if not 0 <= index < len(self.grid.heights):
            raise ValueError("index out of range")
        return ExcursionPoint(index=index, aux=aux)

    def sample_point(self, rng: Rng) -> ExcursionPoint:
        idx = self.support[rng.integers(len(self.support))]
        return ExcursionPoint(index=int(idx), aux=float(rng.random()))

    def branch_depth(self, a: ExcursionPoint, b: ExcursionPoint) -> float:
        """The grid minimum between the two indices."""
        i, j = a.index, b.index
        return self._rmq.query(i, j) if i <= j else self._rmq.query(j, i)

    compare = _compare

    def left_value(self, a: ExcursionPoint, b: ExcursionPoint) -> int:
        return 1 if a.index < b.index else 0


def _randbelow(rng: Rng, n: int) -> int:
    """Uniform integer in [0, n) for any n >= 1, by rejection on random bytes."""
    bits = n.bit_length()
    nbytes = (bits + 7) // 8
    while True:
        r = int.from_bytes(rng.bytes(nbytes), "little") >> (8 * nbytes - bits)
        if r < n:
            return r


def _coeff(p: Sequence[int], k: int) -> int:
    return p[k] if 0 <= k < len(p) else 0


class _ConditionedLaw:
    """Uniform law on the `size`-sets of support indices with no degenerate triple.

    Indices i < j sit on one vertex of the coded tree, a class, when
    h[i] = h[j] = min h[i..j].  The directions of a class are its own
    indices and the subtrees hanging between, before and after them; three
    indices make a degenerate triple exactly when they lie in three
    directions of one class (their three pairwise branch classes coincide).
    So a set of distinct indices is valid when no class has more than two
    occupied directions, and i.i.d. uniform support samples conditioned on
    validity are a uniform valid set in uniform order.

    A postorder pass counts, for each class, the nonempty valid sets inside
    its subtree by size, as a polynomial truncated at degree `size`: with
    G1 and G2 the counts that use one and two directions, the class's w own
    support indices start them at w·x and C(w, 2)·x², and each child
    subtree's count F adds G2 += G1·F, then G1 += F.  A uniform rank below
    the total is unranked back down the tree, recomputing those prefix
    counts on the classes it visits.  Counting costs O(n·size²) in exact
    integers.
    """

    def __init__(self, heights: Sequence[float], support: Sequence[int], size: int) -> None:
        self.size = size
        in_support = bytearray(len(heights))
        for i in support:
            in_support[i] = 1
        members: list[list[int]] = []  # support indices of each class
        children: list[list[int]] = []  # in index order
        counts: list[list[int]] = []  # nonempty valid sets in the subtree, by size
        self.members, self.children, self.counts = members, children, counts
        open_heights: list[float] = []  # of the open classes, strictly increasing
        open_ids: list[int] = []
        for i, x in enumerate((*heights, -1.0)):  # the sentinel closes them all
            last = -1  # the lowest class closed by x
            while open_heights and open_heights[-1] > x:
                open_heights.pop()
                c = open_ids.pop()
                if last >= 0:
                    children[c].append(last)
                g1, g2 = self._prefix_counts(c)[-1]
                g1 += [0] * (len(g2) - len(g1))
                for k in range(2, len(g2)):
                    g1[k] += g2[k]
                counts[c] = g1
                last = c
            if i == len(heights):
                break
            if open_heights and open_heights[-1] == x:
                c = open_ids[-1]
            else:
                c = len(members)
                members.append([])
                children.append([])
                counts.append([])
                open_heights.append(x)
                open_ids.append(c)
            if last >= 0:
                children[c].append(last)
            if in_support[i]:
                members[c].append(i)
        self.root = last
        self.total = _coeff(counts[last], size)

    def _prefix_counts(self, c: int, every: bool = False) -> list[tuple[list[int], list[int]]]:
        """[(G1, G2)] of class c after its last child; with `every`, also
        before each child.  A count list may stop short of degree `size`."""
        w = len(self.members[c])
        g1, g2 = [0, w], [0, 0, w * (w - 1) // 2]
        states = []
        top = self.size + 1
        for child in self.children[c]:
            f = self.counts[child]
            if every:
                states.append((g1.copy(), g2.copy()))
            reach = min(top, len(g1) + len(f) - 1)
            g2 += [0] * (reach - len(g2))
            for i in range(1, len(g1)):
                a = g1[i]
                if a:
                    for j in range(1, min(len(f), reach - i)):
                        g2[i + j] += a * f[j]
            g1 += [0] * (len(f) - len(g1))
            for j in range(1, len(f)):
                g1[j] += f[j]
        states.append((g1, g2))
        return states

    def draw(self, rng: Rng) -> list[int]:
        """A uniform valid set, as sorted grid indices."""
        chosen: list[int] = []
        work = [(self.root, self.size, _randbelow(rng, self.total))]
        while work:
            c, k, r = work.pop()
            states = self._prefix_counts(c, every=True)
            dirs = 1  # the rank's block: sets of size k using one direction, then two
            if r >= _coeff(states[-1][0], k):
                r -= _coeff(states[-1][0], k)
                dirs = 2
            for t in range(len(states) - 1, 0, -1):
                if dirs == 0:
                    break
                before = _coeff(states[t - 1][dirs - 1], k)
                if r < before:
                    continue  # child t stays empty
                r -= before
                child = self.children[c][t - 1]
                f = self.counts[child]
                for a in range(1, min(k, len(f) - 1) + 1):
                    # the other dirs - 1 directions hold k - a points before child t
                    rest = _coeff(states[t - 1][0], k - a) if dirs == 2 else int(a == k)
                    if r < rest * f[a]:
                        r, sub = divmod(r, f[a])
                        work.append((child, a, sub))
                        k -= a
                        dirs -= 1
                        break
                    r -= rest * f[a]
            # the k = dirs points left sit on c itself: the r-th of its w
            # indices, or the r-th of its pairs
            members = self.members[c]
            if dirs == 1:
                chosen.append(members[r])
            elif dirs == 2:
                first = 0
                while r >= len(members) - 1 - first:
                    r -= len(members) - 1 - first
                    first += 1
                chosen += (members[first], members[first + 1 + r])
        return sorted(chosen)


# ---------------------------------------------------------------------------
# From samples to labeled trees


def sample_points(
    ensemble: Ensemble, count: int, rng: Rng, retry_cap: int = DEFAULT_RETRY_CAP
) -> list[PointHandle]:
    """Draw `count` points with distinct identities.

    A point whose identity repeats an earlier one is redrawn, at most
    `retry_cap` times per point (not per call).
    """
    points: list[PointHandle] = []
    taken: set[object] = set()
    for _ in range(count):
        for _ in range(retry_cap + 1):
            p = ensemble.sample_point(rng)
            if p.identity is None or p.identity not in taken:
                break
        else:
            raise RetryLimitError(
                f"identity collisions persist past {retry_cap} redraws of one point; "
                "ensemble too coarse"
            )
        points.append(p)
        taken.add(p.identity)
    return points


def _classify(ensemble: Ensemble, handles: Sequence[PointHandle], key: tuple) -> TripleType:
    """Type of the sorted labels `key`, 1-based into `handles`.

    Every DegenerateSampleError raised here names `key`.
    """
    a, b, c = (handles[x - 1] for x in key)
    try:
        depth, left = ensemble.branch_depth, ensemble.left_value
        d01, d02, d12 = depth(a, b), depth(a, c), depth(b, c)
        if d01 == d02 == d12:
            raise DegenerateSampleError("its three branch points coincide")
        ab, ac, bc = left(a, b), left(a, c), left(b, c)
    except DegenerateSampleError as e:
        raise DegenerateSampleError(f"triple {key}: {e}") from None
    return didendritic._classify(d01, d02, d12, (2 - ab - ac, 1 + ab - bc, ac + bc))


def didendritic_array_from_points(
    ensemble: Ensemble, handles: Sequence[PointHandle]
) -> DidendriticArray:
    """Triple-type table of the tree spanned by the handles (labels 1-based).

    Raises DegenerateSampleError, naming the triple, when some triple has
    tied branch points.
    """
    labels = range(1, len(handles) + 1)
    if len(labels) < 3:
        raise ValueError("need at least three points")
    keys = itertools.combinations(labels, 3)
    return DidendriticArray(labels, {key: _classify(ensemble, handles, key) for key in keys})


def _leaf_order_tree(ensemble: Ensemble, handles: Sequence[PointHandle]) -> LabeledBinaryTree:
    """Tree spanned by the handles (labels 1-based), from O(n log n) queries.

    The points are sorted into leaf order by `left_value`, and
    leaf_order_shape compares the branch points of neighbouring samples.
    The two it compares, of leaves j, j+1 and k, k+1, both lie on the path
    to leaf k, so the deeper is the one of greater `branch_depth`; equal
    depths (three samples meeting at one branch point) raise
    DegenerateSampleError naming a triple.
    """
    n = len(handles)

    def before(a: int, b: int) -> int:
        try:
            return -1 if ensemble.left_value(handles[a], handles[b]) == 1 else 1
        except DegenerateSampleError as e:
            raise DegenerateSampleError(f"pair {(min(a, b) + 1, max(a, b) + 1)}: {e}") from None

    order = sorted(range(n), key=cmp_to_key(before))
    pts = [handles[i] for i in order]
    depth = ensemble.branch_depth
    d = [depth(pts[j], pts[j + 1]) for j in range(n - 1)]

    def deeper(j: int, k: int) -> bool:
        if d[j] != d[k]:
            return d[j] > d[k]
        key = tuple(sorted(order[x] + 1 for x in (j, j + 1, k + 1)))
        raise DegenerateSampleError(
            f"triple {key}: the branch points of labels "
            f"({order[j] + 1}, {order[j + 1] + 1}) and "
            f"({order[k] + 1}, {order[k + 1] + 1}) are equal"
        )

    return LabeledBinaryTree(BinaryTree(leaf_order_shape(n, deeper)), tuple(i + 1 for i in order))


# Whole fresh draws an ExcursionEnsemble tries before it draws from the
# conditioned law's DP.  Each is kept exactly when it is valid, so the law is
# unchanged; callers that draw once per fresh grid (where most first draws
# are valid) then rarely pay for building the DP.
_FRESH_DRAWS = 4


def _valid_draw(
    ensemble: Ensemble, count: int, rng: Rng, retry_cap: int
) -> tuple[list[PointHandle], LabeledBinaryTree]:
    """`count` points with distinct identities and no degenerate pair or
    triple, and the tree they span: the first valid one of repeated whole
    draws (see sample_didendritic).  An ExcursionEnsemble switches to the DP
    of _ConditionedLaw, which has the same law, after _FRESH_DRAWS draws.
    """
    exact = isinstance(ensemble, ExcursionEnsemble)
    for _ in range(_FRESH_DRAWS if exact else retry_cap + 1):
        try:
            handles = sample_points(ensemble, count, rng, retry_cap)
            return handles, _leaf_order_tree(ensemble, handles)
        except RetryLimitError:
            if not exact:
                raise
        except DegenerateSampleError as e:
            last = e
    if exact:
        handles = ensemble._conditioned_draw(count, rng)
        return handles, _leaf_order_tree(ensemble, handles)
    raise RetryLimitError(
        f"degenerate draws persist past {retry_cap} whole redraws of {count} "
        f"points; last degenerate {last}"
    )


def sample_didendritic(
    ensemble: Ensemble, m: int, rng: Rng, retry_cap: int = DEFAULT_RETRY_CAP
) -> LabeledBinaryTree:
    """Tree spanned by m+1 independent samples, labels in sampling order.

    The m+1 points are drawn with distinct identities (`retry_cap` bounds
    the collisions of each point) and with no degenerate triple (tied branch
    points, capped streams): a degenerate draw is redrawn whole, so the tree
    has the law of i.i.d. samples conditioned on validity.  An
    ExcursionEnsemble samples that law exactly and raises RetryLimitError
    only when no valid set exists; the other ensembles raise it after
    `retry_cap` whole redraws, naming the last degenerate pair or triple.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    return _valid_draw(ensemble, m + 1, rng, retry_cap)[1]


def check_ensemble_axioms(
    ensemble: Ensemble,
    n_triples: int,
    rng: Rng,
    retry_cap: int = DEFAULT_RETRY_CAP,
) -> list[str]:
    """Exact per-draw checks on sampled triples; empty when all hold.

    Each accepted draw must show two equal branch segments strictly inside
    the third, antisymmetric pair orientations, and the same orientation of
    the outer point against both cherry members.  Degenerate triples are
    redrawn whole, as sample_didendritic does.
    """
    violations: list[str] = []
    for rep in range(n_triples):
        handles, _ = _valid_draw(ensemble, 3, rng, retry_cap)
        tt = _classify(ensemble, handles, (1, 2, 3))
        for a, b in itertools.permutations(range(3), 2):
            va = ensemble.left_value(handles[a], handles[b])
            vb = ensemble.left_value(handles[b], handles[a])
            if va not in (0, 1) or va + vb != 1:
                violations.append(
                    f"draw {rep}: orientation of ({a + 1}, {b + 1}) is not "
                    f"antisymmetric ({va} vs {vb})"
                )
        solo = tt.outer
        x, y = tt.cherry
        v1 = ensemble.left_value(handles[solo], handles[x])
        v2 = ensemble.left_value(handles[solo], handles[y])
        if v1 != v2:
            violations.append(
                f"draw {rep}: outer point {solo + 1} is oriented differently "
                f"against the two cherry members ({v1} vs {v2})"
            )
    return violations


# ---------------------------------------------------------------------------
# Distance estimation and ultrametric reconstruction


class SampleView:
    """Triple queries over sampled points, labels 1..len(handles)."""

    def __init__(self, ensemble: Ensemble, handles: Sequence[PointHandle]) -> None:
        if len(handles) < 3:
            raise ValueError("need at least three points")
        self.ensemble = ensemble
        self.handles = list(handles)
        self.labels = tuple(range(1, len(handles) + 1))

    def below(self, i: int, j: int, p: int) -> bool:
        """Is sample p strictly below the branch point of samples i and j?"""
        if p == i or p == j:
            return False
        hi, hj, hp = (self.handles[x - 1] for x in (i, j, p))
        return self.ensemble.branch_depth(hi, hp) >= self.ensemble.branch_depth(hi, hj)


def estimate_distance(source, i: int, j: int) -> float:
    """Fraction of the other labels lying below the branch point of i and j.

    `source` is a DidendriticArray or a SampleView; with n+1 labels the sum
    runs over the n-1 labels other than i and j.
    """
    labels = source.labels
    if i == j or i not in labels or j not in labels:
        raise ValueError("need two distinct labels from the source")
    others = [p for p in labels if p != i and p != j]
    if not others:
        raise ValueError("need at least three labels")
    hits = sum(1 for p in others if source.below(i, j, p))
    return hits / len(others)


def distance_matrix(source) -> np.ndarray:
    """Symmetric matrix of estimate_distance over all label pairs, in O(n^2).

    p lies below the branch point of i and j exactly when it is a leaf under
    mrca(i, j) in the tree of the source (decoded from a DidendriticArray,
    spanned by a SampleView's handles), so each internal vertex fills the
    block of pairs it joins with (leaves under it - 2) / (n - 2).  Handles
    with a degenerate triple span no tree and raise DegenerateSampleError;
    estimate_distance still answers them pair by pair.
    """
    if isinstance(source, DidendriticArray):
        lt = decode(source)
    else:
        lt = _leaf_order_tree(source.ensemble, source.handles)
    shape = lt.tree.shape
    n = lt.n_leaves
    ends = _subtree_ends(shape)
    by_leaf = np.zeros((n, n))
    lo = 0  # leaves left of vertex i in preorder
    for i, internal in enumerate(shape):
        if not internal:
            lo += 1
            continue
        mid = lo + (ends[i + 1] - i) // 2
        hi = lo + (ends[i] - i + 1) // 2
        by_leaf[lo:mid, mid:hi] = by_leaf[mid:hi, lo:mid] = (hi - lo - 2) / (n - 2)
    leaf_of = np.argsort(lt.leaf_labels)  # label - 1 -> leaf position
    return by_leaf[np.ix_(leaf_of, leaf_of)]


def attachment_distance(d_matrix: np.ndarray, i: int) -> float:
    """Half the distance from label i (1-based row) to its nearest neighbor."""
    n = d_matrix.shape[0]
    if not 1 <= i <= n:
        raise ValueError("label out of range")
    row = np.delete(d_matrix[i - 1], i - 1)
    return float(row.min()) / 2.0


@dataclass(frozen=True)
class Hierarchy:
    """Merge tree of an ultrametric; leaves carry 1-based labels."""

    height: float
    children: tuple["Hierarchy", ...]
    label: int | None = None

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def _preorder(self) -> list[tuple[float, int | None, int]]:
        """(height, label, number of children) of each node, in preorder; the
        queries walk stacks, so a deep hierarchy needs no deep recursion."""
        out = []
        stack = [self]  # subtrees still to visit, next last
        while stack:
            node = stack.pop()
            out.append((node.height, node.label, len(node.children)))
            stack.extend(reversed(node.children))
        return out

    def leaf_labels(self) -> list[int]:
        """Labels of the leaves below, left to right."""
        return [label for _, label, kids in self._preorder() if not kids]

    def canonical(self):
        """Nested shape with children sorted, heights and sides forgotten."""
        shapes: list[tuple] = []  # of the subtrees after the node reached
        for _, label, kids in reversed(self._preorder()):
            if kids:
                shapes[-kids:] = [("node", tuple(sorted(shapes[-kids:])))]
            else:
                shapes.append(("leaf", label))
        return shapes[0]

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._preorder() == other._preorder()

    def __hash__(self) -> int:
        return hash(tuple(self._preorder()))

    def __repr__(self) -> str:
        out: list[str] = []
        stack: list = [self]  # nodes still to write, or text that closes one
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                out.append(item)
                continue
            out.append(f"{type(item).__qualname__}(height={item.height!r}, children=(")
            stack.append(f"{',' * (len(item.children) == 1)}), label={item.label!r})")
            for k, child in enumerate(reversed(item.children)):
                stack += [", ", child] if k else [child]
        return "".join(out)


class UltrametricError(ValueError):
    """The matrix violates the strong triangle inequality."""


def ultrametric_tree(
    d_matrix: np.ndarray, tol: float = ULTRAMETRIC_TOL
) -> Hierarchy:
    """Single-linkage merge tree of an ultrametric distance matrix.

    Validates finite entries, symmetry, a zero diagonal, nonnegativity, and
    the strong triangle inequality up to `tol` (finite and nonnegative),
    naming a violating triple otherwise.  The pairs are sorted once by
    distance (Gower and Ross, 1969); clusters joined by the pairs of one
    common height become one node, children ordered by their smallest label,
    so exact inputs reproduce the unordered shape of the tree they came
    from.  Validation costs O(n^2), or O(n^3) when some entry exceeds its
    merge height by more than `tol`.
    """
    if not 0 <= tol < math.inf:
        raise ValueError(f"tolerance must be finite and nonnegative, got {tol}")
    d = np.asarray(d_matrix, dtype=float)
    n = d.shape[0]
    if d.ndim != 2 or d.shape != (n, n) or n < 2:
        raise ValueError("need a square matrix of side at least 2")
    if not np.isfinite(d).all():
        raise ValueError("distances must be finite")
    if not np.array_equal(d, d.T):
        raise ValueError("matrix is not symmetric")
    if any(d[i, i] != 0 for i in range(n)):
        raise ValueError("diagonal must be zero")
    if d.min() < 0:
        raise ValueError("negative distance")

    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    # each cluster's root -> (its smallest label, its node, its members)
    nodes = {i: (i + 1, Hierarchy(height=0.0, children=(), label=i + 1), [i]) for i in range(n)}
    # The merge heights c are an ultrametric with c <= d, so d <= c + tol on
    # every pair implies the tolerant inequality; else scan all triples.
    fits = True
    rows, cols = np.triu_indices(n, 1)
    by_height = np.argsort(d[rows, cols], kind="stable")
    rows, cols = rows[by_height], cols[by_height]
    pairs = zip(d[rows, cols].tolist(), rows.tolist(), cols.tolist())
    for h, group in itertools.groupby(pairs, key=lambda pair: pair[0]):
        joins = [(find(i), find(j)) for _, i, j in group]
        merged = {r for join in joins if join[0] != join[1] for r in join}
        for a, b in joins:
            parent[find(a)] = find(b)
        kids: dict[int, list[tuple[int, Hierarchy, list[int]]]] = {}
        for r in sorted(merged, key=lambda r: nodes[r][0]):
            kids.setdefault(find(r), []).append(nodes.pop(r))
        for root, parts in kids.items():
            members = parts[0][2]
            for _, _, part in parts[1:]:
                fits = fits and d[np.ix_(members, part)].max() <= h + tol
                members += part
            nodes[root] = parts[0][0], Hierarchy(h, tuple(kid for _, kid, _ in parts)), members
    if not fits:
        for j in range(n):
            bound = np.maximum.outer(d[:, j], d[j, :])
            bad = np.argwhere(d > bound + tol)
            if bad.size:
                i, k = bad[0]
                raise UltrametricError(
                    f"d({i + 1},{k + 1}) = {d[i, k]} exceeds "
                    f"max(d({i + 1},{j + 1}), d({j + 1},{k + 1})) = {bound[i, k]}"
                )
    return nodes[find(0)][1]
