"""Seeded input generators that share no code with the library's samplers.

Every generator takes a `random.Random`, so the same workload seed gives the
same inputs whatever the library does with its own random streams.  Trees
come out as parenthesis strings, grids as height lists and triple-type arrays
as text lines: the library only ever sees these generated strings, files and
plain objects.  Nothing here recurses, so deep trees are safe to build.
"""

from __future__ import annotations

import itertools
import random

CLOSE = -1


def remy_links(n_internal: int, rnd: random.Random) -> list[int]:
    """Knuth's Algorithm R (TAOCP 4A, 7.2.1.6): a uniform tree on flat links.

    Nodes are 0..2N; odd nodes are internal, even nodes are leaves, L[0]
    points at the root and the children of internal node v are L[v] and
    L[v + 1].  Leaf 2j is the leaf created at step j.
    """
    links = [0] * (2 * n_internal + 1)
    for n in range(n_internal):
        x = rnd.randrange(4 * n + 2)
        b, k = x % 2, x // 2
        links[2 * n + 2 - b] = 2 * n + 2
        links[2 * n + 1 + b] = links[k]
        links[k] = 2 * n + 1
    return links


def _walk(links: list[int]):
    """Preorder events: (node, path) for each node and CLOSE after internals."""
    stack: list[tuple[int, tuple[int, ...]]] = [(links[0], ())]
    while stack:
        v, path = stack.pop()
        if v == CLOSE:
            yield CLOSE, path
            continue
        yield v, path
        if v % 2:
            stack.append((CLOSE, path))
            stack.append((links[v + 1], path + (1,)))
            stack.append((links[v], path + (0,)))


def shape_string(links: list[int]) -> str:
    out = []
    for v, _ in _walk(links):
        out.append(")" if v == CLOSE else "(" if v % 2 else "()")
    return "".join(out)


def uniform_shape(n_leaves: int, rnd: random.Random) -> str:
    """Parenthesis string of a uniform plane binary tree with n_leaves leaves."""
    return shape_string(remy_links(n_leaves - 1, rnd))


def uniform_labeled(n_leaves: int, rnd: random.Random) -> tuple[str, dict[int, tuple[int, ...]]]:
    """A uniform leaf-labeled tree and the 0/1 word of each label's leaf.

    Labels follow creation order, which makes every labeled tree equally
    likely when growth starts from a single leaf.
    """
    links = remy_links(n_leaves - 1, rnd)
    out = []
    words: dict[int, tuple[int, ...]] = {}
    for v, path in _walk(links):
        if v == CLOSE:
            out.append(")")
        elif v % 2:
            out.append("(")
        else:
            label = v // 2 + 1
            words[label] = path
            out.append(f"({label})")
    return "".join(out), words


def spine_string(tosses: str) -> str:
    """Tree of a toss word: the spine plus one pendant leaf per level.

    Built from the deepest level up, so a word of any length is fine.
    """
    text = "()"
    for bit in reversed(tosses):
        text = "(" + text + "()" + ")" if bit == "0" else "(" + "()" + text + ")"
    return text


def dyck_heights(n: int, rnd: random.Random) -> list[int]:
    """Uniform Dyck path of 2n steps by the cycle lemma.

    Of the cyclic shifts of a shuffled word with n+1 rises and n falls,
    exactly one keeps every partial sum positive: the one starting just
    after the last minimum of the prefix sums.  Dropping its first rise
    leaves a uniform Dyck path.
    """
    steps = [1] * (n + 1) + [-1] * n
    rnd.shuffle(steps)
    sums = list(itertools.accumulate(steps))
    low = min(sums)
    start = max(i for i, s in enumerate(sums) if s == low) + 1
    rotated = steps[start:] + steps[:start]
    return [0] + list(itertools.accumulate(rotated[1:]))


def interval_draws(count: int, rnd: random.Random) -> list[tuple[float, float]]:
    """(x, aux) pairs with x uniform on [0, 1) and all x distinct."""
    out: list[tuple[float, float]] = []
    seen: set[float] = set()
    while len(out) < count:
        x, aux = rnd.random(), rnd.random()
        if x not in seen:
            seen.add(x)
            out.append((x, aux))
    return out


def _lcp(u: tuple[int, ...], v: tuple[int, ...]) -> int:
    k = 0
    for a, b in zip(u, v):
        if a != b:
            break
        k += 1
    return k


def triple_token(wa: tuple[int, ...], wb: tuple[int, ...], wc: tuple[int, ...]) -> str:
    """Triple type of three leaf words, slots a, b, c in the given order.

    The pair with the deepest branch point is the cherry, written left
    member first; it goes before the lone leaf when it hangs left of the
    triple's root ('ab_c') and after it otherwise ('c_ab').
    """
    words = (wa, wb, wc)
    pairs = ((0, 1), (0, 2), (1, 2))
    depths = [_lcp(words[x], words[y]) for x, y in pairs]
    deepest = max(range(3), key=depths.__getitem__)
    x, y = pairs[deepest]
    if words[x][depths[deepest]] == 1:
        x, y = y, x
    solo = 3 - x - y
    letters = "abc"
    pair = letters[x] + letters[y]
    on_left = words[x][min(depths)] == 0
    return f"{pair}_{letters[solo]}" if on_left else f"{letters[solo]}_{pair}"


def triple_lines(words: dict[int, tuple[int, ...]]) -> list[str]:
    """The 'i j k token' array lines of a labeled tree, one per sorted triple."""
    return [
        f"{i} {j} {k} {triple_token(words[i], words[j], words[k])}"
        for i, j, k in itertools.combinations(sorted(words), 3)
    ]
