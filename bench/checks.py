"""Output checks that hold for any correct implementation.

Exact results are compared with `Fraction` equality and no float tolerance.
Sampled results get law-free checks only (sizes, label sets, path shape,
identities that hold for every draw), so a change in how the library uses
its seeded streams cannot break them.  Trees are parsed here without
recursion and without the library, so a malformed string is caught even
when the library would accept it.

Run `python3 bench/checks.py` to self-test the checker: each corrupted
output must be flagged.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction

from gen import spine_string

ALEPH = "(()())"


class CheckFailure(AssertionError):
    """An operation returned a wrong answer."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailure(message)


def catalan(m: int) -> int:
    return math.comb(2 * m, m) // (m + 1)


def parse_tree(text: str) -> list[int | None]:
    """Leaf labels in left-to-right order.

    Accepts '()' leaves (label None) or '(k)' leaves; every internal node
    must have exactly two children.  Raises CheckFailure when malformed.
    """
    labels: list[int | None] = []
    open_children: list[int] = []
    i, n = 0, len(text)
    done = False
    while i < n:
        require(not done, f"trailing text at {i} in {text[:60]!r}")
        require(text[i] in "()", f"unexpected {text[i]!r} at {i}")
        if text[i] == "(":
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == ")":
                labels.append(int(text[i + 1 : j]) if j > i + 1 else None)
                i = j + 1
            else:
                open_children.append(0)
                i += 1
                continue
        else:
            require(bool(open_children) and open_children[-1] == 2,
                    f"node closed with the wrong number of children at {i}")
            open_children.pop()
            i += 1
        if open_children:
            open_children[-1] += 1
            require(open_children[-1] <= 2, f"node with three children at {i}")
        else:
            done = True
    require(done, f"unbalanced tree string {text[:60]!r}")
    return labels


def shape_leaves(text: str) -> int:
    """Leaf count of an unlabeled tree string, which must be well formed."""
    labels = parse_tree(text)
    require(all(lab is None for lab in labels), "unexpected leaf labels")
    return len(labels)


def check_labeled(text: str, n_labels: int) -> None:
    labels = parse_tree(text)
    require(None not in labels, "a leaf has no label")
    require(sorted(labels) == list(range(1, n_labels + 1)), f"labels are not 1..{n_labels}")


def word_tree_leaves(words) -> int:
    """Leaf count of a word-set tree after checking prefix and sibling closure."""
    ws = set(words)
    require(() in ws, "tree has no root")
    for w in ws:
        if w:
            require(w[:-1] in ws, "missing parent")
            require(w[:-1] + (1 - w[-1],) in ws, "missing sibling")
    leaves = sum(1 for w in ws if w + (0,) not in ws)
    require(len(ws) == 2 * leaves - 1, "vertex and leaf counts disagree")
    return leaves


def records(stdout: str, command: str, count: int) -> list[dict]:
    recs = [json.loads(line) for line in stdout.splitlines() if line.strip()]
    require(len(recs) == count, f"{command}: expected {count} records, got {len(recs)}")
    for r, rec in enumerate(recs):
        require(rec.get("command") == command, f"record {r} is not from {command}")
    return recs


def replicas(recs: list[dict]) -> None:
    require([rec.get("replica") for rec in recs] == list(range(len(recs))),
            "replica indices are not 0..reps-1")


# ---------------------------------------------------------------------------
# Sampled growth outputs


def check_chain(n: int, stdout: str, reps: int = 1) -> list[str]:
    recs = records(stdout, "chain", reps)
    replicas(recs)
    trees = [rec["outputs"]["tree"] for rec in recs]
    for t in trees:
        require(shape_leaves(t) == n + 1, f"chain --n {n} gave a tree without {n + 1} leaves")
    return trees


def check_bridge(target: str, stdout: str) -> None:
    (rec,) = records(stdout, "bridge", 1)
    path = rec["outputs"]["path"]
    require(path[0] == ALEPH, "bridge path does not start at the two-leaf tree")
    require(path[-1] == target, "bridge path does not end at its target")
    counts = [shape_leaves(t) for t in path]
    require(counts == list(range(2, len(path) + 2)), "bridge leaf counts do not rise by one")


def check_spine(n: int, stdout: str) -> None:
    (rec,) = records(stdout, "spine", 1)
    tosses, tree = rec["outputs"]["tosses"], rec["outputs"]["tree"]
    require(len(tosses) == n and set(tosses) <= {"0", "1"}, f"spine --n {n}: bad tosses")
    require(shape_leaves(tree) == n + 1, f"spine --n {n}: tree without {n + 1} leaves")
    require(tree == spine_string(tosses), "spine tree does not follow its tosses")


def check_dyadic(n: int, stdout: str) -> None:
    (rec,) = records(stdout, "dyadic", 1)
    require(shape_leaves(rec["outputs"]["tree"]) == n + 1, f"dyadic --n {n}: wrong leaf count")


def check_growth_path(path, n_leaves: int) -> None:
    """A conditioned-growth run: one more leaf per step, ending at n_leaves."""
    counts = [word_tree_leaves(t.words) for t in path]
    require(counts == list(range(2, n_leaves + 1)), "growth leaf counts do not rise by one")


def shapes_with_leaves(n: int) -> list[str]:
    """Every plane binary tree string with n leaves, built bottom up."""
    table = [[], ["()"]]
    for k in range(2, n + 1):
        table.append(["(" + a + b + ")" for i in range(1, k) for a in table[i] for b in table[k - i]])
    return table[n]


def tally_law(stdout: str, reps: int) -> dict[str, int]:
    """Shape counts of `chain --n 4` replicas, each a valid five-leaf tree."""
    trees = check_chain(4, stdout, reps)
    tally: dict[str, int] = {}
    for t in trees:
        tally[t] = tally.get(t, 0) + 1
    return tally


def check_chi_square(stdout: str, reps: int) -> None:
    (rec,) = records(stdout, "stats", 1)
    out = rec["outputs"]
    require(out["sample_size"] == reps, "chi-square saw the wrong sample size")
    require(out["passed"] is True, f"five-leaf shapes fail uniformity: {out}")


# ---------------------------------------------------------------------------
# Exact kernel outputs


def check_level4_sum(counts: list[int], t_leaves: int) -> None:
    """Every 5-leaf subset of t spans exactly one level-4 shape."""
    require(all(isinstance(c, int) and c >= 0 for c in counts), "negative or non-integer count")
    require(sum(counts) == math.comb(t_leaves, 5),
            f"sum of N(s, t) over level 4 is {sum(counts)}, not C({t_leaves}, 5)")


def check_kernel(s: str, t: str, stdout: str) -> None:
    (rec,) = records(stdout, "kernel", 1)
    out = rec["outputs"]
    count, tp, mk = out["count"], Fraction(out["transition_prob"]), Fraction(out["martin_kernel"])
    require(isinstance(count, int) and count >= 0, "embedding count is not a count")
    require(mk == catalan(shape_leaves(t) - 1) * tp,
            "martin_kernel is not catalan(level t) * transition_prob")
    if s == ALEPH:
        require(mk == 1, "K(ALEPH, t) is not 1")


def check_kernel_limit(stdout: str, kmax: int) -> None:
    (rec,) = records(stdout, "kernel-limit", 1)
    rows = rec["outputs"]["values"]
    require([row["k"] for row in rows] == list(range(2, kmax + 1)), "kernel-limit rows are not k = 2..kmax")
    errs = [row["abs_error"] for row in rows]
    require(all(a > b for a, b in zip(errs, errs[1:])), "kernel-limit errors do not decrease strictly")


def check_push_forward(law, n: int) -> None:
    c = catalan(n)
    require(len(law) == c, f"push-forward at level {n} has {len(law)} shapes, not {c}")
    for t, p in law.items():
        require(word_tree_leaves(t.words) == n + 1, "push-forward shape at the wrong level")
        require(p == Fraction(1, c), f"push-forward probability {p} is not 1/{c}")


def check_bridge_law(law, k: int, kernel_of) -> None:
    require(sum(law.values()) == 1, "bridge marginal law does not sum to 1")
    for s, p in law.items():
        require(word_tree_leaves(s.words) == k + 1, "bridge marginal at the wrong level")
        require(p == kernel_of(s) / catalan(k), "bridge marginal is not K(s, t) / catalan(k)")


def check_harmonic(stdout: str, max_leaves: int) -> None:
    (rec,) = records(stdout, "check-harmonic", 1)
    out = rec["outputs"]
    expected = sum(catalan(m) for m in range(1, max_leaves))
    require(out["trees_checked"] == expected, f"checked {out['trees_checked']} trees, not {expected}")
    require(out["all_pass"] is True and out["failures"] == [], "harmonic identity fails")


def check_step_law(law, s_leaves: int, prob_of) -> None:
    require(sum(law.values()) == 1, "h-transform row does not sum to 1")
    for t, p in law.items():
        require(word_tree_leaves(t.words) == s_leaves + 1, "h-transform step to the wrong level")
        require(p == prob_of(t), "h-transform row disagrees with h_transform_transition_prob")


# ---------------------------------------------------------------------------
# Codec and boundary outputs


def check_sample(stdout: str, m: int) -> None:
    (rec,) = records(stdout, "ensemble-sample", 1)
    check_labeled(rec["outputs"]["tree"], m + 1)


def check_encode(stdout: str, lines: list[str]) -> None:
    (rec,) = records(stdout, "encode", 1)
    require(sorted(rec["outputs"]["array"]) == sorted(lines), "encoded array differs from the triple types")


def check_decode(stdout: str, tree: str) -> None:
    (rec,) = records(stdout, "decode", 1)
    require(rec["outputs"]["tree"] == tree, "decode does not reproduce the input tree")


def check_axioms(stdout: str) -> None:
    (rec,) = records(stdout, "check", 1)
    require(rec["outputs"]["ok"] is True and rec["outputs"]["violations"] == [],
            "axioms flag the array of a tree")


def check_left_of(got: bool, i: int, j: int, words) -> None:
    """Leaf i hangs left at its branch point with j exactly when its word sorts first."""
    require(got == (words[i] < words[j]), f"left_of({i}, {j}, {i}, {i}) is {got}")


def check_distances(d, xs: list[float]) -> None:
    """Symmetric, zero diagonal, in [0, 1], and for interval points exactly
    the share of other points lying above the pair's branch point min(x_i, x_j)."""
    n = len(xs)
    rank = {x: r for r, x in enumerate(sorted(xs))}
    for i in range(n):
        require(d[i][i] == 0, "nonzero diagonal")
        for j in range(i + 1, n):
            require(d[i][j] == d[j][i], "distance matrix is not symmetric")
            require(0 <= d[i][j] <= 1, "distance outside [0, 1]")
            above = n - 2 - rank[min(xs[i], xs[j])]
            require(d[i][j] == above / (n - 2), f"d({i + 1}, {j + 1}) miscounts the points below")


def hierarchy_string(root) -> str:
    """Labeled tree string of a merge tree, children ordered by smallest label."""
    low: dict[int, int] = {}
    order = [root]
    for node in order:
        order.extend(node.children)
    for node in reversed(order):
        low[id(node)] = node.label if not node.children else min(low[id(c)] for c in node.children)
    out = []
    stack = [root]
    while stack:
        node = stack.pop()
        if node is None:
            out.append(")")
        elif not node.children:
            out.append(f"({node.label})")
        else:
            require(len(node.children) == 2, "recovered merge tree is not binary")
            out.append("(")
            stack.append(None)
            stack.extend(sorted(node.children, key=lambda c: -low[id(c)]))
    return "".join(out)


def lex_labeled(shape: str) -> str:
    """The shape with its leaves labeled 1, 2, ... from left to right."""
    out, label, i = [], 0, 0
    while i < len(shape):
        if shape.startswith("()", i):
            label += 1
            out.append(f"({label})")
            i += 2
        else:
            out.append(shape[i])
            i += 1
    return "".join(out)


def check_contour(root, shape: str) -> None:
    require(hierarchy_string(root) == lex_labeled(shape), "contour recovery lost the input's shape")


# ---------------------------------------------------------------------------
# Self-test


def flagged(check, *args) -> bool:
    try:
        check(*args)
    except (CheckFailure, ValueError, KeyError):
        return True
    return False


def self_test() -> list[str]:
    """Feed corrupted outputs to the checks; return the corruptions missed."""
    missed = []
    tree = "((()())(()(()())))"  # five leaves
    good = json.dumps({"command": "chain", "replica": 0, "outputs": {"tree": tree}})
    dropped = good.replace("(()())))", "()))")  # a cherry collapsed: one leaf gone
    if flagged(check_chain, 4, good) or not flagged(check_chain, 4, dropped):
        missed.append("dropped leaf")

    t = "((()())((()())()))"  # five leaves, level 4
    c = catalan(4)
    kernel = {"count": 10, "transition_prob": f"1/{c}", "martin_kernel": "1/1"}
    off = dict(kernel, martin_kernel="2/1")  # 1 + 1/denominator
    rec = lambda out: json.dumps({"command": "kernel", "outputs": out})
    if flagged(check_kernel, ALEPH, t, rec(kernel)) or not flagged(check_kernel, ALEPH, t, rec(off)):
        missed.append("Fraction off by 1/denominator")

    labeled = "(((1)(3))((2)(4)))"
    swapped = "(((1)(2))((3)(4)))"
    dec = lambda text: json.dumps({"command": "decode", "outputs": {"tree": text}})
    if flagged(check_decode, dec(labeled), labeled) or not flagged(check_decode, dec(swapped), labeled):
        missed.append("two swapped labels")
    return missed


if __name__ == "__main__":
    missed = self_test()
    print("checker self-test:", "ok" if not missed else f"missed {missed}")
    sys.exit(1 if missed else 0)
