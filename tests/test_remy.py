"""Forward chain, labeled chain, backward moves, and the three bridges."""

import hashlib
import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from remychain import (
    ALEPH,
    SINGLETON,
    LabeledBinaryTree,
    RetryLimitError,
    SpineState,
    apply_backward_move,
    apply_forward_move,
    backward_moves,
    backward_step,
    backward_step_law,
    backward_transition_prob,
    bridge_marginal_law,
    catalan,
    chain_push_forward,
    count_embeddings,
    count_labeled_trees,
    decode_labeled_tree,
    decode_tree,
    deterministic_unlabel_step,
    dyadic_bridge_sample,
    encode_labeled_tree,
    enumerate_labeled_trees,
    enumerate_trees,
    extract_choice,
    finite_bridge,
    forward_moves,
    forward_step_law,
    kappa_shape_prob,
    labeled_chain,
    labeled_chain_push_forward,
    labeled_forward_step,
    labeled_forward_step_law,
    make_rng,
    martin_kernel,
    remy_chain,
    remy_forward_step,
    spine_bridge_step,
    spine_chain,
    spine_tree,
    transition_prob,
)
from remychain.remy import ALEPH_LABELED, DYADIC_BIT_CAP
from remychain.rng import _BLOCK
from remychain.stats import chi_square, empirical_law
from remychain.trees import BinaryTree, _common_prefix_len, leaf_order_shape
from conftest import relabel, three_sigma, tree_shape_canonical


# ---------------------------------------------------------------------------
# Forward moves on shapes


def test_forward_moves_from_aleph():
    moves = forward_moves(ALEPH)
    assert len(moves) == 6
    outcomes = {apply_forward_move(ALEPH, v, side) for v, side in moves}
    assert outcomes == set(enumerate_trees(2))


def test_forward_moves_from_singleton():
    moves = forward_moves(SINGLETON)
    assert len(moves) == 2
    for v, side in moves:
        assert apply_forward_move(SINGLETON, v, side) == ALEPH


def test_forward_step_law_first_step():
    law = forward_step_law(ALEPH)
    assert set(law) == set(enumerate_trees(2))
    assert all(p == Fraction(1, 2) for p in law.values())


def test_forward_step_law_matches_transition_prob():
    for m in range(1, 4):
        for s in enumerate_trees(m):
            law = forward_step_law(s)
            assert sum(law.values()) == 1
            for t, p in law.items():
                assert p == transition_prob(s, t)


def test_remy_chain_level_one(rng):
    assert remy_chain(1, rng) == ALEPH
    with pytest.raises(ValueError):
        remy_chain(0, rng)


def test_chain_push_forward_is_uniform():
    for n in range(1, 6):
        law = chain_push_forward(n)
        assert len(law) == catalan(n)
        assert all(p == Fraction(1, catalan(n)) for p in law.values())


def test_remy_chain_monte_carlo_uniform(rng):
    n, reps = 5, 100_000
    counts: dict = {}
    for _ in range(reps):
        t = remy_chain(n, rng)
        counts[t] = counts.get(t, 0) + 1
    expected = {t: Fraction(1, catalan(n)) for t in enumerate_trees(n)}
    report = chi_square(counts, expected, significance=0.01, name="chain-uniformity")
    assert report.passed, report.line()


# ---------------------------------------------------------------------------
# The labeled chain


def test_labeled_step_outcomes_are_uniform():
    start = decode_labeled_tree("((1)(2))")
    law = labeled_forward_step_law(start)
    assert len(law) == 6
    assert all(p == Fraction(1, 6) for p in law.values())
    for lt in law:
        assert lt.n_leaves == 3
        assert sorted(lt.leaf_of_label) == [1, 2, 3]


def test_labeled_chain_push_forward_uniform():
    for n in (2, 3, 4):
        law = labeled_chain_push_forward(n)
        total = count_labeled_trees(n)
        assert len(law) == total
        assert all(p == Fraction(1, total) for p in law.values())


def test_labeled_law_projects_to_shape_law():
    for n in (2, 3, 4):
        labeled = labeled_chain_push_forward(n)
        shapes: dict = {}
        for lt, p in labeled.items():
            shapes[lt.tree] = shapes.get(lt.tree, Fraction(0)) + p
        assert shapes == chain_push_forward(n)


def test_labeled_chain_sample_is_valid(rng):
    for _ in range(50):
        lt = labeled_chain(4, rng)
        assert lt.n_leaves == 5
        assert sorted(lt.leaf_of_label) == [1, 2, 3, 4, 5]
        assert set(lt.leaf_of_label.values()) == set(lt.tree.leaves)


# ---------------------------------------------------------------------------
# Backward moves


def test_backward_from_aleph_reaches_singleton():
    assert set(backward_moves(ALEPH)) == {(0,), (1,)}
    for leaf in backward_moves(ALEPH):
        assert apply_backward_move(ALEPH, leaf) == SINGLETON
    assert backward_step_law(ALEPH) == {SINGLETON: Fraction(1)}
    with pytest.raises(ValueError):
        backward_moves(SINGLETON)


def test_backward_from_five_vertices():
    for t in enumerate_trees(2):
        for v in backward_moves(t):
            assert apply_backward_move(t, v) == ALEPH


def test_backward_step_law_is_scaled_embedding_count():
    for n in range(2, 5):
        for t in enumerate_trees(n):
            law = backward_step_law(t)
            assert sum(law.values()) == 1
            for s, p in law.items():
                assert p == backward_transition_prob(s, t)
                assert p == Fraction(count_embeddings(s, t), t.n_leaves)


def test_backward_step_monte_carlo(rng):
    t = decode_tree("(((()())())(()()))")
    law = backward_step_law(t)
    n = 100_000
    counts: dict = {}
    for _ in range(n):
        s = backward_step(t, rng)
        counts[s] = counts.get(s, 0) + 1
    assert set(counts) <= set(law)
    for s, p in law.items():
        assert three_sigma(counts.get(s, 0), n, p)


# ---------------------------------------------------------------------------
# Deterministic unlabeling and the choice variable


def test_unlabel_step_inverts_growth():
    rng = make_rng(7)
    for _ in range(60):
        lt = labeled_chain(int(rng.integers(2, 6)), rng)
        grown = labeled_forward_step(lt, rng)
        assert deterministic_unlabel_step(grown) == lt


def test_unlabel_step_pushes_uniform_to_uniform():
    outputs: dict = {}
    for lt in enumerate_labeled_trees(3):
        out = deterministic_unlabel_step(lt)
        outputs[out] = outputs.get(out, 0) + 1
    assert len(outputs) == count_labeled_trees(2) == 12
    assert set(outputs.values()) == {10}


def test_extract_choice_example():
    lt = LabeledBinaryTree.from_labels(ALEPH, {(0,): 2, (1,): 1})
    assert extract_choice(lt) == 1
    lt2 = LabeledBinaryTree.from_labels(ALEPH, {(0,): 1, (1,): 2})
    assert extract_choice(lt2) == 2


def test_extract_choice_is_uniform_under_uniform_label_law():
    for n in (2, 3, 4):
        counts: dict = {}
        for lt in enumerate_labeled_trees(n):
            c = extract_choice(lt)
            counts[c] = counts.get(c, 0) + 1
        assert set(counts) == set(range(1, n + 2))
        assert len(set(counts.values())) == 1


# Digests of seeded labeled output, measured on the implementation that kept
# labels in a word-keyed map, before they were stored in leaf order.


def short_digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize(
    "n, digest",
    [(5, "636b8f69c52fc923"), (40, "46baa784106fd3a8"), (400, "4dc55f70e6de260c")],
)
def test_labeled_chain_output_is_pinned(n, digest):
    assert short_digest(encode_labeled_tree(labeled_chain(n, make_rng(11)))) == digest


def test_unlabel_peel_is_pinned():
    lt = labeled_chain(40, make_rng(11))
    lines = []
    while lt.n_leaves > 2:
        lines.append(f"{extract_choice(lt)} {encode_labeled_tree(lt)}")
        lt = deterministic_unlabel_step(lt)
    lines.append(encode_labeled_tree(lt))
    assert len(lines) == 40
    assert short_digest("\n".join(lines)) == "f6d0c9f1dc436e31"


def test_choice_sequence_and_shape_form_bijection():
    """Peeling off choices maps labeled trees bijectively onto
    {1..2} x {1..3} x ... x {1..n+1} x shapes, so the choices are jointly
    uniform and independent of the final shape."""
    for n in (3, 4):
        seen = set()
        for lt in enumerate_labeled_trees(n):
            choices = []
            cur = lt
            while cur.n_leaves > 2:
                choices.append(extract_choice(cur))
                cur = deterministic_unlabel_step(cur)
            choices.append(extract_choice(cur))
            key = (tuple(reversed(choices)), lt.tree)
            assert key not in seen
            seen.add(key)
        ranges = [range(1, k + 2) for k in range(1, n + 1)]
        assert len(seen) == count_labeled_trees(n)
        firsts = {c for c, _ in seen}
        assert firsts == set(itertools.product(*ranges))


# ---------------------------------------------------------------------------
# The finite bridge


def test_finite_bridge_endpoints_and_levels(rng):
    assert finite_bridge(ALEPH, rng) == [ALEPH]
    target = decode_tree("((()())(()()))")
    path = finite_bridge(target, rng)
    assert path[0] == ALEPH and path[-1] == target
    assert [t.n_leaves for t in path] == [2, 3, 4]
    with pytest.raises(ValueError):
        finite_bridge(SINGLETON, rng)


def test_bridge_marginal_matches_kernel_ratio():
    for target in enumerate_trees(4):
        for k in range(1, 5):
            law = bridge_marginal_law(target, k)
            assert sum(law.values()) == 1
            for s, p in law.items():
                assert p == martin_kernel(s, target) / catalan(k)


def test_bridge_monte_carlo(rng):
    target = decode_tree("((()(()()))(()()))")
    k = 2
    law = bridge_marginal_law(target, k)
    n = 100_000
    counts: dict = {}
    for _ in range(n):
        path = finite_bridge(target, rng)
        s = path[k - 1]
        counts[s] = counts.get(s, 0) + 1
    assert set(counts) <= set(law)
    for s, p in law.items():
        assert three_sigma(counts.get(s, 0), n, p)


def test_bridge_marginal_rejects_bad_k():
    with pytest.raises(ValueError):
        bridge_marginal_law(ALEPH, 2)


# ---------------------------------------------------------------------------
# The spine bridge


def test_spine_tree_examples():
    assert spine_tree(SpineState(())) == SINGLETON
    assert spine_tree(SpineState((0,))) == ALEPH
    got = spine_tree(SpineState((0, 1)))
    assert set(got.words) == {(), (0,), (1,), (0, 0), (0, 1)}
    assert len(got) == 5


def test_spine_state_validation():
    with pytest.raises(ValueError):
        SpineState((0, 2))


def test_spine_step_law_two_tosses():
    """Inserting a fair bit at a uniform slot keeps the toss word uniform.

    Enumerating all eight (first bit, slot, new bit) combinations, each of
    the four length-two words appears exactly twice, so the two spine shapes
    at five vertices each carry probability 1/2.
    """
    word_counts: dict = {}
    tree_counts: dict = {}
    for start_bit in (0, 1):
        for slot in (0, 1):
            for bit in (0, 1):
                state = SpineState((start_bit,))
                tosses = state.tosses[:slot] + (bit,) + state.tosses[slot:]
                word_counts[tosses] = word_counts.get(tosses, 0) + 1
                t = spine_tree(SpineState(tosses))
                tree_counts[t] = tree_counts.get(t, 0) + 1
    assert word_counts == {(0, 0): 2, (0, 1): 2, (1, 0): 2, (1, 1): 2}
    assert len(tree_counts) == 2
    assert set(tree_counts.values()) == {4}


def test_spine_chain_first_bit_fair(rng):
    n = 20_000
    ones = sum(spine_chain(1, rng).tosses[0] for _ in range(n))
    assert three_sigma(ones, n, Fraction(1, 2))


def test_spine_chain_length(rng):
    for n in (1, 3, 7):
        state = spine_chain(n, rng)
        assert len(state) == n
        assert spine_tree(state).n_leaves == n + 1


# ---------------------------------------------------------------------------
# The dyadic-stream bridge


def test_dyadic_bridge_level_one(rng):
    assert dyadic_bridge_sample(1, rng) == ALEPH
    with pytest.raises(ValueError):
        dyadic_bridge_sample(0, rng)


@pytest.mark.parametrize("n", [2, 3])
def test_dyadic_bridge_matches_kappa(rng, n):
    reps = 10_000
    counts: dict = {}
    for _ in range(reps):
        t = dyadic_bridge_sample(n, rng)
        counts[t] = counts.get(t, 0) + 1
    for t in enumerate_trees(n):
        assert three_sigma(counts.get(t, 0), reps, kappa_shape_prob(t)), t.words


def test_dyadic_bridge_tiny_bit_cap_exhausts_retries(rng):
    with pytest.raises(RetryLimitError):
        dyadic_bridge_sample(5, rng, bit_cap=1, retry_cap=5)


def span_words(words):
    """Plane tree spanned by distinct, prefix-free bit words."""
    ws = sorted(words)
    depth = [_common_prefix_len(a, b) for a, b in zip(ws, ws[1:])]
    return BinaryTree(leaf_order_shape(len(ws), lambda j, k: depth[j] > depth[k]))


def tuple_stream_bridge(n, rng, bit_cap, retry_cap):
    """The dyadic bridge on bit tuples, spanned word by word: the oracle."""

    def draw():
        return tuple(rng.integers(0, 2, size=bit_cap).tolist())

    streams = [draw() for _ in range(n + 1)]
    redraws = [0] * (n + 1)
    while True:
        first = {}
        clash = next(
            (i for i, s in enumerate(streams) if first.setdefault(s, i) != i), None
        )
        if clash is None:
            return span_words(streams)
        redraws[clash] += 1
        if redraws[clash] > retry_cap:
            raise RetryLimitError(
                f"stream collisions persist past {retry_cap} redraws of stream "
                f"{clash + 1} ({sum(redraws) - 1} redraws in all)"
            )
        streams[clash] = draw()


def test_dyadic_bridge_matches_tuple_stream_oracle():
    outcomes = set()
    for seed in range(400):
        bit_cap = (1, 2, 3, 4, DYADIC_BIT_CAP)[seed % 5]
        n, retry_cap = 1 + seed // 5 % 30, seed % 4
        results = []
        for sampler in (dyadic_bridge_sample, tuple_stream_bridge):
            rng = make_rng(seed)
            try:
                out = sampler(n, rng, bit_cap=bit_cap, retry_cap=retry_cap)
            except RetryLimitError as e:
                out = str(e)
            results.append((out, rng.bit_generator.state))
        assert results[0] == results[1], (seed, n, bit_cap, retry_cap)
        outcomes.add(type(results[0][0]))
    assert outcomes == {BinaryTree, str}


# ---------------------------------------------------------------------------
# The draw contract: a sampler that draws a block of bounds per numpy call
# equals the loop of its scalar one-step function, draw for draw


def remy_chain_fold(n, rng):
    t = ALEPH
    for _ in range(n - 1):
        t = remy_forward_step(t, rng)
    return t


def labeled_chain_fold(n, rng):
    lt = ALEPH_LABELED[rng.integers(2)]
    for _ in range(n - 1):
        lt = labeled_forward_step(lt, rng)
    return lt


def bridge_target(n):
    return remy_chain(n, make_rng(n))


def finite_bridge_fold(target, rng):
    path = [target]
    while path[-1].n_leaves > 2:
        path.append(backward_step(path[-1], rng))
    return path[::-1]


def spine_chain_fold(n, rng):
    state = SpineState(())
    for _ in range(n):
        state = spine_bridge_step(state, rng)
    return state


# 30 is the pinned CLI size; _BLOCK + 3 takes a second numpy call.
DRAW_SIZES = [1, 2, 30, _BLOCK + 3]


def seeds_for(n):
    return range(40) if n < _BLOCK else range(1)


@pytest.mark.parametrize("n", DRAW_SIZES)
@pytest.mark.parametrize(
    "sampler, fold",
    [
        (remy_chain, remy_chain_fold),
        (labeled_chain, labeled_chain_fold),
        (lambda n, rng: finite_bridge(bridge_target(n), rng),
         lambda n, rng: finite_bridge_fold(bridge_target(n), rng)),
        (spine_chain, spine_chain_fold),
    ],
    ids=["remy_chain", "labeled_chain", "finite_bridge", "spine_chain"],
)
def test_batched_sampler_equals_its_one_step_fold(sampler, fold, n):
    for seed in seeds_for(n):
        results = []
        for run in (sampler, fold):
            rng = make_rng(seed)
            results.append((run(n, rng), rng.bit_generator.state))
        assert results[0] == results[1], (seed, n)


@pytest.mark.parametrize("n", DRAW_SIZES)
def test_dyadic_bridge_equals_one_draw_per_stream(n):
    outcomes = set()
    for seed in seeds_for(n):
        # the default caps, then 1-4 bits with retries that run out
        for bit_cap, retry_cap in ((DYADIC_BIT_CAP, 100), (1 + seed % 4, seed % 3)):
            results = []
            for sampler in (dyadic_bridge_sample, tuple_stream_bridge):
                rng = make_rng(seed)
                try:
                    out = sampler(n, rng, bit_cap=bit_cap, retry_cap=retry_cap)
                except RetryLimitError as e:
                    out = str(e)
                results.append((out, rng.bit_generator.state))
            assert results[0] == results[1], (seed, n, bit_cap, retry_cap)
            outcomes.add(type(results[0][0]))
    assert str in outcomes and BinaryTree in outcomes


def test_numpy_draws_an_array_of_bounds_like_scalar_calls():
    # The samplers rely on this: if a numpy release breaks it, this fails
    # before any sampler's draws change.
    k = np.arange(3000)
    cases = [
        4 * k + 2,  # forward moves
        3001 - k[:2999],  # backward leaves
        np.stack((k + 1, np.full(3000, 2)), axis=1).ravel(),  # spine slots and bits
        np.array([1, 2, 3, 2**32 - 1, 2**32, 2**32 + 1, 2**40 + 7, 2**62, 2**63 - 1]),
    ]
    for seed in range(10):
        for bounds in cases:
            batched, scalar = make_rng(seed), make_rng(seed)
            assert batched.integers(bounds).tolist() == [int(scalar.integers(h)) for h in bounds]
            assert batched.bit_generator.state == scalar.bit_generator.state
        for bit_cap in (1, 2, 3, 5, 7, 33, 64):
            batched, scalar = make_rng(seed), make_rng(seed)
            rows = batched.integers(0, 2, size=(7, bit_cap)).tolist()
            assert rows == [scalar.integers(0, 2, size=bit_cap).tolist() for _ in range(7)]
            assert batched.bit_generator.state == scalar.bit_generator.state


@pytest.mark.parametrize(
    "sampler", [remy_chain, labeled_chain, spine_chain, dyadic_bridge_sample]
)
def test_size_past_int64_is_rejected_naming_n(sampler):
    with pytest.raises(ValueError, match=r"n = 100000000000000000000 is too large"):
        sampler(10**20, make_rng(0))


# ---------------------------------------------------------------------------
# Exchangeability of the labeled chain


@pytest.mark.parametrize("n", [2, 3])
def test_labeled_chain_law_is_exchangeable(n):
    law = labeled_chain_push_forward(n)
    labels = list(range(1, n + 2))
    for sigma_img in itertools.permutations(labels):
        sigma = dict(zip(labels, sigma_img))
        for lt, p in law.items():
            assert law[relabel(lt, sigma)] == p


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=10), st.integers(min_value=0, max_value=2**32 - 1))
def test_chain_samples_validate(n, seed):
    rng = make_rng(seed)
    t = remy_chain(n, rng)
    assert t.n_leaves == n + 1
    lt = labeled_chain(n, rng)
    assert tree_shape_canonical(lt) is not None
    assert lt.tree.n_leaves == n + 1
