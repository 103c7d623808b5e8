"""Command line interface: outputs, exit codes, seeds, file round-trips."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from remychain import catalan, cli, kernel, martin_kernel, remy, transition_prob, decode_tree
from remychain.cli import EXIT_INVARIANT, EXIT_OK, EXIT_STAT, EXIT_USAGE, dispatch


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def records(out: str):
    return [json.loads(line) for line in out.splitlines() if line.strip()]


# ---------------------------------------------------------------------------
# Exit codes


def test_unknown_command_is_usage_error(capsys):
    code, _, err = run(capsys, "no-such-command")
    assert code == EXIT_USAGE


def test_bad_tree_argument_is_usage_error(capsys):
    code, _, err = run(capsys, "kernel", "--s", "((", "--t", "(()())")
    assert code == EXIT_USAGE
    assert "error" in err


def test_negative_level_is_usage_error(capsys):
    code, _, _ = run(capsys, "chain", "--n", "0")
    assert code == EXIT_USAGE


def test_negative_spine_length_is_usage_error(capsys):
    code, out, err = run(capsys, "spine", "--n", "-1", "--seed", "1")
    assert code == EXIT_USAGE
    assert out == ""
    assert "nonnegative" in err


@pytest.mark.parametrize("reps", ["-1", "0"])
def test_nonpositive_reps_is_usage_error(capsys, reps):
    code, out, err = run(capsys, "chain", "--n", "5", "--reps", reps)
    assert code == EXIT_USAGE
    assert out == ""
    assert "positive integer" in err


def test_sampling_failure_exits_invariant(capsys, monkeypatch):
    def exhausted(n, rng):
        raise remy.RetryLimitError("stream collisions persist past the retry cap")

    monkeypatch.setattr(remy, "dyadic_bridge_sample", exhausted)
    code, out, err = run(capsys, "dyadic", "--n", "5")
    assert code == EXIT_INVARIANT
    assert out == ""
    assert "sampling failed" in err
    assert "Traceback" not in err


def test_huge_reps_count_fails_on_the_first_replica(capsys):
    # A one-step grid has no five distinct points, so the first replica
    # fails; no stream for the other replicas is spawned ahead of it.
    argv = ["ensemble-sample", "--kind", "excursion", "--dyck-n", "1", "--m", "5"]
    code, out, err = run(capsys, *argv, "--reps", "99999999999999999999")
    assert code == EXIT_INVARIANT
    assert out == ""
    assert "sampling failed" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["chain", "spine", "dyadic"])
def test_size_past_int64_exits_usage_at_once(capsys, command):
    start = time.monotonic()
    code, out, err = run(capsys, command, "--n", "100000000000000000000", "--seed", "1")
    assert time.monotonic() - start < 1.0
    assert code == EXIT_USAGE
    assert out == ""
    assert "n = 100000000000000000000 is too large" in err
    assert "Traceback" not in err


def test_every_command_reports_wall_time(capsys):
    _, _, err = run(capsys, "chain", "--n", "3", "--seed", "1")
    assert "wall-time" in err


# ---------------------------------------------------------------------------
# One parser per process


def test_reused_parser_answers_like_a_fresh_one(capsys, monkeypatch):
    monkeypatch.setenv("REMYCHAIN_SEED", "12")
    argvs = [
        ["chain", "--n", "7", "--seed", "4", "--reps", "2"],
        ["chain", "--n", "7", "--no-such-flag"],
        ["spine", "--n", "9", "--seed", "2", "--pretty"],
        ["kernel", "--s", "(()())", "--t", "((()())())"],
        ["chain", "--n", "7"],
    ]
    reused = [run(capsys, *argv)[:2] for argv in argvs]
    fresh = []
    for argv in argvs:
        cli._parser.cache_clear()
        fresh.append(run(capsys, *argv)[:2])
    assert reused == fresh
    assert [code for code, _ in reused] == [EXIT_OK, EXIT_USAGE, EXIT_OK, EXIT_OK, EXIT_OK]


def test_dispatch_builds_the_parser_once(capsys, monkeypatch):
    builds = []

    def counting_build_parser():
        builds.append(1)
        return build_parser()

    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._parser.cache_clear()
    for seed in range(20):
        assert run(capsys, "chain", "--n", "3", "--seed", str(seed))[0] == EXIT_OK
    assert len(builds) == 1
    assert build_parser() is not build_parser()  # the public builder stays fresh


def test_import_builds_no_parser():
    code = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting_init(self, *args, **kwargs):\n"
        "    built.append(1)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting_init\n"
        "import remychain.cli\n"
        "print(len(built))\n"
    )
    src = os.path.dirname(os.path.dirname(remy.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0"]


# ---------------------------------------------------------------------------
# Seeds and replay


def test_same_seed_replays_byte_identical(capsys):
    _, out1, _ = run(capsys, "chain", "--n", "6", "--seed", "9", "--reps", "4")
    _, out2, _ = run(capsys, "chain", "--n", "6", "--seed", "9", "--reps", "4")
    assert out1 == out2
    assert len(records(out1)) == 4


def test_different_seeds_differ(capsys):
    _, out1, _ = run(capsys, "chain", "--n", "8", "--seed", "1")
    _, out2, _ = run(capsys, "chain", "--n", "8", "--seed", "2")
    assert records(out1)[0]["outputs"] != records(out2)[0]["outputs"]


def test_env_seed_is_used(capsys, monkeypatch):
    monkeypatch.setenv("REMYCHAIN_SEED", "31")
    _, out_env, _ = run(capsys, "chain", "--n", "5")
    _, out_flag, _ = run(capsys, "chain", "--n", "5", "--seed", "31")
    assert records(out_env) == records(out_flag)


def test_flag_overrides_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("REMYCHAIN_SEED", "31")
    _, out, _ = run(capsys, "chain", "--n", "5", "--seed", "77")
    assert records(out)[0]["seed"] == 77


def test_bad_env_seed_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("REMYCHAIN_SEED", "not-a-number")
    code, _, err = run(capsys, "chain", "--n", "3")
    assert code == EXIT_USAGE


def test_negative_seed_flag_is_usage_error(capsys):
    code, out, err = run(capsys, "chain", "--n", "3", "--seed", "-3")
    assert code == EXIT_USAGE
    assert out == ""
    assert "--seed" in err and "-3" in err


def test_negative_env_seed_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("REMYCHAIN_SEED", "-4")
    code, out, err = run(capsys, "ensemble-sample", "--kind", "interval", "--m", "3")
    assert code == EXIT_USAGE
    assert out == ""
    assert "REMYCHAIN_SEED" in err and "-4" in err


def test_replicas_are_distinct_streams(capsys):
    _, out, _ = run(capsys, "chain", "--n", "9", "--seed", "5", "--reps", "3")
    recs = records(out)
    assert [r["replica"] for r in recs] == [0, 1, 2]
    assert len({r["outputs"]["tree"] for r in recs}) > 1


GOLDEN_TARGET = "(((()())())((()())(()(()()))))"


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["chain", "--n", "30"], "d62c55b01b25e129"),
        (["bridge", "--target", GOLDEN_TARGET], "9d2cc149da9d2482"),
        (["spine", "--n", "40"], "3433c8d2effa2a7d"),
        (["dyadic", "--n", "30"], "7dd44dab686a7b54"),
        (["dyck", "--n", "20"], "fa35dcf45c5b7d3b"),
        (["ensemble-sample", "--kind", "interval", "--m", "8"], "3c33b63ba1d4bb06"),
        (["ensemble-sample", "--kind", "dyadic", "--m", "8"], "495475428b5e4c9c"),
        # Each excursion row has a degenerate first draw in some replica,
        # which is now replaced by a draw from the exact conditioned law
        # rather than redrawn point by point.
        (
            ["ensemble-sample", "--kind", "excursion", "--dyck-n", "200", "--m", "6"],
            "298601a62c392740",
        ),
        (
            ["ensemble-sample", "--kind", "excursion", "--dyck-n", "300", "--m", "20"],
            "9878a2e37f479380",
        ),
        (
            ["ensemble-sample", "--kind", "excursion", "--dyck-n", "100", "--m", "12"],
            "ecab6c951ff40c26",
        ),
    ],
)
def test_seeded_stdout_is_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, *argv, "--seed", "11", "--reps", "3")
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


# ---------------------------------------------------------------------------
# Values against the library


def test_kernel_command_matches_library(capsys):
    s, t = "(()())", "((()())(()()))"
    code, out, _ = run(capsys, "kernel", "--s", s, "--t", t)
    assert code == EXIT_OK
    rec = records(out)[0]
    s_tree, t_tree = decode_tree(s), decode_tree(t)
    p = transition_prob(s_tree, t_tree)
    k = martin_kernel(s_tree, t_tree)
    assert rec["outputs"]["transition_prob"] == f"{p.numerator}/{p.denominator}"
    assert rec["outputs"]["martin_kernel"] == f"{k.numerator}/{k.denominator}"


def test_chain_outputs_valid_trees(capsys):
    _, out, _ = run(capsys, "chain", "--n", "4", "--seed", "3")
    tree = decode_tree(records(out)[0]["outputs"]["tree"])
    assert tree.n_leaves == 5


def test_deep_spine_encodes_without_recursion_limit(capsys):
    code, out, _ = run(capsys, "spine", "--n", "1500", "--seed", "1")
    assert code == EXIT_OK
    assert decode_tree(records(out)[0]["outputs"]["tree"]).n_leaves == 1501


def test_kernel_on_deep_spine_without_recursion_limit(capsys):
    _, out, _ = run(capsys, "spine", "--n", "1200", "--seed", "1")
    spine = records(out)[0]["outputs"]["tree"]
    code, out, err = run(capsys, "kernel", "--s", "(()())", "--t", spine)
    assert code == EXIT_OK, err
    assert records(out)[0]["outputs"]["count"] == 1201 * 1200 // 2


def test_bridge_to_deep_spine_without_recursion_limit(capsys):
    _, out, _ = run(capsys, "spine", "--n", "1500", "--seed", "1")
    spine = records(out)[0]["outputs"]["tree"]
    code, out, err = run(capsys, "bridge", "--target", spine, "--seed", "2")
    assert code == EXIT_OK, err
    assert "RecursionError" not in err
    path = records(out)[0]["outputs"]["path"]
    assert len(path) == 1500 and path[0] == "(()())" and path[-1] == spine


@pytest.mark.parametrize("hash_seed", ["1", "2"])
def test_pinned_growth_rows_do_not_depend_on_the_hash_seed(hash_seed):
    # Trees hash as bytes and labeled trees as bytes plus a label tuple, and
    # those hashes change with PYTHONHASHSEED; the chain, bridge and labeled
    # ensemble rows of test_seeded_stdout_is_pinned must not.
    rows = [
        (["chain", "--n", "30"], "d62c55b01b25e129"),
        (["bridge", "--target", GOLDEN_TARGET], "9d2cc149da9d2482"),
        (
            ["ensemble-sample", "--kind", "excursion", "--dyck-n", "300", "--m", "20"],
            "9878a2e37f479380",
        ),
    ]
    code = (
        "import hashlib, io, sys, contextlib\n"
        "from remychain.cli import dispatch\n"
        "for argv in sys.argv[1:]:\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):\n"
        "        dispatch(argv.split() + ['--seed', '11', '--reps', '3'])\n"
        "    print(hashlib.sha256(out.getvalue().encode()).hexdigest()[:16])\n"
    )
    src = os.path.dirname(os.path.dirname(remy.__file__))
    env = {**os.environ, "PYTHONHASHSEED": hash_seed}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argvs = [" ".join(argv) for argv, _ in rows]
    done = subprocess.run(
        [sys.executable, "-c", code, *argvs], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [digest for _, digest in rows]


def test_bridge_path_levels(capsys):
    target = "((()())(()()))"
    _, out, _ = run(capsys, "bridge", "--target", target, "--seed", "0")
    path = records(out)[0]["outputs"]["path"]
    assert path[-1] == target
    assert [decode_tree(p).n_leaves for p in path] == [2, 3, 4]


def test_check_harmonic_command(capsys):
    code, out, _ = run(capsys, "check-harmonic", "--max-leaves", "4")
    assert code == EXIT_OK
    rec = records(out)[0]
    assert rec["outputs"]["all_pass"] is True
    assert rec["outputs"]["failures"] == []


def test_check_harmonic_rejects_unenumerable_size_up_front(capsys, monkeypatch):
    def never(h, s):
        raise AssertionError("check_harmonic ran before the size guard")

    monkeypatch.setattr(kernel, "check_harmonic", never)
    code, out, err = run(capsys, "check-harmonic", "--max-leaves", "14")
    assert code == EXIT_USAGE
    assert out == ""
    assert "--max-leaves" in err


def test_kernel_limit_on_two_leaf_source_is_constant_one(capsys):
    code, out, _ = run(capsys, "kernel-limit", "--s", "(()())", "--kmax", "5")
    assert code == EXIT_OK
    outputs = records(out)[0]["outputs"]
    assert outputs["limit"] == "1/1"
    assert [row["kernel"] for row in outputs["values"]] == ["1/1"] * 5
    assert all(row["abs_error"] == 0.0 for row in outputs["values"])


def test_kernel_limit_skips_undersized_depths(capsys):
    code, out, _ = run(capsys, "kernel-limit", "--s", "((()())())", "--kmax", "4")
    assert code == EXIT_OK
    rows = records(out)[0]["outputs"]["values"]
    # Depth 1 has two leaves, too few to host a three-leaf tree, so the
    # table starts at depth 2, where the value already sits at its limit.
    assert [row["k"] for row in rows] == [2, 3, 4]
    assert all(row["abs_error"] == 0.0 for row in rows)


def test_dyck_command_deterministic(capsys):
    _, out1, _ = run(capsys, "dyck", "--n", "6", "--seed", "2", "--reps", "2")
    _, out2, _ = run(capsys, "dyck", "--n", "6", "--seed", "2", "--reps", "2")
    assert out1 == out2
    grid = records(out1)[0]["outputs"]["grid"]
    heights = [int(x) for x in grid.split()]
    assert len(heights) == 13 and heights[0] == heights[-1] == 0


# ---------------------------------------------------------------------------
# Array files through encode / decode / check


def test_encode_decode_round_trip(capsys, tmp_path):
    labeled = "(((1)(3))((2)(4)))"
    code, out, _ = run(capsys, "encode", "--t", labeled)
    assert code == EXIT_OK
    lines = records(out)[0]["outputs"]["array"]
    path = tmp_path / "arr.txt"
    path.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "decode", "--in", str(path))
    assert code == EXIT_OK
    assert records(out)[0]["outputs"]["tree"] == labeled


def test_check_accepts_valid_array(capsys, tmp_path):
    _, out, _ = run(capsys, "encode", "--t", "(((1)(2))(3))")
    lines = records(out)[0]["outputs"]["array"]
    path = tmp_path / "ok.txt"
    path.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "check", "--in", str(path))
    assert code == EXIT_OK
    assert records(out)[0]["outputs"]["ok"] is True


def test_check_flags_corrupted_array(capsys, tmp_path):
    _, out, _ = run(capsys, "encode", "--t", "((((1)(2))(3))(4))")
    lines = records(out)[0]["outputs"]["array"]
    lines[0] = lines[0].rsplit(" ", 1)[0] + " c_ba"
    path = tmp_path / "bad.txt"
    path.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "check", "--in", str(path))
    assert code == EXIT_INVARIANT
    rec = records(out)[0]
    assert rec["outputs"]["ok"] is False
    assert rec["outputs"]["violations"]


def test_decode_rejects_contradictory_lines(capsys, tmp_path):
    path = tmp_path / "contradiction.txt"
    path.write_text("1 2 3 ab_c\n2 1 3 ab_c\n")
    code, _, err = run(capsys, "decode", "--in", str(path))
    assert code == EXIT_INVARIANT
    assert "decode failed" in err


def test_decode_rejects_table_no_tree_has(capsys, tmp_path):
    path = tmp_path / "no_tree.txt"
    path.write_text("1 2 3 c_ab\n1 2 4 ab_c\n1 3 4 ab_c\n2 3 4 ab_c\n")
    code, out, err = run(capsys, "decode", "--in", str(path))
    assert code == EXIT_INVARIANT
    assert out == ""
    assert "decode failed:" in err
    code, out, _ = run(capsys, "check", "--in", str(path))
    assert code == EXIT_INVARIANT
    assert records(out)[0]["outputs"]["violations"]


def test_check_on_malformed_array_is_decode_failure(capsys, tmp_path):
    path = tmp_path / "malformed.txt"
    path.write_text("1 2 x ab_c\n")
    code, out, err = run(capsys, "check", "--in", str(path))
    assert code == EXIT_INVARIANT
    assert out == ""
    assert "decode failed: line 1: bad labels" in err


def test_encode_needs_three_leaves(capsys):
    code, _, err = run(capsys, "encode", "--t", "((1)(2))")
    assert code == EXIT_USAGE


# ---------------------------------------------------------------------------
# Ensembles and grids


def test_ensemble_sample_interval(capsys):
    code, out, _ = run(
        capsys, "ensemble-sample", "--kind", "interval", "--m", "3", "--seed", "8"
    )
    assert code == EXIT_OK
    tree = records(out)[0]["outputs"]["tree"]
    assert tree.count("(") > 0


def test_ensemble_sample_excursion_needs_grid(capsys):
    code, _, err = run(capsys, "ensemble-sample", "--kind", "excursion", "--m", "2")
    assert code == EXIT_USAGE
    assert "grid" in err


def test_nonpositive_dyck_size_is_usage_error(capsys):
    argv = ["ensemble-sample", "--kind", "excursion", "--m", "2", "--dyck-n", "0"]
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert "positive integer" in err


@pytest.mark.parametrize(("heights", "m"), [("0 nan 1 0 0", "2"), ("0 inf 0", "1")])
def test_nonfinite_grid_heights_are_usage_error(capsys, tmp_path, heights, m):
    path = tmp_path / "grid.txt"
    path.write_text(heights + "\n")
    argv = ["ensemble-sample", "--kind", "excursion", "--grid", str(path), "--m", m]
    code, out, err = run(capsys, *argv, "--seed", "1")
    assert code == EXIT_USAGE
    assert out == ""
    assert "finite" in err


def test_ensemble_sample_excursion_from_file(capsys, tmp_path):
    path = tmp_path / "grid.txt"
    path.write_text("0 1 2 1 2 1 0\n")
    code, out, _ = run(
        capsys,
        "ensemble-sample",
        "--kind",
        "excursion",
        "--m",
        "2",
        "--grid",
        str(path),
        "--seed",
        "4",
    )
    assert code == EXIT_OK
    assert records(out)[0]["outputs"]["tree"]


def test_ensemble_sample_excursion_random_grid(capsys):
    code, out, _ = run(
        capsys,
        "ensemble-sample",
        "--kind",
        "excursion",
        "--m",
        "2",
        "--dyck-n",
        "30",
        "--seed",
        "4",
    )
    assert code == EXIT_OK


@pytest.mark.parametrize(
    "flags",
    [
        ["--kind", "interval", "--grid", "GRID"],
        ["--kind", "dyadic", "--dyck-n", "30"],
        ["--kind", "excursion", "--grid", "GRID", "--dyck-n", "30"],
    ],
)
def test_ensemble_sample_grid_flags_only_with_one_excursion_source(capsys, tmp_path, flags):
    path = tmp_path / "grid.txt"
    path.write_text("0 1 2 1 2 1 0\n")
    argv = ["ensemble-sample", "--m", "2", "--seed", "4"]
    code, out, err = run(capsys, *argv, *(str(path) if f == "GRID" else f for f in flags))
    assert code == EXIT_USAGE
    assert out == ""
    assert "--grid" in err or "--dyck-n" in err


# ---------------------------------------------------------------------------
# Ultrametric reconstruction


def test_ultrametric_from_tsv(capsys, tmp_path):
    path = tmp_path / "d.tsv"
    path.write_text("0\t0.2\t0.6\n0.2\t0\t0.6\n0.6\t0.6\t0\n")
    code, out, _ = run(capsys, "ultrametric", "--in", str(path))
    assert code == EXIT_OK
    h = records(out)[0]["outputs"]["hierarchy"]
    assert h["height"] == 0.6
    assert len(h["children"]) == 2


def test_ultrametric_flags_violation(capsys, tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("0\t0.2\t0.6\n0.2\t0\t0.3\n0.6\t0.3\t0\n")
    code, _, err = run(capsys, "ultrametric", "--in", str(path))
    assert code == EXIT_INVARIANT
    assert "failed" in err


def test_ultrametric_rejects_ragged_matrix(capsys, tmp_path):
    path = tmp_path / "ragged.tsv"
    path.write_text("0\t1\n1\n")
    code, _, _ = run(capsys, "ultrametric", "--in", str(path))
    assert code == EXIT_USAGE


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_ultrametric_rejects_bad_tolerance(capsys, tmp_path, tol):
    path = tmp_path / "bad.tsv"
    path.write_text("0\t1\t5\n1\t0\t1\n5\t1\t0\n")
    code, out, err = run(capsys, "ultrametric", "--in", str(path), "--tol", tol)
    assert code == EXIT_USAGE
    assert out == ""
    assert "--tol" in err


@pytest.mark.parametrize("bad", ["inf", "nan"])
def test_ultrametric_rejects_nonfinite_entries(capsys, tmp_path, bad):
    path = tmp_path / "d.tsv"
    path.write_text(f"0\t{bad}\n{bad}\t0\n")
    code, out, err = run(capsys, "ultrametric", "--in", str(path))
    assert code == EXIT_USAGE
    assert out == ""
    assert "finite" in err


def test_ultrametric_too_deep_to_print_exits_invariant(tmp_path):
    # A comb, d(i, j) = max(i, j), nests one level per point.  Under a low
    # recursion limit the merge still succeeds; only writing it out cannot.
    n = 300
    path = tmp_path / "comb.tsv"
    path.write_text(
        "".join(
            "\t".join(str(0 if i == j else max(i, j)) for j in range(n)) + "\n"
            for i in range(n)
        )
    )
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from remychain.cli import dispatch\n"
        "from remychain.ensembles import ultrametric_tree\n"
        "d = np.loadtxt(sys.argv[1], delimiter='\\t')\n"
        "sys.setrecursionlimit(150)\n"
        "h = ultrametric_tree(d)\n"
        "assert h.leaf_labels() == list(range(1, len(d) + 1))\n"
        "depth = 0\n"
        "while not h.is_leaf:\n"
        "    h, depth = h.children[0], depth + 1\n"
        "assert depth == len(d) - 1, depth\n"
        "sys.exit(dispatch(['ultrametric', '--in', sys.argv[1]]))\n"
    )
    src = os.path.dirname(os.path.dirname(remy.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code, str(path)], env=env, capture_output=True, text=True
    )
    assert done.returncode == EXIT_INVARIANT, done.stderr
    assert done.stdout == ""
    assert "too deep" in done.stderr
    assert "Traceback" not in done.stderr


# ---------------------------------------------------------------------------
# Stats utilities


def test_stats_chi2_pass_and_fail(capsys, tmp_path):
    obs = tmp_path / "obs.json"
    exp = tmp_path / "exp.json"
    exp.write_text(json.dumps({"a": "1/2", "b": "1/2"}))
    obs.write_text(json.dumps({"a": 501, "b": 499}))
    code, out, _ = run(
        capsys, "stats", "--mode", "chi2", "--observed", str(obs), "--expected", str(exp)
    )
    assert code == EXIT_OK
    assert records(out)[0]["outputs"]["passed"] is True
    obs.write_text(json.dumps({"a": 900, "b": 100}))
    code, out, _ = run(
        capsys, "stats", "--mode", "chi2", "--observed", str(obs), "--expected", str(exp)
    )
    assert code == EXIT_STAT
    assert records(out)[0]["outputs"]["passed"] is False


def chi2_argv(tmp_path, observed):
    obs = tmp_path / "obs.json"
    exp = tmp_path / "exp.json"
    obs.write_text(json.dumps(observed))
    exp.write_text(json.dumps({"a": "1/2", "b": "1/2"}))
    return ["stats", "--mode", "chi2", "--observed", str(obs), "--expected", str(exp)]


@pytest.mark.parametrize("count", [[1], 1.7, -5, True, "3", None])
def test_stats_chi2_rejects_bad_counts(capsys, tmp_path, count):
    code, out, err = run(capsys, *chi2_argv(tmp_path, {"a": count, "b": 499}))
    assert code == EXIT_USAGE
    assert out == ""
    assert "'a'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("significance", ["2", "nan", "0", "1", "-0.5"])
def test_stats_chi2_rejects_bad_significance(capsys, tmp_path, significance):
    argv = chi2_argv(tmp_path, {"a": 501, "b": 499})
    code, out, err = run(capsys, *argv, "--significance", significance)
    assert code == EXIT_USAGE
    assert out == ""
    assert "significance" in err


def test_stats_chi2_rejects_counts_on_zero_probability_cells(capsys, tmp_path):
    obs = tmp_path / "obs.json"
    exp = tmp_path / "exp.json"
    obs.write_text(json.dumps({"a": 5, "b": 50, "c": 45}))
    exp.write_text(json.dumps({"a": "0", "b": "1/2", "c": "1/2"}))
    argv = ["stats", "--mode", "chi2", "--observed", str(obs), "--expected", str(exp)]
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert "outside the expected support: ['a']" in err


def test_stats_tv_mode(capsys, tmp_path):
    p = tmp_path / "p.json"
    q = tmp_path / "q.json"
    p.write_text(json.dumps({"a": "1/2", "b": "1/2"}))
    q.write_text(json.dumps({"a": "1/4", "b": "3/4"}))
    code, out, _ = run(
        capsys, "stats", "--mode", "tv", "--observed", str(p), "--expected", str(q)
    )
    assert code == EXIT_OK
    assert records(out)[0]["outputs"]["tv"] == 0.25


@pytest.mark.parametrize("bad", ["observed", "expected"])
def test_stats_tv_rejects_law_not_summing_to_one(capsys, tmp_path, bad):
    laws = {"observed": {"a": "1/2", "b": "1/2"}, "expected": {"a": "1/4", "b": "3/4"}}
    laws[bad] = {"a": "3"}
    argv = ["stats", "--mode", "tv"]
    for name, law in laws.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(law))
        argv += [f"--{name}", str(path)]
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert f"{bad}.json: probabilities sum to 3, not 1" in err


@pytest.mark.parametrize("mode", ["chi2", "tv"])
def test_stats_rejects_negative_probability(capsys, tmp_path, mode):
    # The cells sum to 1, so only the sign check can catch the bad law.
    obs = tmp_path / "obs.json"
    exp = tmp_path / "exp.json"
    obs.write_text(json.dumps({"a": 100, "b": 100, "c": 0}))
    exp.write_text(json.dumps({"a": "-1/10", "b": "1/2", "c": "3/5"}))
    argv = ["stats", "--mode", mode, "--observed", str(obs), "--expected", str(exp)]
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert "'a'" in err and "negative" in err


@pytest.mark.parametrize(
    "mode, bad", [("tv", "observed"), ("tv", "expected"), ("chi2", "expected")]
)
def test_stats_rejects_unreadable_probability(capsys, tmp_path, mode, bad):
    laws = {"observed": {"a": 1, "b": 1}, "expected": {"a": "1/2", "b": "1/2"}}
    laws[bad] = {"a": "1/2", "b": "1/0"}
    argv = ["stats", "--mode", mode]
    for name, law in laws.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(law))
        argv += [f"--{name}", str(path)]
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert "'b'" in err and "1/0" in err


def test_stats_missing_file_is_usage_error(capsys, tmp_path):
    code, _, _ = run(
        capsys,
        "stats",
        "--mode",
        "tv",
        "--observed",
        str(tmp_path / "nope.json"),
        "--expected",
        str(tmp_path / "nope2.json"),
    )
    assert code == EXIT_USAGE


def test_non_utf8_input_file_is_usage_error_naming_it(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe0 1 0\n")
    good = tmp_path / "probs.json"
    good.write_text(json.dumps({"a": "1/2", "b": "1/2"}))
    argvs = [
        ["decode", "--in", str(bad)],
        ["ultrametric", "--in", str(bad)],
        ["stats", "--mode", "tv", "--observed", str(bad), "--expected", str(good)],
        ["ensemble-sample", "--kind", "excursion", "--grid", str(bad), "--m", "2"],
    ]
    for argv in argvs:
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE, argv
        assert out == ""
        assert f"cannot read {bad}" in err, argv


def test_non_utf8_stdin_is_usage_error_naming_it(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"\xff\xfe"), "utf-8"))
    code, out, err = run(capsys, "decode", "--in", "-")
    assert code == EXIT_USAGE
    assert out == ""
    assert "cannot read stdin" in err


# ---------------------------------------------------------------------------
# Output formats


def test_pretty_output_is_line_oriented(capsys):
    code, out, _ = run(capsys, "kernel", "--s", "(()())", "--t", "((()())())", "--pretty")
    assert code == EXIT_OK
    assert "martin_kernel" in out
    with pytest.raises(json.JSONDecodeError):
        json.loads(out.splitlines()[0])


def test_json_output_has_sorted_keys(capsys):
    _, out, _ = run(capsys, "chain", "--n", "2", "--seed", "0")
    line = out.splitlines()[0]
    rec = json.loads(line)
    assert line == json.dumps(rec, sort_keys=True)


def test_embeddings_command_lists_all_maps(capsys):
    code, out, _ = run(capsys, "embeddings", "--s", "(()())", "--t", "((()())())")
    assert code == EXIT_OK
    rec = records(out)[0]
    assert rec["outputs"]["count"] == 3
    embs = rec["outputs"]["embeddings"]
    assert len(embs) == 3
    # Each map covers the three words of the two-leaf source exactly once.
    for pairs in embs:
        assert sorted(p[0] for p in pairs) == ["0", "1", "e"]


# ---------------------------------------------------------------------------
# Argv fuzz: every argv ends in a documented exit code and strict JSON lines

FUZZ_FILES = {
    "array": "1 2 3 ab_c\n",
    "array-labels": "1 2 x ab_c\n",
    "array-fields": "1 2 3\n",
    "array-repeat": "1 1 2 ab_c\n",
    "array-token": "1 2 3 zz\n",
    "array-contradiction": "1 2 3 ab_c\n2 1 3 ab_c\n",
    "array-no-tree": "1 2 3 c_ab\n1 2 4 ab_c\n1 3 4 ab_c\n2 3 4 ab_c\n",
    "tsv": "0\t0.2\t0.6\n0.2\t0\t0.6\n0.6\t0.6\t0\n",
    "tsv-violation": "0\t0.2\t0.6\n0.2\t0\t0.3\n0.6\t0.3\t0\n",
    "tsv-ragged": "0\t1\n1\n",
    "tsv-words": "0\tx\nx\t0\n",
    "tsv-nan": "0\tnan\nnan\t0\n",
    "tsv-asymmetric": "0\t1\n2\t0\n",
    "grid": "0 1 2 1 2 1 0\n",
    "grid-step": "0 2 0\n",
    "grid-negative": "0 -1 0\n",
    "grid-inf": "0 inf 0\n",
    "grid-words": "up down\n",
    "counts": '{"a": 501, "b": 499}',
    "counts-skewed": '{"a": 900, "b": 100}',
    "counts-zero-cell": '{"a": 5, "b": 50, "c": 45}',
    "counts-bad": '{"a": 1.5, "b": -2}',
    "probs": '{"a": "1/2", "b": "1/2"}',
    "probs-zero-cell": '{"a": "0", "b": "1/2", "c": "1/2"}',
    "probs-negative": '{"a": "-1/2", "b": "3/2"}',
    "probs-unreadable": '{"a": "1/2", "b": "1/0"}',
    "json-nan": '{"a": NaN, "b": Infinity}',
    "json-list": "[1, 2]",
    "json-truncated": '{"a": ',
    "empty": "",
}


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    paths = {"missing": str(root / "missing.txt"), "directory": str(root)}
    for name, text in FUZZ_FILES.items():
        (root / name).write_text(text)
        paths[name] = str(root / name)
    (root / "utf8").write_bytes(b"1 2 3 \xff\xfe\n")
    paths["utf8"] = str(root / "utf8")
    return paths


def _sizes(hi=12):
    # Mostly in range, now and then negative or not a number.
    return st.sampled_from([*map(str, range(hi + 1)), "-1", "x", ""])


def _file(files, kind=""):
    """A path from the fuzz set, of the given kind or, half the time, any."""
    named = st.sampled_from(sorted(k for k in files if k.startswith(kind))).map(files.get)
    return st.one_of(named, st.sampled_from(sorted(files)).map(files.get))


def _maybe(draw, flag, values):
    return [flag, draw(values)] if draw(st.booleans()) else []


_TREES = st.sampled_from(
    ["(()())", "((()())())", "(((()())())(()()))", GOLDEN_TARGET, "()", "((", "(()()", "x", ""]
)
_LABELED = st.sampled_from(
    ["(((1)(3))((2)(4)))", "(((1)(2))(3))", "((1)(2))", "(((1)(1))(3))", "(((1)(2))(5))", "((1)"]
)
_SEEDED = {"chain", "bridge", "spine", "dyadic", "dyck", "ensemble-sample"}
_COMMANDS = {
    "chain": lambda draw, files: ["--n", draw(_sizes())],
    "bridge": lambda draw, files: ["--target", draw(_TREES)],
    "spine": lambda draw, files: ["--n", draw(_sizes())],
    "dyadic": lambda draw, files: ["--n", draw(_sizes())],
    "dyck": lambda draw, files: ["--n", draw(_sizes())],
    "kernel": lambda draw, files: ["--s", draw(_TREES), "--t", draw(_TREES)],
    "embeddings": lambda draw, files: ["--s", draw(_TREES), "--t", draw(_TREES)],
    # check-harmonic takes seconds from 10 leaves on, so the fuzz stops at 7.
    "check-harmonic": lambda draw, files: ["--max-leaves", draw(_sizes(7))],
    "kernel-limit": lambda draw, files: ["--s", draw(_TREES), "--kmax", draw(_sizes())],
    "encode": lambda draw, files: ["--t", draw(_LABELED)],
    "decode": lambda draw, files: ["--in", draw(_file(files, "array"))],
    "check": lambda draw, files: ["--in", draw(_file(files, "array"))],
    "ensemble-sample": lambda draw, files: [
        "--kind",
        draw(st.sampled_from(["interval", "dyadic", "excursion", "bogus"])),
        "--m",
        draw(_sizes()),
        *_maybe(draw, "--grid", _file(files, "grid")),
        *_maybe(draw, "--dyck-n", _sizes()),
    ],
    "ultrametric": lambda draw, files: [
        "--in",
        draw(_file(files, "tsv")),
        *_maybe(draw, "--tol", st.sampled_from(["0", "1e-9", "0.5", "nan", "-1", "x"])),
    ],
    "stats": lambda draw, files: [
        "--mode",
        draw(st.sampled_from(["chi2", "tv", "bogus"])),
        "--observed",
        draw(st.one_of(_file(files, "counts"), _file(files, "probs"))),
        "--expected",
        draw(_file(files, "probs")),
        *_maybe(draw, "--significance", st.sampled_from(["0.01", "1e-6", "0", "2", "nan"])),
    ],
    "no-such-command": lambda draw, files: [],
}


def _argv(draw, files) -> list[str]:
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    argv = [command, *_COMMANDS[command](draw, files)]
    # The seed and replica flags are usage errors on the other commands.
    if command in _SEEDED or draw(st.integers(0, 9)) == 0:
        argv += _maybe(draw, "--seed", st.sampled_from(["0", "7", "123456", "-3", "x"]))
        argv += _maybe(draw, "--reps", st.sampled_from(["1", "2", "3", "0", "x"]))
    if draw(st.integers(0, 4)) == 0:
        argv.append("--pretty")
    return argv


def _strict_json(line: str):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(line, parse_constant=reject)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_fuzzed_argv_exits_cleanly_with_strict_json(fuzz_files, data):
    argv = _argv(data.draw, fuzz_files)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dispatch(argv)
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_INVARIANT, EXIT_STAT), (argv, err.getvalue())
    if "--pretty" not in argv:
        for line in out.getvalue().splitlines():
            _strict_json(line)
