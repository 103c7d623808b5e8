"""Command-line surface: samplers, exact kernels, codecs, and statistics.

Every command writes JSON-lines records to standard output, one per result,
each carrying the command name, its parameters, the seed, a replica index
for sampled output, and the outputs themselves.  Replaying the same
(command, parameters, seed) reproduces the records byte for byte; wall
time is reported on standard error so it never perturbs replay.  Exact
probabilities are printed as "numerator/denominator" strings.

Exit codes: 0 success, 1 usage or input error, 2 invariant or axiom
failure, 3 statistical-test failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from fractions import Fraction
from typing import Any, Callable, Sequence

import numpy as np

from . import didendritic, ensembles, kernel, remy, stats, trees
from .rng import Rng, make_rng

ENV_SEED = "REMYCHAIN_SEED"
_JSON = json.JSONEncoder(sort_keys=True, default=str)  # one for every record

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVARIANT = 2
EXIT_STAT = 3


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_USAGE) -> None:
        super().__init__(message)
        self.code = code


# How dispatch reports each failure: (exception class, exit code, stderr
# prefix), first match wins.  The library's invariant errors subclass
# ValueError, so their rows come before the ValueError row, which also
# covers ParseError and TreeInvariantError.  A CliError carries its own
# code.  Any other exception propagates.
FAILURES: tuple[tuple[type[Exception], int | None, str], ...] = (
    (remy.RetryLimitError, EXIT_INVARIANT, "sampling failed"),
    (didendritic.DidendriticError, EXIT_INVARIANT, "decode failed"),
    (ensembles.UltrametricError, EXIT_INVARIANT, "ultrametric reconstruction failed"),
    (RecursionError, EXIT_INVARIANT, "output nests too deep to write out"),
    (CliError, None, "error"),
    (ValueError, EXIT_USAGE, "error"),
)


def frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _emit(
    args,
    params: dict[str, Any],
    outputs: dict[str, Any],
    seed: int | None = None,
    replica: int | None = None,
) -> None:
    """Print one result record; wall time stays out of the replayable bytes."""
    if args.pretty:
        bits = [args.command]
        if replica is not None:
            bits.append(f"[{replica}]")
        bits += [f"{k}={v}" for k, v in outputs.items()]
        print(" ".join(bits))
        return
    body = {"command": args.command, "params": params, "seed": seed, "outputs": outputs}
    if replica is not None:
        body["replica"] = replica
    print(_JSON.encode(body))


def _resolve_seed(args: argparse.Namespace) -> int:
    seed, source = getattr(args, "seed", None), "--seed"
    if seed is None:
        env, source = os.environ.get(ENV_SEED, "0"), ENV_SEED
        try:
            seed = int(env)
        except ValueError as e:
            raise CliError(f"bad {ENV_SEED} value: {env}") from e
    if seed < 0:
        raise CliError(f"{source} must be non-negative, got {seed}")
    return seed


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise CliError(f"cannot read {'stdin' if path == '-' else path}: {e}") from e


def _parse_tree_arg(text: str) -> trees.BinaryTree:
    try:
        return trees.parse_tree(text)
    except (trees.ParseError, trees.TreeInvariantError) as e:
        raise CliError(f"bad tree {text!r}: {e}") from e


def _parse_labeled_arg(text: str) -> trees.LabeledBinaryTree:
    try:
        return trees.decode_labeled_tree(text)
    except (trees.ParseError, trees.TreeInvariantError, ValueError) as e:
        raise CliError(f"bad labeled tree {text!r}: {e}") from e


# ---------------------------------------------------------------------------
# Command implementations


def _replicas(args, params: dict[str, Any], draw: Callable[[Rng], dict[str, Any]]) -> int:
    """Emit one record of draw(rng) per replica, each on its own seeded stream.

    Streams are spawned one at a time, as the same children one spawn of
    all --reps would give, so a huge count costs nothing up front.
    """
    seed = _resolve_seed(args)
    params = {**params, "reps": args.reps}
    parent = make_rng(seed)
    for r in range(args.reps):
        _emit(args, params, draw(parent.spawn(1)[0]), seed, replica=r)
    return EXIT_OK


def cmd_chain(args) -> int:
    def draw(rng: Rng) -> dict[str, Any]:
        return {"tree": trees.encode_tree(remy.remy_chain(args.n, rng))}

    return _replicas(args, {"n": args.n}, draw)


def cmd_bridge(args) -> int:
    target = _parse_tree_arg(args.target)

    def draw(rng: Rng) -> dict[str, Any]:
        return {"path": [trees.encode_tree(t) for t in remy.finite_bridge(target, rng)]}

    return _replicas(args, {"target": trees.encode_tree(target)}, draw)


def cmd_spine(args) -> int:
    def draw(rng: Rng) -> dict[str, Any]:
        state = remy.spine_chain(args.n, rng)
        return {
            "tosses": "".join(str(b) for b in state.tosses),
            "tree": trees.encode_tree(remy.spine_tree(state)),
        }

    return _replicas(args, {"n": args.n}, draw)


def cmd_dyadic(args) -> int:
    def draw(rng: Rng) -> dict[str, Any]:
        return {"tree": trees.encode_tree(remy.dyadic_bridge_sample(args.n, rng))}

    return _replicas(args, {"n": args.n}, draw)


def cmd_kernel(args) -> int:
    s = _parse_tree_arg(args.s)
    t = _parse_tree_arg(args.t)
    if t.n_leaves < s.n_leaves:
        raise CliError("target has fewer leaves than source")
    _emit(
        args,
        {"s": trees.encode_tree(s), "t": trees.encode_tree(t)},
        {
            "count": kernel.count_embeddings(s, t),
            "transition_prob": frac_str(kernel.transition_prob(s, t)),
            "martin_kernel": frac_str(kernel.martin_kernel(s, t)),
        },
    )
    return EXIT_OK


def cmd_embeddings(args) -> int:
    s = _parse_tree_arg(args.s)
    t = _parse_tree_arg(args.t)
    outputs: dict[str, Any] = {"count": kernel.count_embeddings(s, t)}
    if t.n_leaves <= kernel.MAX_ENUMERATE_EMBEDDINGS_LEAVES:
        embs = kernel.enumerate_embeddings(s, t)
        outputs["embeddings"] = [
            [[trees.word_str(u), trees.word_str(v)] for u, v in e.pairs] for e in embs
        ]
    else:
        outputs["enumeration_skipped"] = True
    _emit(args, {"s": trees.encode_tree(s), "t": trees.encode_tree(t)}, outputs)
    return EXIT_OK


def cmd_check_harmonic(args) -> int:
    if not 2 <= args.max_leaves <= trees.MAX_ENUM_LEAVES:
        raise CliError(f"--max-leaves must be in 2..{trees.MAX_ENUM_LEAVES}")
    failures: list[str] = []
    total = 0
    for m in range(1, args.max_leaves):
        for s in trees.enumerate_trees(m):
            total += 1
            if not kernel.check_harmonic(kernel.harmonic_h_complete, s):
                failures.append(trees.encode_tree(s))
    _emit(
        args,
        {"max_leaves": args.max_leaves},
        {"trees_checked": total, "all_pass": not failures, "failures": failures},
    )
    return EXIT_OK if not failures else EXIT_INVARIANT


def cmd_kernel_limit(args) -> int:
    s = _parse_tree_arg(args.s)
    if s.n_leaves < 2:
        raise CliError("need a tree with at least two leaves")
    if args.kmax < 1 or args.kmax > kernel.MAX_COMPLETE_DEPTH:
        raise CliError(f"--kmax must be in 1..{kernel.MAX_COMPLETE_DEPTH}")
    limit = kernel.kernel_limit_complete(s)
    rows = []
    for k in range(1, args.kmax + 1):
        if 2**k < s.n_leaves:
            continue  # complete tree of depth k: too few leaves to host s
        val = kernel.martin_kernel(s, kernel.complete_tree(k))
        rows.append(
            {
                "k": k,
                "kernel": frac_str(val),
                "abs_error": float(abs(val - limit)),
            }
        )
    _emit(
        args,
        {"s": trees.encode_tree(s), "kmax": args.kmax},
        {"limit": frac_str(limit), "values": rows},
    )
    return EXIT_OK


def cmd_encode(args) -> int:
    lt = _parse_labeled_arg(args.t)
    if lt.n_leaves < 3:
        raise CliError("didendritic encoding needs at least three leaves")
    arr = didendritic.encode(lt)
    _emit(args, {"t": trees.encode_labeled_tree(lt)}, {"array": didendritic.to_lines(arr)})
    return EXIT_OK


def cmd_decode(args) -> int:
    arr = didendritic.from_lines(_read_text(args.infile).splitlines())
    lt = didendritic.decode(arr)
    _emit(args, {"in": args.infile}, {"tree": trees.encode_labeled_tree(lt)})
    return EXIT_OK


def cmd_check(args) -> int:
    arr = didendritic.from_lines(_read_text(args.infile).splitlines())
    violations = didendritic.axioms_check(arr)
    _emit(args, {"in": args.infile}, {"violations": violations, "ok": not violations})
    return EXIT_OK if not violations else EXIT_INVARIANT


def _build_ensemble(args, rng) -> ensembles.Ensemble:
    given = (args.grid is not None) + (args.dyck_n is not None)
    if args.kind == "excursion" and given != 1:
        raise CliError("excursion ensemble needs one of --grid FILE or --dyck-n N")
    if args.kind != "excursion" and given:
        raise CliError("--grid and --dyck-n apply to --kind excursion only")
    if args.kind == "interval":
        return ensembles.IntervalEnsemble()
    if args.kind == "dyadic":
        return ensembles.DyadicEnsemble()
    if args.kind == "excursion":
        if args.grid is not None:
            return ensembles.ExcursionEnsemble(ensembles.parse_grid(_read_text(args.grid)))
        return ensembles.ExcursionEnsemble(ensembles.random_dyck_path(args.dyck_n, rng))
    raise CliError(f"unknown ensemble kind {args.kind!r}")


def cmd_ensemble_sample(args) -> int:
    # Replica streams are spawned from the seed, untouched by the draws that
    # build the ensemble from a generator of the same seed.
    ens = _build_ensemble(args, make_rng(_resolve_seed(args)))

    def draw(rng: Rng) -> dict[str, Any]:
        lt = ensembles.sample_didendritic(ens, args.m, rng)
        return {"tree": trees.encode_labeled_tree(lt)}

    params = {"kind": args.kind, "m": args.m, "grid": args.grid, "dyck_n": args.dyck_n}
    return _replicas(args, params, draw)


def cmd_dyck(args) -> int:
    def draw(rng: Rng) -> dict[str, Any]:
        return {"grid": ensembles.format_grid(ensembles.random_dyck_path(args.n, rng))}

    return _replicas(args, {"n": args.n}, draw)


def _hierarchy_json(node: ensembles.Hierarchy) -> dict[str, Any]:
    if node.is_leaf:
        return {"label": node.label, "height": node.height}
    return {
        "height": node.height,
        "children": [_hierarchy_json(c) for c in node.children],
    }


def cmd_ultrametric(args) -> int:
    text = _read_text(args.infile)
    rows = [
        [float(x) for x in line.split("\t")]
        for line in text.splitlines()
        if line.strip()
    ]
    if not rows or any(len(r) != len(rows) for r in rows):
        raise CliError("matrix must be square TSV")
    tree = ensembles.ultrametric_tree(np.array(rows), tol=args.tol)
    _emit(args, {"in": args.infile, "tol": args.tol}, {"hierarchy": _hierarchy_json(tree)})
    return EXIT_OK


def _load_law(path: str) -> dict[str, Any]:
    try:
        data = json.loads(_read_text(path))
    except json.JSONDecodeError as e:
        raise CliError(f"bad JSON in {path}: {e}") from e
    if not isinstance(data, dict):
        raise CliError(f"{path} must hold a JSON object")
    return data


def _load_probs(path: str) -> dict[str, Fraction]:
    """_load_law with every value read as an exact probability."""
    probs = {}
    for k, v in _load_law(path).items():
        try:
            probs[k] = Fraction(str(v))
        except (ValueError, ZeroDivisionError) as e:
            raise CliError(f"{path}: bad probability {v!r} for {k!r}") from e
    return probs


def cmd_stats(args) -> int:
    if args.mode == "chi2":
        observed = _load_law(args.observed)
        expected = _load_probs(args.expected)
        report = stats.chi_square(observed, expected, args.significance)
        _emit(
            args,
            {
                "mode": "chi2",
                "observed": args.observed,
                "expected": args.expected,
                "significance": args.significance,
            },
            {
                "statistic": report.statistic,
                "threshold": report.threshold,
                "dof": report.dof,
                "sample_size": report.sample_size,
                "passed": report.passed,
            },
        )
        return EXIT_OK if report.passed else EXIT_STAT
    if args.mode == "tv":
        p = _load_probs(args.observed)
        q = _load_probs(args.expected)
        tv = stats.tv_distance(p, q)
        for path, law in ((args.observed, p), (args.expected, q)):
            total = sum(law.values())
            if total != 1:
                raise CliError(f"{path}: probabilities sum to {total}, not 1")
        params = {"mode": "tv", "observed": args.observed, "expected": args.expected}
        _emit(args, params, {"tv": tv})
        return EXIT_OK
    raise CliError(f"unknown stats mode {args.mode!r}")


# ---------------------------------------------------------------------------
# Argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # route argparse usage errors to exit code 1
        raise CliError(message)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _tolerance(text: str) -> float:
    value = float(text)  # argparse reports a ValueError as an invalid value
    if not 0 <= value < float("inf"):
        raise argparse.ArgumentTypeError(f"expected a finite tolerance >= 0, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="remychain", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, seeded=True, reps=True):
        p.add_argument("--pretty", action="store_true", help="human-readable output")
        if seeded:
            p.add_argument("--seed", type=int, default=None)
        if reps:
            p.add_argument("--reps", type=_positive_int, default=1)

    p = sub.add_parser("chain", help="run the growth chain")
    p.add_argument("--n", type=int, required=True, help="final level (n+1 leaves)")
    common(p)
    p.set_defaults(func=cmd_chain)

    p = sub.add_parser("bridge", help="sample a bridge path to a target tree")
    p.add_argument("--target", required=True)
    common(p)
    p.set_defaults(func=cmd_bridge)

    p = sub.add_parser("spine", help="run the coin-tossing bridge")
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_spine)

    p = sub.add_parser("dyadic", help="sample the coin-sequence bridge tree")
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_dyadic)

    p = sub.add_parser("kernel", help="exact transition and kernel values")
    p.add_argument("--s", required=True)
    p.add_argument("--t", required=True)
    common(p, seeded=False, reps=False)
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("embeddings", help="count and list embeddings of s into t")
    p.add_argument("--s", required=True)
    p.add_argument("--t", required=True)
    common(p, seeded=False, reps=False)
    p.set_defaults(func=cmd_embeddings)

    p = sub.add_parser("check-harmonic", help="verify the harmonic identity")
    p.add_argument("--max-leaves", type=int, required=True)
    common(p, seeded=False, reps=False)
    p.set_defaults(func=cmd_check_harmonic)

    p = sub.add_parser("kernel-limit", help="kernel values along complete trees")
    p.add_argument("--s", required=True)
    p.add_argument("--kmax", type=int, required=True)
    common(p, seeded=False, reps=False)
    p.set_defaults(func=cmd_kernel_limit)

    p = sub.add_parser("encode", help="labeled tree to triple-type array")
    p.add_argument("--t", required=True)
    common(p, seeded=False, reps=False)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="triple-type array lines to labeled tree")
    p.add_argument("--in", dest="infile", default="-")
    common(p, seeded=False, reps=False)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("check", help="axioms check on an array file")
    p.add_argument("--in", dest="infile", default="-")
    common(p, seeded=False, reps=False)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("ensemble-sample", help="sample trees from an ensemble")
    p.add_argument("--kind", choices=["interval", "dyadic", "excursion"], required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--grid", default=None, help="excursion grid file")
    p.add_argument("--dyck-n", type=_positive_int, default=None, help="random grid size")
    common(p)
    p.set_defaults(func=cmd_ensemble_sample)

    p = sub.add_parser("dyck", help="sample uniform Dyck paths")
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_dyck)

    p = sub.add_parser("ultrametric", help="merge tree of a TSV distance matrix")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--tol", type=_tolerance, default=ensembles.ULTRAMETRIC_TOL)
    common(p, seeded=False, reps=False)
    p.set_defaults(func=cmd_ultrametric)

    p = sub.add_parser("stats", help="chi-square or total-variation utilities")
    p.add_argument("--mode", choices=["chi2", "tv"], required=True)
    p.add_argument("--observed", required=True, help="JSON file of counts or probs")
    p.add_argument("--expected", required=True, help="JSON file of probabilities")
    p.add_argument("--significance", type=float, default=0.01)
    common(p, seeded=False, reps=False)
    p.set_defaults(func=cmd_stats)

    return top


@functools.cache  # built at the first dispatch, not at import
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def dispatch(argv: Sequence[str] | None = None) -> int:
    t0 = time.monotonic()
    try:
        args = _parser().parse_args(argv)
        code = args.func(args)
    except tuple(cls for cls, _, _ in FAILURES) as e:
        exit_code, prefix = next(row[1:] for row in FAILURES if isinstance(e, row[0]))
        print(f"{prefix}: {e}", file=sys.stderr)
        return e.code if exit_code is None else exit_code
    finally:
        elapsed = time.monotonic() - t0
        print(f"wall-time: {elapsed:.3f}s", file=sys.stderr)
    return code


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
