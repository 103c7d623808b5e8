"""The three workloads, one pass of operations at a time.

A pass is a fixed mix of operation classes at fixed sizes, drawn afresh from
the pass's own seed.  An operation is one in-process CLI call through
`remychain.cli.dispatch`, with stdout and stderr captured, or one public
library call where no command exists.  Every operation carries a check of
its output, run after the timed call.

- `grow`: many trees built, few queries.  Stresses tree construction, the
  growth and backward steps and the kernel's h-weights; never touches the
  codec or the ensembles.
- `exact`: Fraction kernel arithmetic on small shapes and fresh targets.
  Stresses `count_embeddings` and its memo cache; never touches the codec or
  the ensembles.
- `boundary`: continuum samples, the triple-type codec and distances.
  Stresses the ensembles and the codec; never runs growth or the kernel.

The mixes are sized so that the median and the 90th percentile latency each
fall well inside a block of one class (chain n100 and chain n400 on grow,
count_embeddings n60 and n120 on exact, distance_matrix n30 and n60 on
boundary) rather than on a gap between classes of different cost.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

import checks
import gen

# class -> {size: operations per pass}
MIXES: dict[str, dict[str, dict[int, int]]] = {
    "grow": {
        "dyadic": {100: 3, 200: 3},
        "spine": {150: 4, 300: 3},
        "chain": {100: 12, 200: 2, 400: 5},
        "bridge": {101: 3, 201: 2, 401: 1},
        "h_chain": {40: 1, 80: 1},
        "law": {1000: 1, 2000: 1},
        "law_stats": {1000: 1, 2000: 1},
        "spine_deep": {750: 1, 1500: 1},
    },
    "exact": {
        "count_embeddings": {60: 8 * 14, 120: 3 * 14},
        "kernel": {100: 1, 200: 1},
        "kernel_limit": {5: 5, 10: 5},
        "push_forward": {7: 1, 8: 1},
        "bridge_law": {3: 1, 5: 1},
        "harmonic": {6: 1, 7: 1},
        "h_step_law": {8: 1, 12: 1},
        "identity": {30: 1, 60: 1},
    },
    "boundary": {
        "distance_matrix": {30: 68, 60: 4},
        "interval_sample": {30: 4, 60: 1},
        "dyadic_sample": {30: 2, 60: 1},
        "excursion_sample": {15: 4, 30: 1},
        "encode": {41: 1, 61: 1},
        "decode": {41: 1, 61: 1},
        "check": {41: 1, 61: 1},
        "left_of": {41: 2, 61: 1},
        "contour": {30: 2, 60: 1},
    },
}

# Size exponents worth reporting, and the classes each one sums over.
EXPONENTS: dict[str, dict[str, tuple[str, ...]]] = {
    "grow": {"chain": ("chain",), "bridge": ("bridge",), "h_chain": ("h_chain",)},
    "exact": {"count_embeddings": ("count_embeddings",)},
    "boundary": {
        "interval_sample": ("interval_sample",),
        "excursion_sample": ("excursion_sample",),
        "codec": ("encode", "decode", "check"),
    },
}

# Rough untraced seconds per pass on a 2-core x86 container; the traced run
# measures round(seconds / PASS_SECONDS) passes so both commits trace the
# same work.
PASS_SECONDS = {"grow": 4.8, "exact": 1.6, "boundary": 9.5}


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str


@dataclass
class Op:
    cls: str
    size: int
    run: Callable[[], object]
    check: Callable[[object], None]


class Context:
    """The library modules and a scratch directory for input files."""

    def __init__(self, lib, workdir: str) -> None:
        self.lib = lib
        self.workdir = workdir
        self._files = 0
        self.labeled: dict[int, tuple] = {}  # size -> (tree, words, array lines, array file), per pass

    def write(self, text: str) -> str:
        self._files += 1
        path = os.path.join(self.workdir, f"in{self._files % 64}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def tree(self, text: str):
        return self.lib.trees.decode_tree(text)


def dispatch(lib, argv: list[str]) -> Callable[[], CliResult]:
    def run() -> CliResult:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = lib.cli.dispatch(argv)
        return CliResult(code, out.getvalue(), err.getvalue())

    return run


def cli_op(ctx: Context, cls: str, size: int, argv: list[str], check: Callable[[str], None]) -> Op:
    def check_result(res: CliResult) -> None:
        checks.require(res.code == 0, f"{argv[0]} exited {res.code}: {res.stderr.strip()[:200]}")
        check(res.stdout)

    return Op(cls, size, dispatch(ctx.lib, argv), check_result)


def failed(out: object) -> str | None:
    """Name of the failure when a command printed no result and exited nonzero."""
    if isinstance(out, CliResult) and out.code != 0 and not out.stdout.strip():
        return f"exit{out.code}"
    return None


def seed_arg(rnd: random.Random) -> list[str]:
    return ["--seed", str(rnd.randrange(2**31))]


# ---------------------------------------------------------------------------
# grow


def grow_ops(cls: str, size: int, count: int, rnd: random.Random, ctx: Context) -> list[Op]:
    lib = ctx.lib
    ops: list[Op] = []
    for _ in range(count):
        if cls == "chain":
            argv = ["chain", "--n", str(size), *seed_arg(rnd)]
            ops.append(cli_op(ctx, cls, size, argv, lambda out, n=size: checks.check_chain(n, out)))
        elif cls == "bridge":
            target = gen.uniform_shape(size, rnd)
            argv = ["bridge", "--target", target, *seed_arg(rnd)]
            ops.append(cli_op(ctx, cls, size, argv, lambda out, t=target: checks.check_bridge(t, out)))
        elif cls in ("spine", "spine_deep"):
            argv = ["spine", "--n", str(size), *seed_arg(rnd)]
            ops.append(cli_op(ctx, cls, size, argv, lambda out, n=size: checks.check_spine(n, out)))
        elif cls == "dyadic":
            argv = ["dyadic", "--n", str(size), *seed_arg(rnd)]
            ops.append(cli_op(ctx, cls, size, argv, lambda out, n=size: checks.check_dyadic(n, out)))
        elif cls == "h_chain":
            rng = lib.rng.make_rng(rnd.randrange(2**31))

            def grow(n=size, rng=rng):
                path = [lib.trees.ALEPH]
                for _ in range(n - 2):
                    path.append(lib.kernel.h_transform_step_complete(path[-1], rng))
                return path

            ops.append(Op(cls, size, grow, lambda path, n=size: checks.check_growth_path(path, n)))
        elif cls == "law":
            # The tally feeds the law_stats operation that follows; a failed
            # law operation leaves no tally, so law_stats fails too.
            observed = os.path.join(ctx.workdir, f"observed{size}.json")
            with contextlib.suppress(FileNotFoundError):
                os.remove(observed)

            def tally(out, reps=size, path=observed):
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(checks.tally_law(out, reps), fh)

            argv = ["chain", "--n", "4", "--reps", str(size), *seed_arg(rnd)]
            ops.append(cli_op(ctx, cls, size, argv, tally))
        elif cls == "law_stats":
            expected = ctx.write(json.dumps({s: "1/14" for s in checks.shapes_with_leaves(5)}))
            argv = ["stats", "--mode", "chi2", "--observed", os.path.join(ctx.workdir, f"observed{size}.json"),
                    "--expected", expected, "--significance", "1e-6"]
            ops.append(cli_op(ctx, cls, size, argv, lambda out, reps=size: checks.check_chi_square(out, reps)))
        else:
            raise KeyError(cls)
    return ops


# ---------------------------------------------------------------------------
# exact


def exact_ops(cls: str, size: int, count: int, rnd: random.Random, ctx: Context) -> list[Op]:
    lib = ctx.lib
    ops: list[Op] = []
    if cls == "count_embeddings":
        level4 = [ctx.tree(s) for s in checks.shapes_with_leaves(5)]
        for _ in range(count // len(level4)):
            t = ctx.tree(gen.uniform_shape(size, rnd))
            seen: list[int] = []

            def check(c, seen=seen, n=size):
                seen.append(c)
                if len(seen) == len(level4):
                    checks.check_level4_sum(seen, n)

            for s in level4:
                ops.append(Op(cls, size, lambda s=s, t=t: lib.kernel.count_embeddings(s, t), check))
        return ops
    if cls == "kernel_limit":
        for s in checks.shapes_with_leaves(4)[:count]:
            argv = ["kernel-limit", "--s", s, "--kmax", str(size)]
            ops.append(cli_op(ctx, cls, size, argv, lambda out, k=size: checks.check_kernel_limit(out, k)))
        return ops
    for _ in range(count):
        if cls == "kernel":
            # K(ALEPH, t) = 1 is checked whenever s is the two-leaf tree.
            s = checks.ALEPH if rnd.random() < 0.5 else gen.uniform_shape(rnd.randint(3, 6), rnd)
            t = gen.uniform_shape(size, rnd)
            argv = ["kernel", "--s", s, "--t", t]
            ops.append(cli_op(ctx, cls, size, argv, lambda out, s=s, t=t: checks.check_kernel(s, t, out)))
        elif cls == "push_forward":
            ops.append(Op(cls, size, lambda n=size: lib.remy.chain_push_forward(n),
                          lambda law, n=size: checks.check_push_forward(law, n)))
        elif cls == "bridge_law":
            t = ctx.tree(gen.uniform_shape(10, rnd))
            ops.append(Op(cls, size, lambda t=t, k=size: lib.remy.bridge_marginal_law(t, k),
                          lambda law, t=t, k=size: checks.check_bridge_law(
                              law, k, lambda s: lib.kernel.martin_kernel(s, t))))
        elif cls == "harmonic":
            argv = ["check-harmonic", "--max-leaves", str(size)]
            ops.append(cli_op(ctx, cls, size, argv, lambda out, n=size: checks.check_harmonic(out, n)))
        elif cls == "h_step_law":
            s = ctx.tree(gen.uniform_shape(size, rnd))
            ops.append(Op(cls, size, lambda s=s: lib.kernel.h_transform_step_law(s),
                          lambda law, s=s, n=size: checks.check_step_law(
                              law, n, lambda t: lib.kernel.h_transform_transition_prob(s, t))))
        elif cls == "identity":
            small = ctx.tree(rnd.choice(checks.shapes_with_leaves(rnd.choice((2, 3)))))
            k = ctx.tree(gen.uniform_shape(size, rnd))
            ops.append(Op(cls, size, lambda i=small, k=k: lib.kernel.kernel_identity_check(i, k),
                          lambda ok: checks.require(ok is True, "kernel identity fails")))
        else:
            raise KeyError(cls)
    return ops


# ---------------------------------------------------------------------------
# boundary


def boundary_ops(cls: str, size: int, count: int, rnd: random.Random, ctx: Context) -> list[Op]:
    lib = ctx.lib
    ops: list[Op] = []
    if cls in ("encode", "decode", "check", "left_of"):
        if size not in ctx.labeled:
            labeled, words = gen.uniform_labeled(size, rnd)
            lines = gen.triple_lines(words)
            ctx.labeled[size] = labeled, words, lines, ctx.write("\n".join(lines) + "\n")
        labeled, words, lines, array_file = ctx.labeled[size]
    for _ in range(count):
        if cls in ("interval_sample", "dyadic_sample"):
            kind = cls.split("_")[0]
            argv = ["ensemble-sample", "--kind", kind, "--m", str(size), *seed_arg(rnd)]
            ops.append(cli_op(ctx, cls, size, argv, lambda out, m=size: checks.check_sample(out, m)))
        elif cls == "excursion_sample":
            grid = ctx.write(" ".join(map(str, gen.dyck_heights(500, rnd))))
            argv = ["ensemble-sample", "--kind", "excursion", "--grid", grid, "--m", str(size), *seed_arg(rnd)]
            ops.append(cli_op(ctx, cls, size, argv, lambda out, m=size: checks.check_sample(out, m)))
        elif cls == "encode":
            ops.append(cli_op(ctx, cls, size, ["encode", "--t", labeled],
                              lambda out, lines=lines: checks.check_encode(out, lines)))
        elif cls == "decode":
            ops.append(cli_op(ctx, cls, size, ["decode", "--in", array_file],
                              lambda out, t=labeled: checks.check_decode(out, t)))
        elif cls == "check":
            ops.append(cli_op(ctx, cls, size, ["check", "--in", array_file], checks.check_axioms))
        elif cls == "left_of":
            arr = lib.didendritic.from_lines(lines)
            i, j = rnd.sample(range(1, size + 1), 2)
            ops.append(Op(cls, size, lambda arr=arr, i=i, j=j: lib.didendritic.left_of(arr, i, j, i, i),
                          lambda got, i=i, j=j, w=words: checks.check_left_of(got, i, j, w)))
        elif cls == "distance_matrix":
            draws = gen.interval_draws(size, rnd)
            view = lib.ensembles.SampleView(
                lib.ensembles.IntervalEnsemble(), [lib.ensembles.IntervalPoint(x, a) for x, a in draws])
            ops.append(Op(cls, size, lambda v=view: lib.ensembles.distance_matrix(v),
                          lambda d, xs=[x for x, _ in draws]: checks.check_distances(d, xs)))
        elif cls == "contour":
            shape = gen.uniform_shape(size, rnd)
            t = ctx.tree(shape)
            visits = lib.trees.leaf_visit_indices(t)
            ens = lib.ensembles.ExcursionEnsemble(
                lib.ensembles.ExcursionGrid.from_harris(lib.trees.harris_path(t)), support=visits)
            view = lib.ensembles.SampleView(ens, [ens.point_at(v) for v in visits])
            ops.append(Op(cls, size,
                          lambda v=view: lib.ensembles.ultrametric_tree(lib.ensembles.distance_matrix(v)),
                          lambda root, s=shape: checks.check_contour(root, s)))
        else:
            raise KeyError(cls)
    return ops


BUILDERS = {"grow": grow_ops, "exact": exact_ops, "boundary": boundary_ops}


def build_pass(workload: str, seed: int, index: int, ctx: Context) -> list[Op]:
    """The operations of one pass; inputs depend only on (workload, seed, index).

    Each class is spread evenly over the pass, so that it samples all of it
    rather than one stretch.  Ties keep the order of MIXES, so a class still
    runs after the class whose output it reads.
    """
    rnd = random.Random(f"{workload}/{seed}/{index}")
    ctx.labeled.clear()
    groups = [BUILDERS[workload](cls, size, count, rnd, ctx)
              for cls, sizes in MIXES[workload].items() for size, count in sizes.items()]
    keyed = [((i + 0.5) / len(g), k, op) for k, g in enumerate(groups) for i, op in enumerate(g)]
    return [op for *_, op in sorted(keyed, key=lambda x: x[:2])]


MIXES_BY_CLASS = {cls: sizes for mix in MIXES.values() for cls, sizes in mix.items()}
