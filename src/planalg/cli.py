"""Deterministic command-line frontend.

Each subcommand routes to one module operation and prints sorted,
reproducible output.  Exit status is 0 on success, 1 when a
verification report comes back negative, and 2 on usage errors
(including malformed input text).
"""

import argparse
import math
import os
import sys

from .coxeter import coxeter_group
from .embed import conjecture_436_check, drank_sequence, rho_build, rho_verify_bijection
from .planar import Context, fusion_twist, product_size_bound
from .selftest import CHECKS, run_check
from .table_algebra import TableAlgebra, check_algebra
from .tabular import datum_build
from .tl import tl
from .verlinde import make_verlinde, w_multiply


#: Largest --n a context command accepts, and largest drank --nmax: a
#: context numbers all Catalan(n) matchings when it is made.
MAX_N = 12
#: Most basis diagrams that basis, dbasis, axioms and drank enumerate,
#: and most terms that mul writes.
MAX_DIAGRAMS = 100_000
#: Largest label rank, checked before any label algebra is built:
#: make_verlinde and check_algebra both grow as rank^3.
MAX_RANK = 32


class UsageError(Exception):
    """Bad flags or unparseable input; reported on stderr with status 2."""


def _basis_size(n: int, rank: int) -> int:
    """Catalan(n) * rank^n, the basis size of P(n, rank), by closed form."""
    return math.comb(2 * n, n) // (n + 1) * rank**n


def _refuse_large(flag: str, n: int, rank: int, command: str) -> None:
    size = _basis_size(n, rank)
    if size > MAX_DIAGRAMS:
        raise UsageError(f"{flag} {n}: P({n}, {rank}) has {size:,} basis diagrams; "
                         f"{command} enumerates at most {MAX_DIAGRAMS:,}")


def _refuse_rank(flag: str, rank: int) -> None:
    if rank > MAX_RANK:
        raise UsageError(f"{flag}: label rank {rank} is above the supported {MAX_RANK}")


def _context(args, enumerates: bool = False) -> Context:
    """The context named by the flags; refused before it is made when n
    exceeds MAX_N or when both --verlinde and --algebra are given, before
    its label algebra is built or checked when the rank is below 1 or
    exceeds MAX_RANK, or when ``enumerates`` and the basis exceeds
    MAX_DIAGRAMS."""
    if args.n < 1:
        raise UsageError("--n must be at least 1")
    if args.n > MAX_N:
        raise UsageError(f"--n {args.n}: context commands support n up to {MAX_N}")
    if args.algebra is not None and args.verlinde is not None:
        raise UsageError("give one of --verlinde <r> and --algebra <file>, not both")
    if args.algebra:
        try:
            with open(args.algebra, encoding="ascii") as fh:
                alg = TableAlgebra.from_text(fh.read())
        except (OSError, ValueError) as exc:
            raise UsageError(f"--algebra {args.algebra}: {exc}") from exc
        _refuse_rank(f"--algebra {args.algebra}", alg.rank)
        report = check_algebra(alg)
        if not report.ok:
            flag = next(name for name, ok in report.flags().items() if not ok)
            raise UsageError(
                f"--algebra {args.algebra}: fails {flag}: {report.witnesses[0]}"
            )
    elif args.verlinde is not None:
        if args.verlinde < 1:
            raise UsageError(f"--verlinde {args.verlinde}: needs r >= 1")
        _refuse_rank(f"--verlinde {args.verlinde}", args.verlinde)
        alg = make_verlinde(args.verlinde)
    else:
        raise UsageError("a context needs --verlinde <r> or --algebra <file>")
    if enumerates:
        _refuse_large("--n", args.n, alg.rank, args.command)
    return Context(args.n, alg)


def _group(args):
    """The Coxeter group named by --type/--rank/--m; ranks and m are
    checked by :func:`coxeter_group`."""
    family = args.type
    if family not in ("A", "B", "H", "I"):
        raise UsageError(f"--type {family}: expected one of A, B, H, I")
    if args.m and family != "I":
        raise UsageError("--m only applies to type I")
    try:
        return coxeter_group(family, args.rank, args.m)
    except ValueError as exc:
        raise UsageError(f"--type {family} --rank {args.rank}: {exc}") from exc


def _read_elements(ctx: Context, args, count: int) -> list:
    if args.files:
        if len(args.files) != count:
            raise UsageError(f"expected {count} element file(s)")
        texts = []
        for path in args.files:
            try:
                with open(path, encoding="ascii") as fh:
                    texts.append(fh.read())
            except (OSError, UnicodeDecodeError) as exc:
                raise UsageError(f"{path}: {exc}") from exc
    else:
        try:
            blob = sys.stdin.buffer.read().decode("ascii")
        except UnicodeDecodeError as exc:
            raise UsageError(f"<stdin>: {exc}") from exc
        texts = blob.split("\n--\n") if count > 1 else [blob]
        if len(texts) != count:
            raise UsageError(
                f"expected {count} elements on stdin separated by a '--' line"
            )
    out = []
    for text in texts:
        try:
            out.append(ctx.from_text(text))
        except (KeyError, ValueError, IndexError) as exc:
            raise UsageError(f"cannot parse element: {exc}") from exc
    return out


def cmd_verlinde(args) -> int:
    if args.r < 1:
        raise UsageError("verlinde needs r >= 1")
    _refuse_rank(f"verlinde {args.r}", args.r)
    print(make_verlinde(args.r).to_text())
    return 0


def cmd_basis(args) -> int:
    ctx = _context(args, enumerates=True)
    items = ctx.d_basis() if args.exposed else ctx.basis()
    if args.machine:
        print(f"size={len(items)}")
        for d in items:
            print(f"diagram={d.to_text()}")
    else:
        for d in items:
            print(d.to_text())
    return 0


def _refuse_large_product(x, y) -> None:
    """Refuse x * y when its terms could exceed MAX_DIAGRAMS: the bound
    sums :func:`product_size_bound` over the pairs of terms, and no
    product is formed.  A context of at most MAX_DIAGRAMS diagrams is
    never refused."""
    ctx = x.ctx
    if _basis_size(ctx.n, ctx.alg.rank) <= MAX_DIAGRAMS:
        return
    bound = 0
    for i in x.terms:
        for j in y.terms:
            bound += product_size_bound(ctx, i, j)
            if bound > MAX_DIAGRAMS:
                raise UsageError(f"mul: the product may have more than {MAX_DIAGRAMS:,} "
                                 f"terms ({bound:,} from the terms read so far)")


def cmd_mul(args) -> int:
    ctx = _context(args)
    x, y = _read_elements(ctx, args, 2)
    _refuse_large_product(x, y)
    print((x * y).to_text())
    return 0


def cmd_star(args) -> int:
    ctx = _context(args)
    (x,) = _read_elements(ctx, args, 1)
    print(x.star().to_text())
    return 0


def cmd_trace(args) -> int:
    ctx = _context(args)
    (x,) = _read_elements(ctx, args, 1)
    if args.machine:
        print(f"tau={x.tau()}")
    else:
        print(f"tau: {x.tau()}")
    return 0


def cmd_omega(args) -> int:
    ctx = _context(args)
    try:  # the twist multiplies labels by the top basis element w
        for label in range(ctx.alg.rank):
            w_multiply(ctx.alg, label)
    except ValueError as exc:
        raise UsageError(f"omega: {exc}") from exc
    (x,) = _read_elements(ctx, args, 1)
    print(fusion_twist(x).to_text())
    return 0


def _emit(report, machine: bool) -> int:
    """Print a verification report; exit status 0 when it passed, else 1."""
    for line in report.lines(machine):
        print(line)
    return 0 if report.ok else 1


def cmd_axioms(args) -> int:
    return _emit(datum_build(_context(args, enumerates=True)).axioms_check(),
                 args.machine)


def cmd_tlbasis(args) -> int:
    q = tl(_group(args))
    print(f"group: {q.g.name}")
    print(f"wc: {q.rank}")
    for w in q.wc:
        unit = q.canonical_unit(w)
        parts = [f"({unit[k]}) t~[{q.g.word(q.wc[k])}]" for k in sorted(unit)]
        print(f"c[{q.g.word(w)}] = " + " + ".join(parts))
    try:
        q.cross_check_canonical()
    except AssertionError as exc:
        print(f"oracle: FAIL {exc}")
        return 1
    print("oracle: theta(C'_w) == c_w for all w")
    return 0


def cmd_embed(args) -> int:
    variant = args.variant or args.type
    if variant not in ("A", "B", "H", "I", "uniform"):
        raise UsageError(f"--variant {variant}: expected A, B, H, I or uniform")
    _group(args)  # validates type/rank/m
    try:
        rep = rho_build(variant, args.type, args.rank, m=args.m)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    rho_verify_bijection(rep)
    return _emit(rep, args.machine)


def cmd_conjecture(args) -> int:
    if _group(args).name == "H4":  # _group validates type/rank/m
        raise UsageError("--rank 4: conjecture supports type H up to rank 3 "
                         "(it maps C'_w for all 14,400 elements of H4)")
    try:
        rep = conjecture_436_check(args.type, args.rank, m=args.m)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return _emit(rep, args.machine)


def cmd_drank(args) -> int:
    if args.r < 1 or args.nmax < 1:
        raise UsageError("drank needs --r >= 1 and --nmax >= 1")
    if args.nmax > MAX_N:
        raise UsageError(f"--nmax {args.nmax}: drank supports n up to {MAX_N}")
    _refuse_rank(f"--r {args.r}", args.r)
    _refuse_large("--nmax", args.nmax, args.r, "drank")
    seq = drank_sequence(args.r, args.nmax)
    if args.machine:
        for n, value in enumerate(seq, start=1):
            print(f"drank[{n}]={value}")
    else:
        print(" ".join(str(k) for k in seq))
    return 0


def cmd_selftest(args) -> int:
    if args.only:
        try:
            wanted = sorted({int(k) for k in args.only.split(",")})
        except ValueError as exc:
            raise UsageError(f"--only {args.only}: expected numbers") from exc
        known = {num for num, *_ in CHECKS}
        bad = [k for k in wanted if k not in known]
        if bad:
            raise UsageError(f"--only: no check numbered {bad[0]}")
    else:
        wanted = [num for num, *_ in CHECKS]
    return max([_emit(run_check(num), args.machine) for num in wanted])


def _add_context_flags(sub):
    sub.add_argument("--n", type=int, default=0, help="number of boundary pairs")
    sub.add_argument("--verlinde", type=int, help="fusion rank r")
    sub.add_argument("--algebra", help="table algebra file")


def _add_group_flags(sub):
    sub.add_argument("--type", required=True, help="Coxeter family A, B, H or I")
    sub.add_argument("--rank", type=int, required=True)
    sub.add_argument("--m", type=int, default=0, help="dihedral bond for type I")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="planalg", description="exact labeled-diagram algebra toolkit"
    )
    parser.add_argument("--machine", action="store_true",
                        help="emit key=value lines")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("verlinde", help="print the fusion table algebra")
    sub.add_argument("r", type=int)
    sub.set_defaults(run=cmd_verlinde)

    for name, exposed, what in (("basis", False, "list basis diagrams"),
                                ("dbasis", True, "list the exposed sub-basis D(n, r)")):
        sub = subs.add_parser(name, help=what)
        _add_context_flags(sub)
        sub.set_defaults(run=cmd_basis, exposed=exposed)

    for name, run, count in (("mul", cmd_mul, 2), ("star", cmd_star, 1),
                             ("trace", cmd_trace, 1), ("omega", cmd_omega, 1)):
        sub = subs.add_parser(name, help=f"{name} of parsed element(s)")
        _add_context_flags(sub)
        sub.add_argument("files", nargs="*",
                         help=f"{count} element file(s); default stdin")
        sub.set_defaults(run=run)

    sub = subs.add_parser("axioms", help="run the cell-structure axiom checks")
    _add_context_flags(sub)
    sub.set_defaults(run=cmd_axioms)

    sub = subs.add_parser("tlbasis", help="print the canonical quotient basis")
    _add_group_flags(sub)
    sub.set_defaults(run=cmd_tlbasis)

    sub = subs.add_parser("embed", help="build and verify a diagram embedding")
    _add_group_flags(sub)
    sub.add_argument("--variant", help="generator labeling; defaults to --type")
    sub.set_defaults(run=cmd_embed)

    sub = subs.add_parser("conjecture", help="check the canonical image map")
    _add_group_flags(sub)
    sub.set_defaults(run=cmd_conjecture)

    sub = subs.add_parser("drank", help="exposed-subalgebra rank sequence")
    sub.add_argument("--r", type=int, required=True)
    sub.add_argument("--nmax", type=int, required=True)
    sub.set_defaults(run=cmd_drank)

    sub = subs.add_parser("selftest", help="run the verification battery")
    sub.add_argument("--only", help="comma-separated check numbers")
    sub.set_defaults(run=cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except UsageError as exc:
        print(f"planalg: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
