"""Command-line front end.

Every subcommand wraps exactly one library operation family, imports only
that family, and prints deterministically: on one Python version,
identical flags give byte-identical output, so the outputs are safe to
pin in golden files.  argparse's usage text is not pinned: it differs
between Python versions (3.13 wraps the top-level usage differently).
Each handler returns its JSON payload (the dict its schema in `schemas/`
describes) and its text or tsv output, built from the payload's strings
where the two overlap; `main` alone picks which of the two is printed.
Exit codes: 0 success, 2 usage error (argparse), 1 domain error from the
library, or a reader that closed stdout before the output was written (no
message, no traceback).
"""

from __future__ import annotations

import argparse
import os
import sys

from . import _is_digits


# Largest --max-i/--max-j that `hp-table` accepts.  On one core of a
# 2-core Intel Xeon (Python 3.11.7), 60 x 60 takes end to end 0.30-0.40 s
# by residue, 1.2-2.3 s by the Chebyshev recurrence, the slowest method
# at the cap, and 0.07-0.11 s by the binomial formula, each in 15-16 MiB;
# 100 x 100 (computed in process) takes 1.8-2.6 s by residue and 7.3-7.6 s
# by Chebyshev.  Series stop at x^(2 max-j), the last power an entry
# reads, so this cap also bounds how far any series is built.
MAX_HP_INDEX = 60

# Most degrees one `ktable` call prints (ten million take about a minute
# and print 111 MB).
MAX_KTABLE_ENTRIES = 10_000


# --------------------------------------------------------------------------
# subcommand handlers
# --------------------------------------------------------------------------

def _signature(args) -> tuple[int, int] | None:
    """(r, s) from --r/--s, or None when the degree is --n alone."""
    if args.r is not None or args.s is not None:
        if args.n is not None:
            raise ValueError("give either --n or --r/--s, not both")
        return args.r or 0, args.s or 0
    if args.n is None:
        raise ValueError("one of --n or --r/--s is required")
    return None


def _cmd_classify(args) -> tuple[dict, str]:
    from . import clifford
    signature = _signature(args)
    if signature is not None:
        if args.variant != "Cl":
            raise ValueError("--variant applies to --n, not to --r/--s")
        desc = clifford.classify_indefinite(*signature, quaternionic=args.quaternionic)
    else:
        if args.quaternionic:
            raise ValueError("--quaternionic applies to --r/--s, not to --n")
        desc = clifford.classify(args.n, args.variant)
    return {"field": desc.field, "size": desc.size, "simple": desc.simple}, str(desc)


def _cmd_dims(args) -> tuple[dict, str]:
    from . import modules
    value = modules.fundamental_dimension(args.n, args.field)
    return {"n": args.n, "field": args.field, "dimension": value}, str(value)


def _cmd_ngroup(args) -> tuple[dict, str]:
    from . import modules
    signature = _signature(args)
    if signature is not None:
        if args.h:
            # bigraded tables are over R and H only
            raise ValueError("the h variant only applies to complex scalars")
        idx = modules.BigradedIndex(*signature, args.field)
        group = modules.ngroup_bigraded(idx)
        key = {"r": idx.r, "s": idx.s}
    else:
        group = modules.ngroup(args.n, args.field, h=args.h)
        key = {"n": args.n}
    payload = {**key, "field": args.field, "group": str(group)}
    return payload, payload["group"]


def _cmd_genus(args) -> tuple[dict, str]:
    from . import series
    value = series.genus_4manifold(args.sig, args.euler, args.orientation)
    payload = {"signature": args.sig, "euler": args.euler,
               "orientation": args.orientation, "genus": str(value)}
    return payload, payload["genus"]


def _cmd_hp_table(args) -> tuple[dict, str]:
    from . import series
    for name, value in (("max-i", args.max_i), ("max-j", args.max_j)):
        if value > MAX_HP_INDEX:
            raise ValueError(f"--{name} {value} exceeds the cap {MAX_HP_INDEX}")
    matrix = series.hp_pairing_matrix(args.max_i, args.max_j, args.method)
    sep = "\t" if args.format == "tsv" else " "
    return ({"max_i": args.max_i, "max_j": args.max_j, "method": args.method,
             "rows": "bundle index i", "cols": "projective index j", "matrix": matrix},
            "\n".join(sep.join(map(str, row)) for row in matrix))


def _cmd_steenrod_sq(args) -> tuple[dict, str]:
    from . import steenrod
    poly = steenrod.parse_polynomial(args.poly)
    payload = {"k": args.k, "input": str(poly), "result": str(steenrod.sq(args.k, poly))}
    return payload, payload["result"]


def _check_max_degree(degree: int, cap: int) -> None:
    if degree > cap:
        raise ValueError(f"max degree {degree} exceeds the cap {cap}")


def _cmd_steenrod_wu(args) -> tuple[dict, str]:
    from . import steenrod
    _check_max_degree(args.max_degree, steenrod.MAX_STEENROD_DEGREE)
    classes = [str(p) for p in steenrod.wu_classes(args.max_degree)]
    return ({"max_degree": args.max_degree, "classes": classes},
            "\n".join(f"v{k} = {p}" for k, p in enumerate(classes)))


def _cmd_steenrod_verify(args) -> tuple[dict, str]:
    from . import steenrod
    _check_max_degree(args.max_degree, steenrod.MAX_STEENROD_DEGREE)
    model = steenrod.bso_quotient_model("spinh", args.max_degree)
    quotient = model.poincare_series()
    free = model.free_series()
    homology = steenrod.sq1_homology_series(model)
    oracle = steenrod.sq1_homology_oracle(model)
    w = steenrod.StiefelWhitneyRing.w
    w9 = w(9) + w(2) * w(7) + w(3) * w(6)
    w9_member = args.max_degree >= 9 and steenrod.ideal_membership(w9, model.ideal)
    payload = {
        "max_degree": args.max_degree,
        "quotient_series": quotient,
        "free_subalgebra_series": free,
        "series_match": quotient == free,
        "sq1_homology": homology,
        "sq1_oracle": oracle,
        "sq1_match": homology == oracle,
        "w9_decomposable": w9_member,
    }
    lines = [
        f"quotient series      {' '.join(map(str, quotient))}",
        f"free subalgebra      {' '.join(map(str, free))}",
        f"series match         {payload['series_match']}",
        f"sq1 homology         {' '.join(map(str, homology))}",
        f"sq1 oracle           {' '.join(map(str, oracle))}",
        f"sq1 match            {payload['sq1_match']}",
        f"w9 decomposable      {payload['w9_decomposable']}",
    ]
    return payload, "\n".join(lines)


def _ascii_digits(text: str, sep: str = "") -> bool:
    """Whether text is an optional sign and ASCII digits (runs of them
    joined by sep, if given): int() and Fraction() alone also read the
    digits of other scripts and underscores."""
    body = text.strip().lstrip("+-")
    return all(map(_is_digits, body.split(sep) if sep else [body]))


def _parse_int(text: str) -> int:
    """int() restricted to the grammar of _ascii_digits."""
    if not _ascii_digits(text):
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(text)


def _int_option(text: str) -> int:
    """argparse type for the integer options: the grammar of _parse_int,
    with the usage error argparse gives for type=int."""
    try:
        return _parse_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _parse_fraction(text: str):
    """Fraction() restricted to an optional sign, ASCII digits and an
    optional /denominator: Fraction() alone also reads decimals and
    exponents, and since Python 3.12 spaces around the slash."""
    from fractions import Fraction
    if not _ascii_digits(text, "/"):
        raise ValueError(f"Invalid literal for Fraction: {text!r}")
    return Fraction(text)


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        value = _parse_int(lo)
        return value, value
    return _parse_int(lo), _parse_int(hi)


def _cmd_ktable(args) -> tuple[dict, str]:
    from . import ktheory
    ring = ktheory.CoefficientRing.parse(args.coeff)
    lo, hi = _parse_range(args.range)
    if hi < lo:
        raise ValueError(f"range {lo}..{hi} is empty: the upper end is below the lower")
    if hi - lo + 1 > MAX_KTABLE_ENTRIES:
        raise ValueError(f"range {lo}..{hi} has {hi - lo + 1} degrees, "
                         f"more than the cap {MAX_KTABLE_ENTRIES}")
    entries = []
    for n in range(lo, hi + 1):
        result = ktheory.k_coefficients_extension(args.theory, n, ring)
        entries.append({"n": n, "group": str(result)})
    sep = "\t" if args.format == "tsv" else ": "
    return ({"theory": args.theory, "coeff": str(ring), "entries": entries},
            "\n".join(f"{e['n']}{sep}{e['group']}" for e in entries))


def _cmd_zk_index(args) -> tuple[dict, str]:
    from . import ktheory
    data = ktheory.ZkIndexInput(args.n, args.k, _parse_fraction(args.integral),
                                _parse_fraction(args.eta))
    residue = ktheory.zk_index(data)
    return ({"n": args.n, "k": args.k, "integral": str(data.integral_term),
             "eta": str(data.eta_term), "epsilon": data.epsilon,
             "residue": residue, "modulus": args.k},
            f"{residue} (mod {args.k})")


def _cmd_dual(args) -> tuple[dict, str]:
    from . import ktheory
    orders = [_parse_int(x) for x in args.torsion.split(",")] if args.torsion else []
    group = ktheory.FGAbelianGroup.from_summands(args.rank, orders)
    report = ktheory.dual_group(group)
    payload = {"group": str(group), "dual": str(report.group), "verified": report.verified,
               "candidates": report.torsion_candidates, "valid": report.torsion_valid}
    status = "verified" if report.verified else "FAILED"
    return payload, f"{payload['group']} -> {payload['dual']} [{status}]"


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose help and usage text do not depend on the
    terminal, and that names every unknown token given before a
    subcommand.

    argparse wraps help and usage to the terminal's width; every parser
    here wraps to the width it gives output that is not a terminal (80
    columns, less 2), so the text is the same in a pipe, a golden file
    and a terminal.  add_subparsers makes the subcommands _Parsers too.
    """

    _commands = ()  # the subcommand names, once add_subparsers has run

    def __init__(self, **kwargs):
        kwargs.setdefault("formatter_class",
                          lambda prog: argparse.HelpFormatter(prog, width=78))
        super().__init__(**kwargs)

    def add_subparsers(self, **kwargs):
        action = super().add_subparsers(**kwargs)
        self._commands = action.choices
        return action

    def parse_known_args(self, args=None, namespace=None):
        # argparse takes the first bare token for the subcommand, so the
        # value of an unknown option before it (`--trunc 10 hp-table`) was
        # reported as an invalid choice.  A parser with subcommands reads no
        # option but -h/--help, so other tokens before the subcommand, or all
        # tokens if none follows and they open on "-", are unrecognized.
        args = sys.argv[1:] if args is None else list(args)
        fallback = len(args) if self._commands and args and args[0].startswith("-") else 0
        start = next((i for i, arg in enumerate(args) if arg in self._commands), fallback)
        lead = args[:start]
        if any(arg.startswith("-h") or arg.startswith("--h")
               and "--help".startswith(arg.partition("=")[0]) for arg in lead):
            start, lead = 0, []
        elif lead and start == len(args):
            self.error(f"unrecognized arguments: {' '.join(lead)}")
        namespace, extras = super().parse_known_args(args[start:], namespace)
        return namespace, lead + extras


def _add_format(parser, handler, *, tsv=False):
    """Add --format, the last option of each subcommand, and bind its handler."""
    choices = ["text", "json"] + (["tsv"] if tsv else [])
    parser.add_argument("--format", choices=choices, default="text")
    parser.set_defaults(handler=handler)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spinhalg",
        description="Exact Clifford/characteristic-class/Steenrod/K-theory computations")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="matrix normal form of a Clifford-type algebra")
    p.add_argument("--n", type=_int_option)
    p.add_argument("--variant", choices=["Cl", "CCl", "Clh", "CClh"], default="Cl")
    p.add_argument("--r", type=_int_option)
    p.add_argument("--s", type=_int_option)
    p.add_argument("--quaternionic", action="store_true")
    _add_format(p, _cmd_classify)

    p = sub.add_parser("dims", help="fundamental graded module dimension")
    p.add_argument("--n", type=_int_option, required=True)
    p.add_argument("--field", choices=["R", "C", "H"], required=True)
    _add_format(p, _cmd_dims)

    p = sub.add_parser("ngroup", help="graded module Grothendieck group")
    p.add_argument("--n", type=_int_option)
    p.add_argument("--field", choices=["R", "C", "H"], required=True)
    p.add_argument("--r", type=_int_option)
    p.add_argument("--s", type=_int_option)
    p.add_argument("--h", action="store_true",
                   help="complex modules over the quaternionified algebra")
    _add_format(p, _cmd_ngroup)

    p = sub.add_parser("genus", help="twisted genus of an oriented 4-manifold")
    p.add_argument("--sig", type=_int_option, required=True)
    p.add_argument("--euler", type=_int_option, required=True)
    p.add_argument("--orientation", choices=["+", "-"], required=True)
    _add_format(p, _cmd_genus)

    p = sub.add_parser("hp-table", help="projective-space pairing matrix")
    p.add_argument("--max-i", type=_int_option, required=True, dest="max_i")
    p.add_argument("--max-j", type=_int_option, required=True, dest="max_j")
    p.add_argument("--method", choices=["binomial", "residue", "chebyshev"],
                   default="binomial")
    _add_format(p, _cmd_hp_table, tsv=True)

    p = sub.add_parser("steenrod", help="mod-2 Steenrod operations")
    ssub = p.add_subparsers(dest="subcommand", required=True)

    q = ssub.add_parser("sq", help="apply a Steenrod square to a polynomial")
    q.add_argument("--k", type=_int_option, required=True)
    q.add_argument("--poly", type=str, required=True)
    _add_format(q, _cmd_steenrod_sq)

    q = ssub.add_parser("wu", help="Wu classes of the oriented universal bundle")
    q.add_argument("--max-degree", type=_int_option, required=True, dest="max_degree")
    _add_format(q, _cmd_steenrod_wu)

    q = ssub.add_parser("verify-bspinh", help="quotient-presentation verification")
    q.add_argument("--max-degree", type=_int_option, required=True, dest="max_degree")
    _add_format(q, _cmd_steenrod_verify)

    p = sub.add_parser("ktable", help="K-theory coefficient groups")
    p.add_argument("--theory", choices=["KO", "KU", "KSp"], required=True)
    p.add_argument("--coeff", type=str, default="Z")
    p.add_argument("--range", type=str, required=True,
                   help="degree range, e.g. 0..16 (use --range=-3..-1 for a negative "
                        "lower end)")
    _add_format(p, _cmd_ktable, tsv=True)

    p = sub.add_parser("zk-index", help="mod-k index arithmetic")
    p.add_argument("--n", type=_int_option, required=True)
    p.add_argument("--k", type=_int_option, required=True)
    p.add_argument("--integral", type=str, required=True,
                   help="exact rational, e.g. 6 or 9/2 (use --integral=-3/2 for negatives)")
    p.add_argument("--eta", type=str, default="0",
                   help="exact rational (use --eta=-5/2 form for negatives)")
    _add_format(p, _cmd_zk_index)

    p = sub.add_parser("dual", help="double dual of a finitely generated abelian group")
    p.add_argument("--rank", type=_int_option, default=0)
    p.add_argument("--torsion", type=str, default="",
                   help="comma-separated cyclic orders, e.g. 4,6")
    _add_format(p, _cmd_dual)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # Python 3.11's argparse stores `--opt=--` as [] without running
        # type= or choices, and other versions may pass "--" on; no option
        # here takes a list or the value --
        for name, value in vars(args).items():
            if isinstance(value, list) or value == "--":
                parser.error(f"argument --{name.replace('_', '-')}: expected one argument")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        payload, output = args.handler(args)
    except (ValueError, ArithmeticError) as exc:
        category = type(exc).__name__
        print(f"error[{category}]: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        # imported here, as the handlers import their families: `--format
        # text` runs never load json
        import json
        output = json.dumps(payload, sort_keys=True, separators=(", ", ": "))
    try:
        print(output)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe early (`spinhalg ... | head`).  Point
        # stdout at devnull so the interpreter's final flush cannot raise
        # again, and report the unwritten output through the exit code.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
