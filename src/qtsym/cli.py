"""Command line interface.

Subcommands: eval (expression language), partitions, tableaux, ribbons,
rc, kostka, genkostka, llt, bases.  Every subcommand accepts
``--format text|json``.  Exit codes: 0 success, 1 user error (bad
syntax, bad input, precondition violations), 2 internal failure.
``partitions N`` lists at most N = MAX_PARTITIONS_N = 46 (105,558
partitions, about 2 s); a larger N is a user error raised before listing.
The ribbon, LLT and rigged-configuration modules are imported inside the
subcommands that use them, and json inside ``_print_json``, so a text
``eval`` starts without loading them.
"""

from __future__ import annotations

import argparse
import sys

from .algebra import SymElement, SymmetricFunctions
from .coeffs import Coeff
from .errors import UserInputError
from .exprs import evaluate, parse_partition_text
from .partitions import Partition, partitions_of
from .tableaux import charge, kostka_poly, ssyt

MAX_PARTITIONS_N = 46


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtsym",
        description="Symmetric functions over Q(q,t): bases, conversions, "
        "Hall-Littlewood and Macdonald families, ribbon and rigged "
        "combinatorics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--format",
            choices=("text", "json"),
            default="text",
            help="output format (default text)",
        )

    p_eval = sub.add_parser("eval", help="evaluate an expression")
    p_eval.add_argument("expression")
    p_eval.add_argument(
        "--basis", help="convert the result to this basis before printing"
    )
    p_eval.add_argument(
        "--var-names",
        metavar="Q,T",
        help="rename the two deformation variables in text output",
    )
    add_format(p_eval)

    p_partitions = sub.add_parser("partitions", help="list partitions of n")
    p_partitions.add_argument("n", type=int)
    add_format(p_partitions)

    p_tableaux = sub.add_parser(
        "tableaux", help="semistandard tableaux of a shape and content"
    )
    p_tableaux.add_argument("shape")
    p_tableaux.add_argument("content")
    add_format(p_tableaux)

    p_ribbons = sub.add_parser(
        "ribbons", help="k-ribbon tableaux of a shape and weight"
    )
    p_ribbons.add_argument("shape")
    p_ribbons.add_argument("weight")
    p_ribbons.add_argument("k", type=int)
    add_format(p_ribbons)

    p_rc = sub.add_parser(
        "rc", help="rigged configurations for a partition pair"
    )
    p_rc.add_argument("lam")
    p_rc.add_argument("mu")
    add_format(p_rc)

    p_kostka = sub.add_parser(
        "kostka", help="Kostka polynomial via the charge statistic"
    )
    p_kostka.add_argument("lam")
    p_kostka.add_argument("mu")
    add_format(p_kostka)

    p_genkostka = sub.add_parser(
        "genkostka", help="generalized Kostka polynomial from k-ribbons"
    )
    p_genkostka.add_argument("lam")
    p_genkostka.add_argument("mu")
    p_genkostka.add_argument("k", type=int)
    add_format(p_genkostka)

    p_llt = sub.add_parser("llt", help="LLT polynomial of a shape")
    p_llt.add_argument("shape")
    p_llt.add_argument("k", type=int)
    p_llt.add_argument(
        "--basis", default="m", help="basis for the output (default m)"
    )
    add_format(p_llt)

    p_bases = sub.add_parser(
        "bases", help="list registered bases, scalar products and operators"
    )
    add_format(p_bases)

    return parser


def _var_names(raw: str | None, S: SymmetricFunctions) -> tuple[str, str]:
    if raw is None:
        return "q", "t"
    pieces = [piece.strip() for piece in raw.split(",")]
    if len(pieces) != 2 or not all(pieces):
        raise UserInputError(
            f"--var-names takes two comma-separated names, got {raw!r}"
        )
    qname, tname = pieces
    for name in pieces:
        if not name.isidentifier():
            raise UserInputError(f"--var-names: {name!r} is not an identifier")
        if name in S:
            raise UserInputError(f"--var-names: {name!r} is a basis name")
    if qname == tname:
        raise UserInputError(f"--var-names: the two names must differ, got {raw!r}")
    return qname, tname


def _print_json(payload, indent: int | None = 2) -> None:
    import json

    print(json.dumps(payload, indent=indent))


def _print_blocks(blocks: list[str]) -> None:
    print("\n\n".join(blocks) if blocks else "(none)")


def _cmd_eval(args) -> None:
    S = SymmetricFunctions()
    qname, tname = _var_names(args.var_names, S)
    value = evaluate(S, args.expression)
    if isinstance(value, Coeff) and args.basis:
        value = S.element(args.basis, {Partition(): value})
    if isinstance(value, SymElement):
        if args.basis:
            value = S.convert(value, args.basis)
        if args.format == "json":
            _print_json(value.to_json())
        else:
            print(S.render_element(value, qname, tname))
    else:
        if args.format == "json":
            _print_json({"coeff": str(value)})
        else:
            print(value.render(qname, tname))


def _cmd_partitions(args) -> None:
    if args.n < 0:
        raise UserInputError("partitions are indexed by nonnegative integers")
    if args.n > MAX_PARTITIONS_N:
        raise UserInputError(
            f"partitions lists n <= {MAX_PARTITIONS_N}; n = {args.n} has too many"
        )
    items = partitions_of(args.n)
    if args.format == "json":
        _print_json([list(lam.parts) for lam in items], indent=None)
    else:
        for lam in items:
            print(lam)


def _cmd_tableaux(args) -> None:
    shape = parse_partition_text(args.shape)
    content = parse_partition_text(args.content)
    items = ssyt(shape, content.parts)
    if args.format == "json":
        payload = [
            {**tab.to_json(), "charge": charge(tab)} for tab in items
        ]
        _print_json(payload)
    else:
        _print_blocks(
            [f"{tab.render()}\ncharge: {charge(tab)}" for tab in items]
        )


def _cmd_ribbons(args) -> None:
    from .ribbons import ribbon_tableaux

    shape = parse_partition_text(args.shape)
    weight = parse_partition_text(args.weight)
    items = ribbon_tableaux(shape, weight.parts, args.k)
    if args.format == "json":
        _print_json([tab.to_json() for tab in items])
    else:
        _print_blocks([f"{tab.render()}\nspin: {tab.spin}" for tab in items])


def _cmd_rc(args) -> None:
    from .rigged import rigged_configurations

    lam = parse_partition_text(args.lam)
    mu = parse_partition_text(args.mu)
    items = rigged_configurations(lam, mu)
    if args.format == "json":
        _print_json([rc.to_json() for rc in items])
    else:
        _print_blocks(
            [f"{rc.render()}\ncocharge: {rc.cocharge()}" for rc in items]
        )


def _cmd_kostka(args) -> None:
    lam = parse_partition_text(args.lam)
    mu = parse_partition_text(args.mu)
    value = kostka_poly(lam, mu.parts)
    if args.format == "json":
        _print_json({"polynomial": str(value)}, indent=None)
    else:
        print(value)


def _cmd_genkostka(args) -> None:
    from .llt import generalized_kostka

    S = SymmetricFunctions()
    lam = parse_partition_text(args.lam)
    mu = parse_partition_text(args.mu)
    value = generalized_kostka(S, lam, mu, args.k)
    if args.format == "json":
        _print_json({"polynomial": str(value)}, indent=None)
    else:
        print(value)


def _cmd_llt(args) -> None:
    from .llt import llt_in_m

    S = SymmetricFunctions()
    shape = parse_partition_text(args.shape)
    element = S.convert(llt_in_m(S, shape, args.k), args.basis)
    if args.format == "json":
        _print_json(element.to_json())
    else:
        print(element)


def _cmd_bases(args) -> None:
    S = SymmetricFunctions()
    if args.format == "json":
        payload = {
            "bases": [
                {"name": name, "description": text}
                for name, text in S.bases()
            ],
            "scalar_products": S.scalar_products(),
            "operators": S.operators(),
        }
        _print_json(payload)
    else:
        for name, text in S.bases():
            print(f"{name:6} {text}")
        print("scalar products: " + ", ".join(S.scalar_products()))
        print("operators: " + ", ".join(S.operators()))


_COMMANDS = {
    "eval": _cmd_eval,
    "partitions": _cmd_partitions,
    "tableaux": _cmd_tableaux,
    "ribbons": _cmd_ribbons,
    "rc": _cmd_rc,
    "kostka": _cmd_kostka,
    "genkostka": _cmd_genkostka,
    "llt": _cmd_llt,
    "bases": _cmd_bases,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse reports usage problems with code 2; those are user
        # errors here, while --help exits 0
        code = exc.code or 0
        return 1 if code == 2 else int(code)
    try:
        _COMMANDS[args.command](args)
    except UserInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - anything else is internal
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
