"""Command line interface.

Subcommands: eval (expression language), partitions, tableaux, ribbons,
rc, kostka, genkostka, llt, bases; each accepts ``--format text|json``.
The table ``_COMMANDS`` parses and dispatches, so a cold start compiles
no argparse, gettext or locale when bytecode is not cached.
Options come before or after the positionals, as ``--opt value`` or
``--opt=value``, never abbreviated; ``--`` ends them, a word with one
leading dash such as ``-1`` is a positional, and ``-h``/``--help``
prints usage built from the table.  Exit codes: 0 success, 1 user error
(bad syntax, bad input, precondition violations, a reader that closes
the output pipe early), 2 internal failure.  ``partitions N`` lists at
most N = MAX_PARTITIONS_N = 46 (105,558 partitions, about 2 s); a larger
N is a user error raised before listing.  The ribbon, LLT and
rigged-configuration modules are imported inside the subcommands that
use them, and json inside ``_print_json``, so a text ``eval`` starts
without loading them.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

from .algebra import SymElement, SymmetricFunctions
from .coeffs import Coeff
from .errors import UserInputError
from .exprs import evaluate, parse_partition_text
from .partitions import Partition, partitions_of
from .tableaux import charge, kostka_poly, ssyt

MAX_PARTITIONS_N = 46


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


_FORMAT = {"--format": ("text", "{text,json}", "output format (default text)")}

# One entry per command: its handler, its help line, its positionals
# {name: type} and its options {flag: (default, metavar, help)}.
_COMMANDS = {
    "eval": (_cmd_eval, "evaluate an expression", {"expression": str}, {
        "--basis": (None, "BASIS", "convert the result to this basis before printing"),
        "--var-names": (None, "Q,T", "rename the two deformation variables in text output"),
        **_FORMAT,
    }),
    "partitions": (_cmd_partitions, "list partitions of n", {"n": int}, _FORMAT),
    "tableaux": (_cmd_tableaux, "semistandard tableaux of a shape and content",
                 {"shape": str, "content": str}, _FORMAT),
    "ribbons": (_cmd_ribbons, "k-ribbon tableaux of a shape and weight",
                {"shape": str, "weight": str, "k": int}, _FORMAT),
    "rc": (_cmd_rc, "rigged configurations for a partition pair",
           {"lam": str, "mu": str}, _FORMAT),
    "kostka": (_cmd_kostka, "Kostka polynomial via the charge statistic",
               {"lam": str, "mu": str}, _FORMAT),
    "genkostka": (_cmd_genkostka, "generalized Kostka polynomial from k-ribbons",
                  {"lam": str, "mu": str, "k": int}, _FORMAT),
    "llt": (_cmd_llt, "LLT polynomial of a shape", {"shape": str, "k": int}, {
        "--basis": ("m", "BASIS", "basis for the output (default m)"), **_FORMAT
    }),
    "bases": (_cmd_bases, "list registered bases, scalar products and operators",
              {}, _FORMAT),
}


def _usage(name: str | None) -> str:
    """The usage line of command `name`, or of qtsym when it is None."""
    if name is None:
        return "usage: qtsym [-h] {" + ",".join(_COMMANDS) + "} ..."
    _, _, positionals, options = _COMMANDS[name]
    words = [f"[{flag} {meta}]" for flag, (_, meta, _) in options.items()]
    return " ".join(["usage: qtsym", name, "[-h]", *words, *positionals])


def _help(name: str | None) -> str:
    """The text that -h or --help prints for command `name`, or for qtsym."""
    if name is None:
        head = "Symmetric functions over Q(q,t): bases, conversions, Hall-Littlewood\n"
        head += "and Macdonald families, ribbon and rigged combinatorics.\n\ncommands:"
        rows = [(cmd, entry[1]) for cmd, entry in _COMMANDS.items()]
    else:
        _, head, positionals, options = _COMMANDS[name]
        head += "\n\narguments:"
        rows = [(p, kind.__name__) for p, kind in positionals.items()]
        rows += [(f"{flag} {meta}", text) for flag, (_, meta, text) in options.items()]
        rows.append(("-h, --help", "show this help message and exit"))
    return "\n".join([_usage(name), "", head, *(f"  {a:22}{b}" for a, b in rows)])


class _UsageError(Exception):
    """A command line that names no command, or does not fit its entry."""


def _parse(argv: list[str]):
    """The handler argv names and its arguments; print and the text for help."""
    name, *words = argv or [None]
    if name in ("-h", "--help"):
        return print, _help(None)
    if name not in _COMMANDS:
        raise _UsageError(None, f"unknown command {name!r}" if name else "no command")
    handler, _, positionals, options = _COMMANDS[name]
    values = {flag: default for flag, (default, _, _) in options.items()}
    found = []
    rest = iter(words)
    for word in rest:
        if word == "--":
            found += rest
        elif word in ("-h", "--help"):
            return print, _help(name)
        elif word.startswith("--"):
            flag, eq, value = word.partition("=")
            if flag not in values:
                raise _UsageError(name, f"unknown option {flag}")
            values[flag] = value if eq else next(rest, None)
            if values[flag] is None:
                raise _UsageError(name, f"{flag} needs a value")
        else:
            found.append(word)
    if values["--format"] not in ("text", "json"):
        raise _UsageError(name, f"--format is text or json, not {values['--format']!r}")
    if len(found) != len(positionals):
        counts = f"expected {len(positionals)}, got {len(found)}"
        raise _UsageError(name, f"arguments: {counts}")
    args = {flag[2:].replace("-", "_"): value for flag, value in values.items()}
    for (pname, kind), word in zip(positionals.items(), found):
        try:
            args[pname] = kind(word)
        except ValueError:
            raise _UsageError(name, f"{pname} is not an integer: {word!r}") from None
    return handler, SimpleNamespace(**args)


def main(argv: list[str] | None = None) -> int:
    try:
        handler, args = _parse(sys.argv[1:] if argv is None else argv)
        handler(args)
        sys.stdout.flush()
    except _UsageError as exc:
        name, message = exc.args
        prog = "qtsym" if name is None else f"qtsym {name}"
        print(f"{_usage(name)}\n{prog}: error: {message}", file=sys.stderr)
        return 1
    except UserInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader left (as `qtsym partitions 40 | head -1` does): send
        # what is still buffered to devnull, so the flush at exit cannot
        # fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except Exception as exc:  # noqa: BLE001 - anything else is internal
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
