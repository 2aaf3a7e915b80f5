"""Expression language over registered bases.

Grammar (whitespace insensitive, left associative):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | factor
    factor := atom ('^' nat)?
    atom   := nat | 'q' | 't'
            | ident '[' (nat (',' nat)*)? ']'
            | ident '(' expr (',' expr)* ')'
            | '(' expr ')'

Unary minus, division and the empty index list exist so that every
rendered element parses back: renderings use leading minus signs,
rational-function coefficients and degree-zero elements like ``m[]``.

Brackets, calls and unary minus nest at most MAX_NESTING levels deep;
deeper input is a syntax error rather than a stack overflow.  Chains of
binary operators may be any length.

Symmetric functions are bounded at degree MAX_DEGREE = 12: a basis element
literal, a product of elements or a power of an element whose degree would
exceed it is an error raised before any computation starts, so a typo such
as ``McdP[13]`` or ``s[7]*s[7]`` fails at once instead of starting a run
whose cost grows steeply with the degree.  Exponents of q and t are
bounded too: each stays below 2^19 (`poly.EXP_LIMIT`), and a power such as
``t^600000`` is an error at that node.  A power of a coefficient whose
numerator or denominator has more than one term may have at most
MAX_POWER_TERMS = 1000 terms, counted before expanding: a part whose
exponents span a in q and b in t counts (na + 1)(nb + 1) at power n, so
``(1+q)^1000`` and ``(1+q+t)^31`` are errors at that node; powers of
monomials such as ``t^500000`` stay one term.  A power whose
coefficients may reach 2^19 bits (`poly.EXP_LIMIT` again) is an error
at that node too, such as ``2^100000000`` or ``(3*q)^400000``: the n-th
power of the sum of a numerator's or denominator's absolute
coefficients bounds them, exactly for a rational constant.  Both bounds
apply to the one coefficient of a degree-0 element such as
``(2*s[])^600000``.  A number
literal longer than Python converts to an int (4,300 digits by default)
is an error at its position.

Each distinct source text is parsed once: ``evaluate`` and
``coefficient_from_text`` take their trees from an LRU cache of the last
512 texts, whose hit and miss counts ``_parsed.cache_info()`` reports.
A tree holds no registry state and evaluation never mutates it, so one
tree serves every registry; a text that fails to parse is not cached.
``parse`` itself still builds a fresh tree on every call.

Names resolve at evaluation time against the registry, so bases
registered after parsing still work.  ``to_<basis>(f)`` converts,
``scalar``/``scalar_t``/``scalar_qt`` take the three inner products, and
any registered operator name (such as ``omega``) is callable.
"""

from __future__ import annotations

import functools
import math
import operator
import sys

from .algebra import SymElement, SymmetricFunctions
from .coeffs import Coeff
from .errors import ExpressionError, QtSymError
from .partitions import Partition
from .poly import EXP_LIMIT

_SYMBOLS = "+-*/^()[],"

MAX_NESTING = 100
MAX_DEGREE = 12
MAX_POWER_TERMS = 1000


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int):
        self.kind = kind  # "num" | "ident" | one of _SYMBOLS | "end"
        self.text = text
        self.pos = pos


def _tokenize(src: str) -> list[_Token]:
    # 0 for no limit, as before Python 3.10.7 had one
    max_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    out: list[_Token] = []
    i = 0
    while i < len(src):
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < len(src) and src[j].isdecimal():
                j += 1
            if max_digits and j - i > max_digits:
                raise ExpressionError(
                    f"number at position {i} has more than {max_digits} digits"
                )
            out.append(_Token("num", src[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(src) and (src[j].isalnum() or src[j] == "_"):
                j += 1
            out.append(_Token("ident", src[i:j], i))
            i = j
            continue
        if ch in _SYMBOLS:
            out.append(_Token(ch, ch, i))
            i += 1
            continue
        raise ExpressionError(f"unexpected character {ch!r} at position {i}")
    out.append(_Token("end", "", len(src)))
    return out


class Node:
    """One expression node; span points back into the source text."""

    __slots__ = ("kind", "value", "children", "span")

    def __init__(self, kind: str, value, children: tuple, span: tuple[int, int]):
        self.kind = kind
        self.value = value
        self.children = children
        self.span = span

    def __repr__(self) -> str:
        return f"Node({self.kind}, {self.value}, {self.children})"


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.at = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.at]

    def take(self, kind: str | None = None) -> _Token:
        tok = self.tokens[self.at]
        if kind is not None and tok.kind != kind:
            want = {"num": "a number", "ident": "a name"}.get(kind, repr(kind))
            raise ExpressionError(
                f"expected {want} at position {tok.pos}, got "
                + (repr(tok.text) if tok.text else "end of input")
            )
        self.at += 1
        return tok

    def nested(self, parse, tok: _Token) -> Node:
        """Run one recursive step of the grammar under the nesting bound."""
        if self.depth == MAX_NESTING:
            raise ExpressionError(
                f"expression nests more than {MAX_NESTING} levels deep "
                f"at position {tok.pos}"
            )
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    def parse(self) -> Node:
        node = self.expr()
        tail = self.peek()
        if tail.kind != "end":
            raise ExpressionError(
                f"unexpected {tail.text!r} at position {tail.pos}"
            )
        return node

    def expr(self) -> Node:
        node = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.take()
            right = self.term()
            node = Node(
                "add" if op.kind == "+" else "sub",
                None,
                (node, right),
                (node.span[0], right.span[1]),
            )
        return node

    def term(self) -> Node:
        node = self.unary()
        while self.peek().kind in ("*", "/"):
            op = self.take()
            right = self.unary()
            node = Node(
                "mul" if op.kind == "*" else "div",
                None,
                (node, right),
                (node.span[0], right.span[1]),
            )
        return node

    def unary(self) -> Node:
        if self.peek().kind == "-":
            tok = self.take()
            inner = self.nested(self.unary, tok)
            return Node("neg", None, (inner,), (tok.pos, inner.span[1]))
        return self.factor()

    def factor(self) -> Node:
        node = self.atom()
        if self.peek().kind == "^":
            self.take()
            exp = self.take("num")
            node = Node(
                "pow",
                int(exp.text),
                (node,),
                (node.span[0], exp.pos + len(exp.text)),
            )
        return node

    def atom(self) -> Node:
        tok = self.peek()
        if tok.kind == "num":
            self.take()
            return Node(
                "num", int(tok.text), (), (tok.pos, tok.pos + len(tok.text))
            )
        if tok.kind == "(":
            self.take()
            inner = self.nested(self.expr, tok)
            close = self.take(")")
            return Node(
                inner.kind,
                inner.value,
                inner.children,
                (tok.pos, close.pos + 1),
            )
        if tok.kind == "ident":
            self.take()
            follow = self.peek()
            if follow.kind == "[":
                self.take()
                parts: list[int] = []
                if self.peek().kind != "]":
                    parts.append(int(self.take("num").text))
                    while self.peek().kind == ",":
                        self.take()
                        parts.append(int(self.take("num").text))
                close = self.take("]")
                return Node(
                    "elem",
                    (tok.text, tuple(parts)),
                    (),
                    (tok.pos, close.pos + 1),
                )
            if follow.kind == "(":
                self.take()
                args = [self.nested(self.expr, follow)]
                while self.peek().kind == ",":
                    self.take()
                    args.append(self.nested(self.expr, follow))
                close = self.take(")")
                return Node(
                    "call",
                    tok.text,
                    tuple(args),
                    (tok.pos, close.pos + 1),
                )
            return Node(
                "var", tok.text, (), (tok.pos, tok.pos + len(tok.text))
            )
        raise ExpressionError(
            f"expected a value at position {tok.pos}, got "
            + (repr(tok.text) if tok.text else "end of input")
        )


def parse(src: str) -> Node:
    """Parse source text into an expression tree."""
    return _Parser(src).parse()


@functools.lru_cache(maxsize=512)
def _parsed(src: str) -> Node:
    """The tree of src, shared by every caller.  A miss looks parse up by
    name, so a tracer that replaces exprs.parse still sees every miss."""
    return parse(src)


_SCALAR_CALLS = {"scalar": "hall", "scalar_t": "hall_t", "scalar_qt": "hall_qt"}

_BINARY = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "div": operator.truediv,
}


class _Evaluator:
    def __init__(self, S: SymmetricFunctions | None, src: str, scalars_only: bool):
        self.S = S
        self.src = src
        self.scalars_only = scalars_only

    def fail(self, node: Node, message: str) -> ExpressionError:
        lo, hi = node.span
        return ExpressionError(f"{message} (in '{self.src[lo:hi]}')")

    def eval(self, node: Node):
        kind = node.kind
        if kind == "num":
            return Coeff.from_value(node.value)
        if kind == "var":
            if node.value in ("q", "t"):
                return Coeff.var(node.value)
            raise self.fail(
                node,
                f"unknown name {node.value!r}; basis elements are written "
                f"{node.value}[...]",
            )
        if kind == "elem":
            return self.eval_elem(node)
        if kind == "call":
            return self.eval_call(node)
        if kind == "neg":
            # negation raises nothing, so an error below it keeps its node
            return -self.eval(node.children[0])
        if kind == "pow":
            base = self.eval(node.children[0])
            self.bound_degree(node, _degree(base) * node.value)
            if not _degree(base):
                # a coefficient, or an element of degree 0 and its one
                # coefficient
                self.bound_power(node, base, node.value)
            try:
                return base ** node.value
            except QtSymError as exc:
                raise self.fail(node, str(exc)) from exc
        # a left-associative chain such as 1 + 2 + ... + n is as deep as it
        # is long, so walk its left spine in a loop instead of recursing
        spine = []
        while node.kind in _BINARY:
            spine.append(node)
            node = node.children[0]
        value = self.eval(node)
        for op in reversed(spine):
            value = self.binary(op, value, self.eval(op.children[1]))
        return value

    def bound_degree(self, node: Node, degree: int) -> None:
        if degree > MAX_DEGREE:
            raise self.fail(
                node,
                f"degree {_shown(degree)} exceeds the maximum degree {MAX_DEGREE}",
            )

    def bound_power(self, node: Node, base, n: int) -> None:
        """Refuse a power of a coefficient, or of the coefficient of a
        degree-0 element, that may pass MAX_POWER_TERMS terms or have a
        coefficient of EXP_LIMIT bits."""
        if isinstance(base, SymElement):
            base = base.coefficient(Partition())
        if not base.is_single_term():
            size = _power_size(base, n)
            if size > MAX_POWER_TERMS:
                raise self.fail(
                    node,
                    f"a power of a coefficient is bounded at {MAX_POWER_TERMS} "
                    f"terms, and this one may have {_shown(size)}",
                )
        if _power_bits(base, n) >= EXP_LIMIT:
            raise self.fail(
                node,
                f"the coefficients of a power are bounded at {EXP_LIMIT} bits",
            )

    def binary(self, node: Node, left, right):
        if node.kind == "mul":
            self.bound_degree(node, _degree(left) + _degree(right))
        try:
            return _BINARY[node.kind](left, right)
        except QtSymError as exc:
            raise self.fail(node, str(exc)) from exc
        except TypeError:
            pass
        raise self.fail(node, f"cannot apply {node.kind!r} to these operands")

    def eval_elem(self, node: Node) -> SymElement:
        if self.scalars_only:
            raise self.fail(node, "only q, t and rationals are allowed here")
        name, parts = node.value
        self.bound_degree(node, sum(parts))
        try:
            return self.S.element(name, Partition(parts))
        except QtSymError as exc:
            raise self.fail(node, str(exc)) from exc

    def eval_call(self, node: Node):
        name = node.value
        args = node.children
        if name in _SCALAR_CALLS:
            if len(args) != 2:
                raise self.fail(node, f"{name}() takes exactly two arguments")
            f, g = (self.eval(a) for a in args)
            if not isinstance(f, SymElement) or not isinstance(g, SymElement):
                raise self.fail(
                    node, f"{name}() needs two symmetric function arguments"
                )
            try:
                return self.S.scalar(f, g, _SCALAR_CALLS[name])
            except QtSymError as exc:
                raise self.fail(node, str(exc)) from exc
        if self.scalars_only:
            raise self.fail(node, "only q, t and rationals are allowed here")
        if name.startswith("to_"):
            target = name[3:]
            if len(args) != 1:
                raise self.fail(node, f"{name}() takes exactly one argument")
            value = self.eval(args[0])
            try:
                if isinstance(value, Coeff):
                    value = self.S.element(target, {Partition(): value})
                return self.S.convert(value, target)
            except QtSymError as exc:
                raise self.fail(node, str(exc)) from exc
        if name in self.S.operators():
            if len(args) != 1:
                raise self.fail(node, f"{name}() takes exactly one argument")
            value = self.eval(args[0])
            if isinstance(value, Coeff):
                value = self.S.one().scaled(value)
            try:
                return self.S.apply_operator(name, value)
            except QtSymError as exc:
                raise self.fail(node, str(exc)) from exc
        raise self.fail(
            node,
            f"unknown function {name!r}; expected to_<basis>, "
            "scalar, scalar_t, scalar_qt, or a registered operator",
        )


def _shown(n: int) -> str:
    """n as text for a message; a count formed from number literals of
    thousands of digits may be too long for Python to print."""
    return str(n) if n < 10**18 else "more than 10^18"


def _power_size(c: Coeff, n: int) -> int:
    """A bound on the terms of c^n: a numerator or denominator with
    exponent ranges a in q and b in t has its n-th power within an
    (na + 1) x (nb + 1) grid.  Monomials count 0, as their powers stay
    single terms."""
    size = 0
    for terms in (c.numerator_terms(), c.denominator_terms()):
        if len(terms) > 1:
            eqs = [eq for eq, _ in terms]
            ets = [et for _, et in terms]
            size += (n * (max(eqs) - min(eqs)) + 1) * (n * (max(ets) - min(ets)) + 1)
    return size


def _power_bits(c: Coeff, n: int) -> int:
    """A bound on the bit length of the coefficients of c^n, exact for a
    rational constant: no coefficient of p^n passes the n-th power of the
    sum of p's absolute coefficients, numerator and denominator alike.
    An exponent of EXP_LIMIT or more counts as EXP_LIMIT, which passes the
    bound at any sum of 2 or more."""
    norm = max(sum(map(abs, c.num.values()), 0), sum(map(abs, c.den.values())))
    return int(min(n, EXP_LIMIT) * math.log2(norm)) + 1


def _degree(value) -> int:
    """The top degree of an element; coefficients have degree 0."""
    if isinstance(value, SymElement):
        return max((lam.size for lam in value.terms), default=0)
    return 0


def evaluate(S: SymmetricFunctions, src: str):
    """Parse and evaluate; the result is an element or a coefficient."""
    return _Evaluator(S, src, scalars_only=False).eval(_parsed(src))


def coefficient_from_text(src: str) -> Coeff:
    """Evaluate text that must denote a plain Q(q,t) coefficient."""
    # a scalars_only evaluator rejects every element, so the value is a Coeff
    return _Evaluator(None, src, scalars_only=True).eval(_parsed(src))


def element_from_json(S: SymmetricFunctions, data) -> SymElement:
    """Rebuild an element from its JSON form {basis, terms: [...]}."""
    try:
        basis = data["basis"]
        raw_terms = data["terms"]
    except (TypeError, KeyError) as exc:
        raise ExpressionError(
            "element JSON needs 'basis' and 'terms' fields"
        ) from exc
    terms = {}
    for item in raw_terms:
        try:
            lam = Partition(item["partition"])
            coeff = coefficient_from_text(item["coeff"])
        except (TypeError, KeyError) as exc:
            raise ExpressionError(
                "each term needs 'partition' and 'coeff' fields"
            ) from exc
        terms[lam] = terms.get(lam, Coeff.from_value(0)) + coeff
    return S.element(basis, terms)


def parse_partition_text(text: str) -> Partition:
    """Partitions on the command line: comma-separated parts like 4,3,2.

    Surrounding brackets are allowed, and '[]' or '' denote the empty
    partition.
    """
    body = text.strip()
    if body.startswith("[") and body.endswith("]"):
        body = body[1:-1].strip()
    if not body:
        return Partition()
    try:
        parts = tuple(int(piece) for piece in body.split(","))
    except ValueError:
        raise ExpressionError(
            f"{text!r} is not a partition; write comma-separated parts like 4,3,2"
        ) from None
    return Partition(parts)
