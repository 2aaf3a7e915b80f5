"""The ring of symmetric functions over Q(q,t) with pluggable bases.

A SymmetricFunctions registry holds named bases and directed conversion
edges between them.  Each edge knows how to expand one basis element of a
given degree in another basis; full change-of-basis matrices per degree
are built lazily, cached, and composed along shortest paths through the
graph.  Every registered edge automatically contributes the reverse edge
by exact matrix inversion, so one expansion rule per basis is enough to
reach everything else.

Elements are sparse dicts partition -> coefficient tagged with a basis
name.  Addition of elements in different bases converts both to a common
basis that minimizes the summed conversion distance; ties fall to the
earliest registered basis.  Multiplication concatenates indices in the
multiplicative bases, uses a basis-specific structure rule where one is
registered, and otherwise routes through h.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from typing import Callable, Iterable, Mapping

from .coeffs import ONE, Q, T, ZERO, Coeff, _composed, _lifted, dot
from .errors import BasisError, ScalarProductError
from .linalg import CoeffMatrix
from .partitions import Partition, partitions_of


class _Basis:
    __slots__ = ("description", "multiplicative", "product")

    def __init__(self, description, multiplicative, product):
        self.description = description
        self.multiplicative = multiplicative
        self.product = product


class _Edge:
    """A directed conversion rule between two registered bases."""

    __slots__ = ("frm", "to", "kind", "payload", "key")

    def __init__(self, frm, to, kind, payload, key):
        self.frm = frm
        self.to = to
        self.kind = kind  # "explicit" | "inverse" | "transpose"
        self.payload = payload
        self.key = key


def _by_degree(terms: Mapping[Partition, Coeff]) -> dict[int, dict[Partition, Coeff]]:
    """The terms split by degree, in increasing degree."""
    split: dict[int, dict[Partition, Coeff]] = {}
    for lam, c in terms.items():
        split.setdefault(lam.size, {})[lam] = c
    return dict(sorted(split.items()))


class SymElement:
    """A finite Q(q,t)-linear combination of basis elements."""

    __slots__ = ("algebra", "basis", "terms")

    def __init__(self, algebra: "SymmetricFunctions", basis: str, terms):
        self.algebra = algebra
        self.basis = basis
        self.terms = {
            lam: c for lam, c in terms.items() if not c.is_zero()
        }

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, lam: Partition) -> Coeff:
        return self.terms.get(lam, ZERO)

    def support(self) -> list[Partition]:
        return sorted(self.terms, key=lambda p: (p.size, p.parts))

    def convert(self, target: str) -> "SymElement":
        return self.algebra.convert(self, target)

    def substitute(self, assignments=None, **kw) -> "SymElement":
        return self.map_coefficients(lambda c: c.substitute(assignments, **kw))

    def map_coefficients(self, fn: Callable[[Coeff], Coeff]) -> "SymElement":
        return SymElement(
            self.algebra, self.basis, {lam: fn(c) for lam, c in self.terms.items()}
        )

    # -- arithmetic ----------------------------------------------------

    def _lift(self, value) -> "SymElement | None":
        if isinstance(value, SymElement):
            return value
        if isinstance(value, (int, Fraction, Coeff)):
            return SymElement(
                self.algebra, self.basis, {Partition(): Coeff.from_value(value)}
            )
        return None

    def __add__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return self.algebra.add(self, other)

    __radd__ = __add__

    def __neg__(self):
        return SymElement(self.algebra, self.basis, {l: -c for l, c in self.terms.items()})

    def __sub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return self.algebra.add(self, -other)

    def __rsub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return self.algebra.add(other, -self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Coeff)):
            return self.scaled(Coeff.from_value(other))
        if isinstance(other, SymElement):
            return self.algebra.multiply(self, other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, Coeff)):
            return self.scaled(Coeff.from_value(other))
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, Coeff)):
            return self.scaled(ONE / Coeff.from_value(other))
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise BasisError("element powers take nonnegative integer exponents")
        result = SymElement(self.algebra, self.basis, {Partition(): ONE})
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def scaled(self, c: Coeff) -> "SymElement":
        return SymElement(
            self.algebra, self.basis, {lam: c * v for lam, v in self.terms.items()}
        )

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, Coeff)):
            other = self._lift(other)
        if not isinstance(other, SymElement):
            return NotImplemented
        if self.algebra is not other.algebra:
            return False
        if self.basis == other.basis:
            return self.terms == other.terms
        return self.algebra.add(self, -other).is_zero()

    def __hash__(self):
        # elements of different bases can be equal, so hash only what a
        # conversion keeps: the degrees, or the value of a constant
        degrees = frozenset(lam.size for lam in self.terms)
        if degrees <= {0}:
            return hash(self.coefficient(Partition()))
        return hash(degrees)

    def __str__(self) -> str:
        return self.algebra.render_element(self)

    def __repr__(self) -> str:
        return f"<{self.basis}-element {self}>"

    def to_json(self) -> dict:
        return {
            "basis": self.basis,
            "terms": [
                {"partition": list(lam.parts), "coeff": str(self.terms[lam])}
                for lam in self.support()
            ],
        }


class BasisHandle:
    """Callable shorthand: S['s']([2,1]) builds the element s[2,1]."""

    __slots__ = ("algebra", "name")

    def __init__(self, algebra: "SymmetricFunctions", name: str):
        self.algebra = algebra
        self.name = name

    def __call__(self, parts: Iterable[int] = ()) -> SymElement:
        return self.algebra.element(self.name, Partition(parts))

    def one(self) -> SymElement:
        return self.algebra.element(self.name, Partition())

    def __repr__(self) -> str:
        return f"<basis {self.name}>"


class _Operator:
    __slots__ = ("basis", "action")

    def __init__(self, basis, action):
        self.basis = basis
        self.action = action


def _pleth_factors(alphabet: Coeff, nus) -> dict[Partition, Coeff]:
    """nu -> p_nu[A] = prod_i A(q^nu_i, t^nu_i), by which X -> XA scales
    p_nu, for each nu of nus; each A(q^k, t^k) is formed once."""
    parts = {k for nu in nus for k in nu}
    images = {k: alphabet.substitute(q=Q**k, t=T**k) for k in parts}
    return {nu: prod((images[k] for k in nu), start=ONE) for nu in nus}


# the built-in products <f, g>_A = <f, g[XA]>_hall: <p_nu, p_nu>_A = z_nu p_nu[A]
_ALPHABETS = {"hall": ONE, "hall_t": ONE / (ONE - T), "hall_qt": (ONE - Q) / (ONE - T)}


class SymmetricFunctions:
    """Registry of bases, conversions, scalar products and operators."""

    def __init__(self):
        # bases in registration order, which orders bases() and breaks ties
        self._bases: dict[str, _Basis] = {}
        self._edges: list[_Edge] = []
        self._operators: dict[str, _Operator] = {}
        self._scalar_products: dict[str, Callable[[Partition], Coeff]] = {
            name: lambda nu, a=alphabet: _pleth_factors(a, [nu])[nu] * nu.zee()
            for name, alphabet in _ALPHABETS.items()
        }
        self._edge_matrices: dict[tuple[str, int], CoeffMatrix] = {}
        self._path_matrices: dict[tuple[str, str, int], CoeffMatrix] = {}
        # per source basis, its breadth-first parent tree over _adjacency()
        self._trees: dict[str, dict[str, tuple[str, _Edge] | None]] = {}
        # the caches below hold terms, never a SymElement: an element refers
        # back to this registry, and would keep it alive in a cycle
        self._gs_cache: dict[tuple[str, int], dict[Partition, dict]] = {}
        # scalar-product caches: diagonal values per (product, nu), for good,
        # and per (product, basis, lam) the lam column over p weighted by
        # them, next to its lifted form (the one sum rule of `coeffs`)
        self._diagonals: dict[tuple[str, Partition], Coeff] = {}
        self._weighted_columns: dict[tuple[str, str, Partition], tuple] = {}
        # per (operator, partition), the basis and terms of its image
        self._operator_images: dict[tuple[str, Partition], tuple[str, dict]] = {}
        from .classical import register_classical
        from .qt import register_qt

        register_classical(self)
        register_qt(self)

    # -- registration ----------------------------------------------------

    def register_basis(
        self,
        name: str,
        description: str = "",
        *,
        multiplicative: bool = False,
        product: Callable | None = None,
    ) -> BasisHandle:
        if not name or not name.isidentifier():
            raise BasisError(f"basis names must be identifiers, got {name!r}")
        if name in ("q", "t"):
            raise BasisError(f"basis name {name!r} collides with a field variable")
        if name in self._bases:
            raise BasisError(f"basis {name!r} is already registered")
        self._bases[name] = _Basis(description, multiplicative, product)
        self._invalidate_routes()
        return BasisHandle(self, name)

    def declare_conversion(
        self, frm: str, to: str, expand: Callable[[Partition], SymElement]
    ) -> None:
        """Register the edge frm -> to given by an expansion of basis elements."""
        self._require_basis(frm)
        self._require_basis(to)
        if frm == to:
            raise BasisError("conversions must relate two different bases")
        self._add_edge(_Edge(frm, to, "explicit", expand, f"{frm}->{to}"))

    def declare_transpose_conversion(
        self, a: str, b: str, b_dual: str, a_dual: str
    ) -> None:
        """Register b_dual -> a_dual as the transpose of the a -> b conversion.

        If a_mu = sum_lam M[lam,mu] b_lam then the dual bases satisfy
        b_dual_lam = sum_mu M[lam,mu] a_dual_mu.
        """
        for name in (a, b, b_dual, a_dual):
            self._require_basis(name)
        self._add_edge(
            _Edge(b_dual, a_dual, "transpose", (a, b), f"{b_dual}->{a_dual}#T")
        )

    def _add_edge(self, edge: _Edge) -> None:
        if any(e.frm == edge.frm and e.to == edge.to for e in self._edges):
            raise BasisError(
                f"conversion {edge.frm} -> {edge.to} is already registered"
            )
        self._edges.append(edge)
        self._invalidate_routes()

    def register_scalar_product(
        self, name: str, diagonal: Callable[[Partition], Coeff]
    ) -> None:
        if name in self._scalar_products:
            raise BasisError(f"scalar product {name!r} is already registered")
        self._scalar_products[name] = diagonal

    def declare_operator(
        self, name: str, basis: str, action: Callable[[Partition], SymElement]
    ) -> None:
        self._require_basis(basis)
        if name in self._operators:
            raise BasisError(f"operator {name!r} is already registered")
        self._operators[name] = _Operator(basis, action)

    # -- lookups -----------------------------------------------------------

    def _require_basis(self, name: str) -> _Basis:
        try:
            return self._bases[name]
        except KeyError:
            raise BasisError(f"unknown basis {name!r}") from None

    def __getitem__(self, name: str) -> BasisHandle:
        self._require_basis(name)
        return BasisHandle(self, name)

    def __contains__(self, name: str) -> bool:
        return name in self._bases

    def bases(self) -> list[tuple[str, str]]:
        return [(n, b.description) for n, b in self._bases.items()]

    def scalar_products(self) -> list[str]:
        return list(self._scalar_products)

    def operators(self) -> list[str]:
        return list(self._operators)

    # -- elements ------------------------------------------------------

    def element(self, basis: str, value) -> SymElement:
        self._require_basis(basis)
        if isinstance(value, Partition):
            return SymElement(self, basis, {value: ONE})
        if isinstance(value, Mapping):
            return SymElement(
                self,
                basis,
                {lam: Coeff.from_value(c) for lam, c in value.items()},
            )
        return SymElement(self, basis, {Partition(value): ONE})

    def zero(self, basis: str = "") -> SymElement:
        basis = basis or next(iter(self._bases))
        self._require_basis(basis)
        return SymElement(self, basis, {})

    def one(self, basis: str = "") -> SymElement:
        basis = basis or next(iter(self._bases))
        return self.element(basis, Partition())

    # -- the conversion graph ---------------------------------------------

    def _invalidate_routes(self) -> None:
        self._trees.clear()
        self._path_matrices.clear()
        self._weighted_columns.clear()

    def _adjacency(self) -> list[_Edge]:
        """Directed edges in deterministic order: explicit registrations
        first, then the inverse of each.  An inverse that repeats an explicit
        (frm, to) pair comes after it, so the breadth-first parent tree never
        takes it."""
        return self._edges + [
            _Edge(e.to, e.frm, "inverse", e, f"{e.key}~inv") for e in self._edges
        ]

    def _parent_tree(self, frm: str) -> dict[str, tuple[str, _Edge] | None]:
        """Every basis reachable from frm, in breadth-first order, mapped to
        its parent and the edge from it (None for frm).  Parents are taken
        first-come, level by level, so paths are shortest and deterministic."""
        tree = self._trees.get(frm)
        if tree is not None:
            return tree
        adjacency = self._adjacency()
        tree = {frm: None}
        queue = [frm]
        while queue:
            nxt: list[str] = []
            for node in queue:
                for edge in adjacency:
                    if edge.frm == node and edge.to not in tree:
                        tree[edge.to] = (node, edge)
                        nxt.append(edge.to)
            queue = nxt
        self._trees[frm] = tree
        return tree

    def _find_path(self, frm: str, to: str) -> list[_Edge] | None:
        tree = self._parent_tree(frm)
        if to not in tree:
            return None
        path: list[_Edge] = []
        node = to
        while tree[node] is not None:
            node, edge = tree[node]
            path.append(edge)
        path.reverse()
        return path

    def distances_from(self, frm: str) -> dict[str, int]:
        dist: dict[str, int] = {}
        # breadth-first order puts every parent before its children
        for node, parent in self._parent_tree(frm).items():
            dist[node] = 0 if parent is None else dist[parent[0]] + 1
        return dist

    def _edge_matrix(self, edge: _Edge, n: int) -> CoeffMatrix:
        cache_key = (edge.key, n)
        cached = self._edge_matrices.get(cache_key)
        if cached is not None:
            return cached
        keys = partitions_of(n)
        if edge.kind == "explicit":
            columns = {}
            for lam in keys:
                image = edge.payload(lam)
                if not isinstance(image, SymElement) or image.basis != edge.to:
                    raise BasisError(
                        f"conversion {edge.frm} -> {edge.to} returned a value "
                        f"outside the {edge.to} basis for {lam}"
                    )
                if any(mu.size != n for mu in image.terms):
                    raise BasisError(
                        f"conversion {edge.frm} -> {edge.to} changed the degree "
                        f"of {lam}"
                    )
                columns[lam] = image.terms
            matrix = CoeffMatrix.from_columns(keys, keys, columns)
        elif edge.kind == "inverse":
            base = self._edge_matrix(edge.payload, n)
            matrix = base.invert(
                label=f"{edge.payload.frm} -> {edge.payload.to} at degree {n}"
            )
        else:  # transpose
            a, b = edge.payload
            matrix = self.conversion_matrix(a, b, n).transpose()
        self._edge_matrices[cache_key] = matrix
        return matrix

    def conversion_matrix(self, frm: str, to: str, n: int) -> CoeffMatrix:
        """Matrix M with M[mu,lam] = coefficient of mu in the image of lam."""
        self._require_basis(frm)
        self._require_basis(to)
        if frm == to:
            return CoeffMatrix.identity(partitions_of(n))
        key = (frm, to, n)
        cached = self._path_matrices.get(key)
        if cached is not None:
            return cached
        path = self._find_path(frm, to)
        if path is None:
            raise BasisError(f"no conversion route from {frm!r} to {to!r}")
        matrix = self._edge_matrix(path[-1], n)
        if len(path) > 1:
            # the breadth-first parent tree makes path[:-1] the cached route
            # to path[-1].frm, so shared prefixes are multiplied once
            matrix = matrix @ self.conversion_matrix(frm, path[-1].frm, n)
        self._path_matrices[key] = matrix
        return matrix

    def convert(self, el: SymElement, target: str) -> SymElement:
        """el in the target basis, one degree at a time.

        The terms are split by degree into plain dicts, and each is applied
        to that degree's conversion matrix; the degrees share no partition,
        so the images just fill one output dict.
        """
        self._require_basis(target)
        if el.basis == target:
            return el
        out: dict[Partition, Coeff] = {}
        for n, terms in _by_degree(el.terms).items():
            out.update(self.conversion_matrix(el.basis, target, n).apply(terms))
        return SymElement(self, target, out)

    def plethysm(self, el: SymElement, alphabet) -> SymElement:
        """el[XA] in p for a coefficient A: each p_nu times p_nu[A], with
        p_k[q] = q^k and rational constants fixed.  X(1-t) is A = 1 - t."""
        terms = self.convert(el, "p").terms
        factors = _pleth_factors(Coeff.from_value(alphabet), terms)
        return SymElement(self, "p", {nu: c * factors[nu] for nu, c in terms.items()})

    def common_basis(self, a: str, b: str) -> str:
        """The basis minimizing summed conversion distance from a and b."""
        if a == b:
            return a
        da = self.distances_from(a)
        db = self.distances_from(b)
        best: tuple[int, str] | None = None
        for name in self._bases:
            if name in da and name in db:
                score = da[name] + db[name]
                if best is None or score < best[0]:
                    best = (score, name)
        if best is None:
            raise BasisError(f"no basis reachable from both {a!r} and {b!r}")
        return best[1]

    # -- arithmetic ------------------------------------------------------

    def add(self, a: SymElement, b: SymElement) -> SymElement:
        if a.basis != b.basis:
            target = self.common_basis(a.basis, b.basis)
            a = self.convert(a, target)
            b = self.convert(b, target)
        terms = dict(a.terms)
        for lam, c in b.terms.items():
            terms[lam] = terms.get(lam, ZERO) + c
        return SymElement(self, a.basis, terms)

    def multiply(self, a: SymElement, b: SymElement) -> SymElement:
        if a.basis == b.basis:
            info = self._bases[a.basis]
            if info.multiplicative:
                terms: dict[Partition, Coeff] = {}
                for lam, ca in a.terms.items():
                    for mu, cb in b.terms.items():
                        prod = Partition(sorted(lam.parts + mu.parts, reverse=True))
                        terms[prod] = terms.get(prod, ZERO) + ca * cb
                return SymElement(self, a.basis, terms)
            if info.product is not None:
                terms = {}
                for lam, ca in a.terms.items():
                    for mu, cb in b.terms.items():
                        cab = ca * cb
                        for nu, mult in info.product(lam, mu).items():
                            terms[nu] = terms.get(nu, ZERO) + cab * mult
                return SymElement(self, a.basis, terms)
        if "h" not in self._bases:
            raise BasisError(
                f"no product rule for {a.basis!r} x {b.basis!r} and no h basis "
                "to route through"
            )
        if a.basis == b.basis == "h":
            raise BasisError("the h basis must be multiplicative to take products")
        return self.multiply(self.convert(a, "h"), self.convert(b, "h"))

    # -- scalar products and orthogonalization ----------------------------

    def _diagonal(self, product: str, nu: Partition) -> Coeff:
        """The product's value <p_nu, p_nu>, memoized."""
        key = (product, nu)
        value = self._diagonals.get(key)
        if value is None:
            value = self._diagonals[key] = self._scalar_products[product](nu)
        return value

    def _weighted_column(self, product: str, basis: str, lam: Partition) -> tuple:
        """(column, lifted): column maps nu -> <basis_lam, p_nu> where that
        is nonzero, the lam column of the basis -> p matrix with each entry
        times the diagonal at nu, and lifted is its `coeffs._lifted` form.
        Cached per (product, basis, lam)."""
        key = (product, basis, lam)
        kept = self._weighted_columns.get(key)
        if kept is None:
            column = self.conversion_matrix(basis, "p", lam.size).column(lam)
            column = {
                nu: w
                for nu, c in column.items()
                if (w := c * self._diagonal(product, nu)).num
            }
            kept = self._weighted_columns[key] = (column, _lifted(column))
        return kept

    def scalar(self, f: SymElement, g: SymElement, product: str = "hall") -> Coeff:
        """<f, g> for the named product, diagonal on powersums.

        Bilinear: g is converted to p once, and each term of f is paired
        with it through the cached weighted column of its basis element, so
        the work is linear in the two supports.  Every sum follows the one
        rule of `coeffs`: an inner sum of two or more products is composed
        from the column's kept lifted form and from g, lifted at most once,
        on first need; a single product, or a column that does not nest, is
        one `dot`.
        """
        if product not in self._scalar_products:
            raise BasisError(f"unknown scalar product {product!r}")
        gp = self.convert(g, "p").terms
        lifted = False  # not lifted yet; None once g is found not to nest
        pairs = []
        for lam, c in f.terms.items():
            column, kept = self._weighted_column(product, f.basis, lam)
            shared = [(column[nu], d) for nu, d in gp.items() if nu in column]
            if kept is not None and len(shared) > 1:
                if lifted is False:
                    lifted = _lifted(gp)
                inner = _composed(column, kept, gp, lifted)
            else:
                inner = dot(shared)
            pairs.append((c, inner))
        return dot(pairs)

    def gram_schmidt(self, n: int, product: str) -> dict[Partition, SymElement]:
        """Orthogonalize the monomial basis of degree n against `product`.

        Partitions are processed in increasing lexicographic order and each
        output vector is m_lam plus earlier monomials only, so the family
        is unitriangular over m with respect to dominance.  Results are in
        the m basis and cached per (product, degree).
        """
        cache_key = (product, n)
        cached = self._gs_cache.get(cache_key)
        if cached is None:
            cached = self._gs_cache[cache_key] = self._orthogonalized(n, product)
        return {lam: SymElement(self, "m", terms) for lam, terms in cached.items()}

    def _orthogonalized(self, n: int, product: str) -> dict[Partition, dict]:
        """The m-coordinates of the family `gram_schmidt` returns."""
        if product not in self._scalar_products:
            raise BasisError(f"unknown scalar product {product!r}")
        keys = list(reversed(partitions_of(n)))  # lex increasing
        m_to_p = self.conversion_matrix("m", "p", n)

        def pair(u: dict, v: dict) -> Coeff:
            total = ZERO
            for lam, c in u.items():
                d = v.get(lam)
                if d is not None:
                    total = total + c * d * self._diagonal(product, lam)
            return total

        done: list[tuple[dict, dict, Coeff]] = []  # (m-coords, p-coords, norm)
        result: dict[Partition, dict] = {}
        for lam in keys:
            m_coords = {lam: ONE}
            p_coords = dict(m_to_p.column(lam))
            for prev_m, prev_p, prev_norm in done:
                c = pair(p_coords, prev_p) / prev_norm
                if c.is_zero():
                    continue
                for coords, prev in ((m_coords, prev_m), (p_coords, prev_p)):
                    for mu, v in prev.items():
                        coords[mu] = coords.get(mu, ZERO) - c * v
            norm = pair(p_coords, p_coords)
            if norm.is_zero():
                raise ScalarProductError(
                    f"scalar product {product!r} degenerates at degree {n}, "
                    f"partition {lam}"
                )
            done.append((m_coords, p_coords, norm))
            result[lam] = m_coords
        return result

    # -- operators ---------------------------------------------------------

    def apply_operator(self, name: str, el: SymElement) -> SymElement:
        """The linear extension of the operator's action, applied to el.

        The action's image of each partition is cached on this registry,
        keyed by (operator, partition), so the action runs once per
        partition for the life of the registry; actions must therefore be
        pure.  An image that is not an element is never cached, so it
        raises BasisError on every call.
        """
        try:
            op = self._operators[name]
        except KeyError:
            raise BasisError(f"unknown operator {name!r}") from None
        src = self.convert(el, op.basis)
        buckets: dict[str, dict[Partition, Coeff]] = {}
        for lam, c in src.terms.items():
            image = self._operator_images.get((name, lam))
            if image is None:
                image = op.action(lam)
                if not isinstance(image, SymElement):
                    raise BasisError(f"operator {name!r} returned a non-element")
                image = self._operator_images[(name, lam)] = (image.basis, image.terms)
            basis, terms = image
            bucket = buckets.setdefault(basis, {})
            for mu, d in terms.items():
                bucket[mu] = bucket.get(mu, ZERO) + c * d
        pieces = [
            SymElement(self, basis, terms) for basis, terms in buckets.items()
        ]
        if not pieces:
            return self.zero(op.basis)
        total = pieces[0]
        for piece in pieces[1:]:
            total = self.add(total, piece)
        return total

    # -- rendering -----------------------------------------------------

    def render_element(
        self, el: SymElement, qname: str = "q", tname: str = "t"
    ) -> str:
        if not el.terms:
            return "0"
        pieces: list[str] = []
        for lam in el.support():
            c = el.terms[lam]
            base = f"{el.basis}[{','.join(str(p) for p in lam.parts)}]"
            text = c.render(qname, tname)
            negative = text.startswith("-")
            if negative:
                c = -c
                text = c.render(qname, tname)
            if c.is_one():
                body = base
            elif c.is_single_term():
                body = f"{text}*{base}"
            else:
                body = f"({text})*{base}"
            if not pieces:
                pieces.append(("-" if negative else "") + body)
            else:
                pieces.append((" - " if negative else " + ") + body)
        return "".join(pieces)
