"""Independent oracles used by the test suite.

Everything in this file recomputes results through a different code path
than the package: raw word-dict arithmetic for noncommutative expansion
and for evaluation at commutative points, dense Gaussian elimination over
Fraction for span questions, an eager-combination reducer for certificate
entries, the MultiPoly route for printing and building coefficients,
relabelled exponent tuples for conjugating them, a pseudo-remainder
sequence for every univariate GCD, and
sympy for reading relation text, for the reduction chain's substitutions
and for curve invariants.  Tests compare package output against these.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd

import sympy


# ---------------------------------------------------------------------------
# coefficients through MultiPoly numerators and denominators (independent of
# the integer pairs that store a value in at most one name)

def coefficient_str(c) -> str:
    """str(c), rendered from the MultiPolys c.num and c.den."""
    num, den = c.num, c.den
    if den.is_constant():
        return str(num.scaled(Fraction(1) / den.constant_value()))
    ns, ds = str(num), str(den)
    if len(num.terms) > 1 or ns.startswith("-"):
        ns = f"({ns})"
    if len(den.terms) > 1 or "*" in ds or "^" in ds or "/" in ds:
        ds = f"({ds})"
    return f"{ns}/{ds}"


def coefficient_factor(c) -> tuple:
    """parser._coeff_factor(c): the sign of c's leading numerator term and
    the magnitude's printed form, None for 1 and parenthesised when it is a
    sum over a constant denominator."""
    neg = c.num.leading_coeff() < 0
    mag = -c if neg else c
    if mag == 1:
        return neg, None
    s = coefficient_str(mag)
    if mag.den.is_constant() and len(mag.num.terms) > 1:
        s = f"({s})"
    return neg, s


def coefficient_conjugate(c, spec):
    """c with its names relabelled by spec: the exponent of each name in
    every term of c.num and c.den moves to the conjugate name's position.
    A conjugate name outside the space is a KeyError."""
    from ckverify.coeff import Coefficient, MultiPoly
    pos = {n: i for i, n in enumerate(c.names)}
    target = [pos[spec(n)] for n in c.names]

    def relabel(p):
        terms = {}
        for e, v in p.terms.items():
            moved = [0] * len(e)
            for i, k in enumerate(e):
                moved[target[i]] = k
            terms[tuple(moved)] = v
        return MultiPoly(c.names, terms)
    return Coefficient(relabel(c.num), relabel(c.den))


def coefficient_param(names, name):
    """The value of the parameter name, as a quotient of MultiPolys."""
    from ckverify.coeff import Coefficient, MultiPoly
    return Coefficient(MultiPoly.var(names, name), MultiPoly.const(names, 1))


def prs_gcd(a: tuple, b: tuple) -> tuple:
    """The primitive GCD, with a positive leading coefficient, of two
    nonconstant integer polynomials given as coefficient tuples, lowest
    degree first: the primitive pseudo-remainder sequence, taken for every
    divisor, a linear one included."""
    def primitive(p):
        g = gcd(*p)
        return tuple(x // (-g if p[-1] < 0 else g) for x in p)

    a, b = primitive(a), primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        r = list(a)
        while len(r) >= len(b):  # r := lead(b)*r - lead(r)*t^k*b
            top = r.pop()
            r = [b[-1] * x for x in r]
            for j in range(len(b) - 1):
                r[len(r) - len(b) + 1 + j] -= top * b[j]
            while r and not r[-1]:
                r.pop()
        if not r:
            return b
        a, b = b, primitive(r)
    return (1,)


# ---------------------------------------------------------------------------
# word-dict expansion (independent of ncpoly)

def poly_to_dict(p) -> dict:
    """Flatten an NcPoly with rational coefficients into {word: Fraction}."""
    out = {}
    for word, coeff in p.terms.items():
        out[word] = coeff.as_fraction()
    return out


def dict_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for w, c in b.items():
        s = out.get(w, Fraction(0)) + c
        if s:
            out[w] = s
        else:
            out.pop(w, None)
    return out


def dict_scale(a: dict, q: Fraction) -> dict:
    if not q:
        return {}
    return {w: c * q for w, c in a.items()}


def wrap(left: tuple, rel: dict, right: tuple) -> dict:
    return {left + w + right: c for w, c in rel.items()}


def expand_certificate(cert, relations) -> dict:
    """Recompute a certificate's expansion with raw dict arithmetic.

    Only valid when every coefficient in sight is a plain rational, so
    callers should evaluate symbolic reports at a concrete modulus first.
    """
    rel_dicts = [poly_to_dict(r) for r in relations]
    total = {}
    for entry in cert:
        piece = wrap(entry.left, rel_dicts[entry.rel_index], entry.right)
        total = dict_add(total, dict_scale(piece, entry.coeff.as_fraction()))
    return total


def scalar_point_value(poly, point) -> Fraction:
    """Evaluate a rational NcPoly at a commutative point: generator i takes
    the value point[i], so each word becomes the product of its letters."""
    total = Fraction(0)
    for word, coeff in poly_to_dict(poly).items():
        for letter in word:
            coeff *= point[letter]
        total += coeff
    return total


# ---------------------------------------------------------------------------
# dense span membership over Fraction

def gaussian_member(target: dict, spanning: list) -> bool:
    """Decide membership of target in the Fraction-span of the given dicts
    by dense row reduction."""
    words = sorted({w for d in spanning for w in d} | set(target))
    index = {w: i for i, w in enumerate(words)}
    rows = []
    for d in spanning:
        row = [Fraction(0)] * len(words)
        for w, c in d.items():
            row[index[w]] = c
        rows.append(row)
    goal = [Fraction(0)] * len(words)
    for w, c in target.items():
        goal[index[w]] = c
    # forward elimination of goal against the row space
    pivots = {}
    for row in rows:
        r = row[:]
        for col, prow in pivots.items():
            if r[col]:
                f = r[col]
                r = [a - f * b for a, b in zip(r, prow)]
        lead = next((i for i, a in enumerate(r) if a), None)
        if lead is None:
            continue
        inv = r[lead]
        pivots[lead] = [a / inv for a in r]
    g = goal[:]
    for col, prow in pivots.items():
        if g[col]:
            f = g[col]
            g = [a - f * b for a, b in zip(g, prow)]
    return all(a == 0 for a in g)


def graded_member_oracle(target, relations, space_eval=None) -> bool:
    """Independent graded membership check for a homogeneous degree-d target
    against homogeneous relations: spans are L . rel . R over all word pairs
    filling the degree gap, with scalars evaluated to Fraction."""

    def as_dict(p):
        if space_eval:
            p = p.substitute_params(space_eval)
        return poly_to_dict(p)

    t = as_dict(target)
    if not t:
        return True
    degree = len(next(iter(t)))
    ngen = 4
    spanning = []
    for rel in relations:
        d = as_dict(rel)
        if not d:
            continue
        rdeg = len(next(iter(d)))
        gap = degree - rdeg
        if gap < 0:
            continue
        for lsize in range(gap + 1):
            for left in _words(ngen, lsize):
                for right in _words(ngen, gap - lsize):
                    spanning.append(wrap(left, d, right))
    return gaussian_member(t, spanning)


def _words(ngen: int, size: int):
    if size == 0:
        yield ()
        return
    for head in range(ngen):
        for tail in _words(ngen, size - 1):
            yield (head,) + tail


# ---------------------------------------------------------------------------
# certificates by eager combination tracking

def wrapper_order(ngen: int, degrees: list, degree=None, wrapper_len=None):
    """The wrapped rows (left, relation index, right) of a span in insertion
    order: by total wrapper length, then left word, then right word (each
    in lexicographic order of generator indices), then relation index.
    With a degree, the rows whose total degree is that degree; otherwise
    the rows with |left| + |right| <= wrapper_len."""
    top = wrapper_len if degree is None else degree
    rows = []
    for total in range(top + 1):
        indices = [i for i, d in enumerate(degrees)
                   if degree is None or d + total == degree]
        for lsize in range(total + 1):
            for left in _words(ngen, lsize):
                for right in _words(ngen, total - lsize):
                    rows.extend((left, i, right) for i in indices)
    return rows


def _axpy(acc: dict, scale, x: dict):
    """acc += scale * x, dropping zero entries."""
    for key, c in x.items():
        s = acc.get(key, 0) + scale * c
        if s:
            acc[key] = s
        else:
            acc.pop(key, None)


def _deglex(word):
    return (len(word), word)


class EagerSpan:
    """Echelon basis over the wrapped rows in the given order, in which every
    basis row carries its combination (row number -> coefficient) of wrapped
    rows, updated at every elimination step.  relations are word -> scalar
    dicts over one exact field (Fraction or Coefficient)."""

    def __init__(self, relations: list, rows: list):
        self.rows = rows
        self.basis = {}            # pivot -> (monic vec, combination)
        for number, (left, i, right) in enumerate(rows):
            vec, combo = self._reduce(wrap(left, relations[i], right))
            if vec:
                pivot = max(vec, key=_deglex)
                inv = 1 / vec[pivot]
                row_combo = {}
                _axpy(row_combo, -inv, combo)
                row_combo[number] = inv
                self.basis[pivot] = ({w: c * inv for w, c in vec.items()},
                                     row_combo)

    def _reduce(self, vec: dict):
        """(remainder, combo) with remainder = vec - sum of combo[k] * row k."""
        combo = {}
        while True:
            pivots = [w for w in vec if w in self.basis]
            if not pivots:
                return vec, combo
            pivot = max(pivots, key=_deglex)
            c = vec[pivot]
            row_vec, row_combo = self.basis[pivot]
            _axpy(vec, -c, row_vec)
            _axpy(combo, c, row_combo)

    def certificate(self, target: dict):
        """[(left, relation index, right, coeff)] in row order, or None when
        the target is not in the span."""
        rest, combo = self._reduce(dict(target))
        if rest:
            return None
        return [(*self.rows[k], combo[k]) for k in sorted(combo)]


# ---------------------------------------------------------------------------
# relation text through sympy (independent of the parser)

def sympy_relation(text: str, generators, params) -> dict:
    """{word: nonzero coefficient, cancelled} of the relation text, read by
    sympy's parser with noncommutative generators and commutative
    parameters, '^' read as '**' and 'left = right' as left - right.  A word
    is a tuple of generator indices."""
    from sympy.parsing.sympy_parser import parse_expr

    gens = sympy.symbols(generators, commutative=False)
    names = dict(zip(generators, gens))
    names.update(zip(params, sympy.symbols(params)))
    index = {g: i for i, g in enumerate(gens)}

    def letters(f) -> tuple:  # a generator, or a power of a factor
        base, k = f.as_base_exp()
        return (index[base],) * int(k) if base in index else \
            letters(base) * int(k)

    sides = [parse_expr(side.replace("^", "**"), local_dict=names)
             for side in text.split("=")]
    expr = sympy.expand(sides[0] - sides[1] if len(sides) == 2 else sides[0])
    out: dict = {}
    for term in sympy.Add.make_args(expr):
        scalars, factors = term.args_cnc()
        word = sum((letters(f) for f in factors), ())
        out[word] = out.get(word, 0) + sympy.Mul(*scalars)
    out = {w: sympy.cancel(c) for w, c in out.items()}
    return {w: c for w, c in out.items() if c != 0}


def coefficient_matches(c, value, params) -> bool:
    """A package Coefficient equals a cancelled sympy quotient when the
    cross-products of the two agree."""
    syms = sympy.symbols(params)

    def conv(p):
        return sum((sympy.Rational(v.numerator, v.denominator)
                    * sympy.Mul(*(g ** k for g, k in zip(syms, e)))
                    for e, v in p.terms.items()), sympy.Integer(0))
    num, den = sympy.fraction(value)
    return sympy.expand(conv(c.num) * den - num * conv(c.den)) == 0


# ---------------------------------------------------------------------------
# curve invariants through sympy

def legendre_oracle(lam):
    """Discriminant and j of y^2 = x(x-1)(x-lam) derived with sympy:
    disc via resultant, c4 via the standard b-invariant chain.  Accepts a
    sympy expression (symbol or rational); returns (delta, j) with j None
    when delta == 0 identically."""
    x = sympy.Symbol("x")
    f = sympy.expand(x * (x - 1) * (x - lam))
    disc = sympy.cancel(
        -sympy.resultant(f, sympy.diff(f, x), x))
    delta = sympy.cancel(16 * disc)
    a2 = -(1 + lam)
    a4 = lam
    b2 = 4 * a2
    b4 = 2 * a4
    c4 = sympy.expand(b2 ** 2 - 24 * b4)
    if delta == 0:
        return delta, None
    return delta, sympy.cancel(c4 ** 3 / delta)


# ---------------------------------------------------------------------------
# the quadrics-to-Legendre chain by substitution through sympy

def multipoly_sympy(p):
    """A MultiPoly as a sympy expression, each name a sympy symbol."""
    syms = sympy.symbols(p.names) if p.names else ()
    return sum((sympy.Rational(c.numerator, c.denominator)
                * sympy.Mul(*(g ** k for g, k in zip(syms, e)))
                for e, c in p.terms.items()), sympy.Integer(0))


def _substitute_squares(q, table: dict):
    """q, a polynomial in the squares of table's keys, with each square
    replaced by its value in table; a term with an odd exponent is a
    ValueError, since the map is defined on the squares only."""
    out = sympy.Integer(0)
    for exps, c in sympy.Poly(q, *table).terms():
        if any(k % 2 for k in exps):
            raise ValueError(f"{q} is not a polynomial in the squares")
        out += c * sympy.Mul(*(value ** (k // 2)
                               for value, k in zip(table.values(), exps)))
    return sympy.expand(out)


def reduction_chain_oracle(a) -> dict:
    """The polynomials of the reduction chain at the parameter value a (a
    sympy symbol or rational), rebuilt by substitution into each formula
    as written: the eq20 table into the eq19 pair, the eq22
    parametrization into the eq21 pair, x -> x - 1 into the plane cubic
    and z = 1 into the homogeneous normal form.  Every value is expanded,
    in the symbols u, v, w, z; X, Y, Z, T; x, y, z."""
    u, v, w, z = sympy.symbols("u v w z")
    X, Y, Z, T = sympy.symbols("X Y Z T")
    x, y = sympy.symbols("x y")
    eq19 = ((1 - a) * v ** 2 + (1 + a) * w ** 2 + 2 * z ** 2,
            u ** 2 + v ** 2 + w ** 2 + z ** 2)
    half = sympy.Rational(1, 2)
    squares = {u: T ** 2,
               v: half * Y ** 2 - half * Z ** 2 - T ** 2,
               w: X ** 2 + half * Y ** 2 - half * Z ** 2 - T ** 2,
               z: Z ** 2}
    eq21 = (a * X ** 2 + Z ** 2 - T ** 2, X ** 2 + Y ** 2 - T ** 2)
    parametrization = {X: -2 * y, Y: x ** 2 - 1 + a,
                       Z: x ** 2 + 2 * (1 - a) * x + 1 - a,
                       T: x ** 2 + 2 * x + 1 - a}
    cubic = y ** 2 - x * (x + 1) * (x + 1 - a)
    eq23bis = y ** 2 * z - x * (x - z) * (x - a * z)
    return {
        "images": tuple(_substitute_squares(q, squares) for q in eq19),
        "targets": tuple(sympy.expand(r) for r in eq21),
        "pullbacks": tuple(
            sympy.expand(r.subs(parametrization, simultaneous=True))
            for r in eq21),
        "cubic": sympy.expand(cubic),
        "shifted": sympy.expand(cubic.subs(x, x - 1)),
        "eq23bis": sympy.expand(eq23bis),
        "dehomogenized": sympy.expand(eq23bis.subs(z, 1)),
    }
