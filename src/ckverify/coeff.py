"""Exact scalar arithmetic: rational functions over Q in named parameters.

A parameter space is a fixed, ordered tuple of names.  MultiPoly is a sparse
polynomial over such a space with rational coefficients (ints or Fractions);
Coefficient is an element of the field of rational functions over the space,
and the names a value uses decide how it is stored:

* at most one name (every constant, and every value of Q(t), which is where
  each symbolic claim in the modulus lives): numerator and denominator are
  tuples of Python ints in that name, lowest degree first, beside the
  name's index.  The pair is canonical -- coprime, with jointly primitive
  integer content and a positive leading denominator coefficient.
  Arithmetic between two such values in the same name, or with a constant,
  takes only the integer univariate GCDs that can cancel (primitive
  pseudo-remainder sequence, Brown 1971, or a root test when one operand
  is linear) and divides exactly.  A sum a/b + c/d follows Henrici's rule
  (Knuth, TAOCP vol. 2, 4.5.1): its numerator is cancelled against
  g = gcd(b, d) only, so coprime denominators -- one of them constant, say
  -- need no further GCD; a product by a rational constant needs none.
  A product by 1 or -1 and a sum of two integers are canonical as built,
  so they skip the content GCD too.
  `_gcd` keeps its last 1,024 results, since the certificates of one claim
  ask for the same few hundred GCDs again and again.
  Equality is equality of the canonical tuples.  A parameter, the formal
  conjugate of such a value (the same pair at the conjugate name's index)
  and its printed form are also read straight off the pair.
* two or more names: a quotient of two MultiPolys with int coefficients,
  scaled to jointly primitive content and a positive leading denominator
  coefficient.  An operation with such a value, or between values in
  different names, runs on MultiPolys (int ones: `num` and `den` of a
  value in one name have int coefficients too) and stores its result by
  the same rule.  Equality is then decided by cross-multiplication, so no
  canonical form (and no multivariate GCD) is ever required for
  correctness.

Every quotient of MultiPolys is first scaled by `_scale_to_primitive`, the
one function that normalises a value in several names.  `_evaluate` is the
one routine that moves terms into other names: substitution, embedding in a
larger space and the conjugation of a value in several names.

Either way `num` and `den` read as MultiPolys, and the printed form is the
same: integer coefficients, a positive leading denominator coefficient, and
a constant denominator folded into the numerator.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Mapping

Space = tuple  # ordered tuple of parameter/variable names

RATIONALS: Space = ()  # the empty space: plain rational numbers


class PoleError(ZeroDivisionError):
    """A substitution or inversion hit a vanishing denominator."""


def _as_fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise TypeError(f"expected int or Fraction, got {type(v).__name__}")


class MultiPoly:
    """Sparse multivariate polynomial: exponent tuple -> nonzero int or
    Fraction."""

    __slots__ = ("names", "terms")

    def __init__(self, names: Space, terms: dict):
        self.names = names
        self.terms = terms

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(names: Space, value) -> "MultiPoly":
        q = _as_fraction(value)
        if q == 0:
            return MultiPoly(names, {})
        return MultiPoly(names, {(0,) * len(names): q})

    @staticmethod
    def var(names: Space, name: str) -> "MultiPoly":
        if name not in names:
            raise KeyError(f"unknown parameter {name!r} (space has {names})")
        exps = tuple(1 if n == name else 0 for n in names)
        return MultiPoly(names, {exps: Fraction(1)})

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError(f"not a constant polynomial: {self}")
        return next(iter(self.terms.values()))

    def degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def used_names(self) -> set:
        used = set()
        for e in self.terms:
            for n, k in zip(self.names, e):
                if k:
                    used.add(n)
        return used

    # -- ring operations ---------------------------------------------------

    def _check(self, other: "MultiPoly"):
        if self.names != other.names:
            raise ValueError(
                f"parameter space mismatch: {self.names} vs {other.names}")

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, 0) + c
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        return MultiPoly(self.names, terms)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.names, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        terms: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = terms.get(e, 0) + c1 * c2
                if s:
                    terms[e] = s
                else:
                    terms.pop(e, None)
        return MultiPoly(self.names, terms)

    def scaled(self, q) -> "MultiPoly":
        q = _as_fraction(q)
        if q == 0:
            return MultiPoly(self.names, {})
        return MultiPoly(self.names, {e: c * q for e, c in self.terms.items()})

    def __pow__(self, k: int) -> "MultiPoly":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out = MultiPoly.const(self.names, 1)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.names == other.names and self.terms == other.terms

    __hash__ = None

    # -- structural maps ---------------------------------------------------

    def substitute(self, bindings: Mapping[str, "MultiPoly"]) -> "MultiPoly":
        """Simultaneous substitution name -> MultiPoly (same space)."""
        if not bindings:
            return self
        names = self.names
        return _evaluate(self, bindings, lambda c: MultiPoly.const(names, c),
                         lambda n: MultiPoly.var(names, n))

    def extend(self, names: Space) -> "MultiPoly":
        """Embed into a larger space containing every name that occurs."""
        return _evaluate(self, {}, lambda c: MultiPoly.const(names, c),
                         lambda n: MultiPoly.var(names, n))

    # -- ordering and rendering -------------------------------------------

    def sorted_terms(self):
        """Terms ordered degree-descending, then exponent-lex ascending."""
        return sorted(self.terms.items(), key=lambda ec: (-sum(ec[0]), ec[0]))

    def leading_coeff(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        return self.sorted_terms()[0][1]

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            factors = []
            for n, k in zip(self.names, e):
                if k == 0:
                    continue
                factors.append(n if k == 1 else f"{n}^{k}")
            mono = "*".join(factors)
            if not mono:
                body = _frac_str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{_frac_str(abs(c))}*{mono}"
            sign = "-" if c < 0 else "+"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            out += f"{sign}{body}"
        return out

    def __repr__(self) -> str:
        return f"<MultiPoly {self}>"


def _frac_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _scale_to_primitive(num: MultiPoly, den: MultiPoly):
    """num and den without their zero terms, scaled by a common rational to
    int coefficients that are jointly primitive, with the denominator's
    leading coefficient positive."""
    scale = lcm(*(c.denominator for p in (num, den) for c in p.terms.values()))
    num, den = (MultiPoly(p.names, {e: c.numerator * (scale // c.denominator)
                                    for e, c in p.terms.items() if c})
                for p in (num, den))
    g = gcd(*num.terms.values(), *den.terms.values())
    if den.leading_coeff() < 0:
        g = -g
    if g != 1:
        num, den = (MultiPoly(p.names, {e: c // g for e, c in p.terms.items()})
                    for p in (num, den))
    return num, den


# ---------------------------------------------------------------------------
# integer univariate polynomials: tuples of ints, lowest degree first, with
# no trailing zeros; () is the zero polynomial

_ONE = (1,)
_ZERO = ((), _ONE)  # the canonical pair of the zero function


def _ipoly_lin(x: int, a: tuple, y: int, b: tuple) -> tuple:
    """x*a + y*b for integers x and y."""
    if len(a) < len(b):
        x, a, y, b = y, b, x, a
    out = list(a) if x == 1 else [x * v for v in a]
    for i, v in enumerate(b):
        out[i] += y * v
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _ipoly_neg(a: tuple) -> tuple:
    """-a."""
    return tuple([-x for x in a])


def _ipoly_mul(a: tuple, b: tuple) -> tuple:
    """Product of two nonzero polynomials; its leading coefficient is the
    product of theirs, so it has no trailing zeros."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return tuple(out)


def _primitive(a: tuple) -> tuple:
    """a divided by its content, with a positive leading coefficient."""
    g = gcd(*a)
    if a[-1] < 0:
        g = -g
    return a if g == 1 else tuple([x // g for x in a])


def _prem(a: tuple, b: tuple) -> tuple:
    """A remainder of a by b (len(a) >= len(b) >= 2) up to a nonzero integer
    factor: each step replaces a by lead(b)*a - c*x^i*b, which kills a's
    leading term without leaving the integers."""
    a = list(a)
    lb, db = b[-1], len(b) - 1
    for top in range(len(a) - 1, db - 1, -1):
        c = a.pop()
        if c:
            a = [lb * x for x in a]
            for j in range(db):
                a[top - db + j] -= c * b[j]
    while a and not a[-1]:
        a.pop()
    return tuple(a)


# bounded, so that a long run's memory stays flat
@lru_cache(maxsize=1024)
def _gcd(a: tuple, b: tuple) -> tuple:
    """Primitive GCD with positive leading coefficient of two nonconstant
    integer polynomials.  A linear operand q*t - p divides the other, a,
    exactly when p/q is a root of a, which the integer Horner value
    q^n * a(p/q) decides; otherwise the primitive pseudo-remainder sequence
    finds it."""
    a, b = _primitive(a), _primitive(b)
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 2:
        p, q = -b[0], b[1]
        v, qk = a[-1], 1
        for x in reversed(a[:-1]):
            qk *= q
            v = v * p + x * qk
        return _ONE if v else b
    while len(b) > 1:
        r = _prem(a, b)
        if not r:
            return b
        a, b = b, _primitive(r)
    return _ONE


def _exquo(a: tuple, b: tuple) -> tuple:
    """a / b for a primitive b that divides a over Q; by Gauss's lemma the
    quotient has integer coefficients, so every division here is exact."""
    a = list(a)
    lb, db = b[-1], len(b) - 1
    q = [0] * (len(a) - db)
    for i in range(len(q) - 1, -1, -1):
        c = a[i + db] // lb
        q[i] = c
        if c:
            for j in range(db + 1):
                a[i + j] -= c * b[j]
    return tuple(q)


def _strip_content(n: tuple, d: tuple):
    """(n, d) over their joint content, signed so that d leads positively."""
    g = gcd(*n, *d)
    if d[-1] < 0:
        g = -g
    if g == 1:
        return n, d
    return tuple([x // g for x in n]), tuple([x // g for x in d])


def _cancel(n: tuple, d: tuple):
    """n/d with their GCD divided out, before the content is stripped."""
    if len(n) > 1 and len(d) > 1:
        g = _gcd(n, d)
        if len(g) > 1:
            return _exquo(n, g), _exquo(d, g)
    return n, d


def _canon(n: tuple, d: tuple):
    """The canonical pair of n/d, for integer polynomials with d nonzero."""
    if not n:
        return _ZERO
    return _strip_content(*_cancel(n, d))


def _dense(p: MultiPoly) -> tuple:
    """The int coefficients of p, in which at most one name occurs, lowest
    degree first.  The degree of a term is the sum of its exponents, since
    only one of them can be nonzero."""
    coeffs = [0] * (p.degree() + 1 if p.terms else 0)
    for e, c in p.terms.items():
        coeffs[sum(e)] = c
    return tuple(coeffs)


def _nonzero(coeffs: tuple) -> int:
    return len(coeffs) - coeffs.count(0)


def _ipoly_str(coeffs: tuple, name: str, den: int = 1) -> str:
    """str() of the MultiPoly sum of coeffs[k]/den * name^k, for den > 0."""
    out = ""
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if not c:
            continue
        g = gcd(c, den)
        p, q = abs(c) // g, den // g
        mag = str(p) if q == 1 else f"{p}/{q}"
        mono = "" if k == 0 else name if k == 1 else f"{name}^{k}"
        if not mono:
            body = mag
        elif p == q == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        out += ("-" if c < 0 else "+" if out else "") + body
    return out or "0"


def _poly_of(coeffs: tuple, names: Space, idx: int) -> MultiPoly:
    """The MultiPoly sum of coeffs[k] * names[idx]^k, with int coefficients."""
    return MultiPoly(names, {
        tuple(k if i == idx else 0 for i in range(len(names))): c
        for k, c in enumerate(coeffs) if c})


# ---------------------------------------------------------------------------
# the field

def _qt(names: Space, pair, idx: int = 0) -> "Coefficient":
    """A Coefficient from a canonical pair of integer tuples in names[idx]."""
    c = object.__new__(Coefficient)
    c.names = names
    c._num, c._den = pair
    c._idx = idx
    return c


def _pair_sum(x: "Coefficient", y: "Coefficient", sign: int):
    """The canonical pair of x + sign*y for two nonzero integer pairs."""
    a, b, c, d = x._num, x._den, y._num, y._den
    if b == d:  # one denominator: no products
        return _canon(_ipoly_lin(1, a, sign, c), b)
    # Henrici's rule: with g = gcd(b, d), b = g*b1 and d = g*d1, the sum is
    # (a*d1 + sign*c*b1) / (b1*d1*g), and its numerator is coprime to b1*d1,
    # so only g can cancel.  Canonical pairs with b != d are never each
    # other's negatives, so the numerator is nonzero.
    if len(b) == len(d) == 1:
        return _strip_content(_ipoly_lin(d[0], a, sign * b[0], c),
                              (b[0] * d[0],))
    g = _ONE if len(b) == 1 or len(d) == 1 else _gcd(b, d)
    if len(g) == 1:
        return _strip_content(
            _ipoly_lin(1, _ipoly_mul(a, d), sign, _ipoly_mul(c, b)),
            _ipoly_mul(b, d))
    b, d = _exquo(b, g), _exquo(d, g)  # b1 and d1
    n, g = _cancel(_ipoly_lin(1, _ipoly_mul(a, d), sign, _ipoly_mul(c, b)), g)
    return _strip_content(n, _ipoly_mul(_ipoly_mul(b, d), g))


def _shared(x: "Coefficient", y: "Coefficient"):
    """The index of the one name that x and y use between them, when both
    are integer pairs; None when either is a MultiPoly quotient or they use
    two different names."""
    i, j = x._idx, y._idx
    if i is None or j is None:
        return None
    if i == j or y.is_rational():
        return i
    return j if x.is_rational() else None


class Coefficient:
    """Element of the field of rational functions over a parameter space.

    When at most one name occurs in the value, _num and _den hold its
    canonical integer tuples and _idx that name's index (a constant may
    carry any index); otherwise they hold MultiPolys and _idx is None.
    """

    __slots__ = ("names", "_num", "_den", "_idx")

    def __init__(self, num: MultiPoly, den: MultiPoly):
        num._check(den)
        self.names = num.names
        num, den = _scale_to_primitive(num, den)
        if den.is_zero():
            raise PoleError("zero denominator in Coefficient")
        used = (num.used_names() | den.used_names()) if num.terms else set()
        if len(used) > 1:
            self._num, self._den = num, den
            self._idx = None
        else:
            self._num, self._den = _canon(_dense(num), _dense(den))
            self._idx = num.names.index(used.pop()) if used else 0

    @property
    def num(self) -> MultiPoly:
        if self._idx is None:
            return self._num
        return _poly_of(self._num, self.names, self._idx)

    @property
    def den(self) -> MultiPoly:
        if self._idx is None:
            return self._den
        return _poly_of(self._den, self.names, self._idx)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(names: Space, value) -> "Coefficient":
        """The int or Fraction value as a constant over names; a Coefficient
        is returned unchanged, whatever its space."""
        if type(value) is int:
            return _qt(names, ((value,), _ONE) if value else _ZERO)
        if isinstance(value, Coefficient):
            return value
        q = _as_fraction(value)
        return _qt(names, ((q.numerator,), (q.denominator,)) if q else _ZERO)

    @staticmethod
    def param(names: Space, name: str) -> "Coefficient":
        if name not in names:
            raise KeyError(f"unknown parameter {name!r} (space has {names})")
        return _qt(names, ((0, 1), _ONE), names.index(name))

    def _coerce(self, other) -> "Coefficient":
        if isinstance(other, Coefficient):
            if other.names != self.names:
                raise ValueError(f"parameter space mismatch: {self.names} "
                                 f"vs {other.names}")
            return other
        if isinstance(other, (int, Fraction)):
            return Coefficient.const(self.names, other)
        return NotImplemented

    # -- field operations --------------------------------------------------

    def _sum(self, other, sign: int):
        """self + sign*other, for sign 1 or -1."""
        if type(other) is not Coefficient or other.names is not self.names:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        idx = _shared(self, other)
        if idx is None:
            a, b, c, d = self.num, self.den, other.num, other.den
            n, m = a * d, c * b
            return Coefficient(n + m if sign > 0 else n - m, b * d)
        a, c = self._num, other._num
        if not c:
            return self
        if not a:
            return other if sign > 0 else -other
        if len(a) == len(c) == 1 and self._den == _ONE == other._den:
            s = a[0] + c[0] if sign > 0 else a[0] - c[0]  # two integers
            return _qt(self.names, ((s,), _ONE) if s else _ZERO, idx)
        return _qt(self.names, _pair_sum(self, other, sign), idx)

    def __add__(self, other):
        return self._sum(other, 1)

    __radd__ = __add__

    def __neg__(self):
        if self._idx is None:
            return Coefficient(-self._num, self._den)
        return _qt(self.names, (_ipoly_neg(self._num), self._den), self._idx)

    def __sub__(self, other):
        return self._sum(other, -1)

    def __rsub__(self, other):
        if type(other) is int and not other:
            return -self
        return (-self) + other

    def __mul__(self, other):
        if type(other) is not Coefficient or other.names is not self.names:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        idx = _shared(self, other)
        if idx is None:
            return Coefficient(self.num * other.num, self.den * other.den)
        a, b, c, d = self._num, self._den, other._num, other._den
        if not a or not c:
            return _qt(self.names, _ZERO)
        if len(a) == len(b) == 1:  # a rational constant goes to c/d
            a, b, c, d = c, d, a, b
        if len(c) == len(d) == 1:  # scaling a coprime pair keeps it coprime
            c, d = c[0], d[0]
            if d == 1 and (c == 1 or c == -1):  # already canonical
                return _qt(self.names, (a if c == 1 else _ipoly_neg(a), b),
                           idx)
            return _qt(self.names, _strip_content(
                tuple([c * v for v in a]), tuple([d * v for v in b])), idx)
        # a/b and c/d are in lowest terms, so a*c/(b*d) is in lowest terms
        # once the cross factors gcd(a, d) and gcd(c, b) are divided out
        a, d = _cancel(a, d)
        c, b = _cancel(c, b)
        return _qt(self.names,
                   _strip_content(_ipoly_mul(a, c), _ipoly_mul(b, d)), idx)

    __rmul__ = __mul__

    def inv(self) -> "Coefficient":
        if self.is_zero():
            raise PoleError("inverse of the zero coefficient")
        if self._idx is None:
            return Coefficient(self._den, self._num)
        return _qt(self.names, _strip_content(self._den, self._num),
                   self._idx)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        return self.inv() * other

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        # zero is the pair ((), (1,)); a MultiPoly quotient uses two names
        return self._num == ()

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if _shared(self, other) is not None:
            return self._num == other._num and self._den == other._den
        # cross-multiplication: a/b = c/d  iff  a*d - c*b = 0
        return (self.num * other.den - other.num * self.den).is_zero()

    __hash__ = None

    def is_rational(self) -> bool:
        return (self._idx is not None and len(self._num) < 2
                and len(self._den) == 1)

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"not a rational constant: {self}")
        return Fraction(self._num[0] if self._num else 0, self._den[0])

    # -- structural maps ---------------------------------------------------

    def substitute(self, bindings: Mapping[str, "Coefficient"]) -> "Coefficient":
        """Simultaneous substitution; raises PoleError if the denominator
        vanishes under the binding."""
        names = self.names

        def evaluate(p: MultiPoly) -> "Coefficient":
            return _evaluate(p, bindings, lambda c: Coefficient.const(names, c),
                             lambda n: Coefficient.param(names, n))

        num, den = evaluate(self.num), evaluate(self.den)
        if den.is_zero():
            raise PoleError("denominator vanishes under substitution")
        return num / den

    def conjugate(self, spec: "ConjugationSpec") -> "Coefficient":
        """The value with its names relabelled by spec.  A constant is
        fixed; a value in one name keeps its pair and moves to the
        conjugate name, which must be in the space."""
        if self._idx is None:
            return self.substitute({n: Coefficient.param(self.names, spec(n))
                                    for n in self.names})
        if self.is_rational():
            return self
        name = self.names[self._idx]
        target = spec(name)
        if target == name:
            return self
        if target not in self.names:
            raise KeyError(f"unknown parameter {target!r}")
        return _qt(self.names, (self._num, self._den),
                   self.names.index(target))

    def extend(self, names: Space) -> "Coefficient":
        return Coefficient(self.num.extend(names), self.den.extend(names))

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        if self._idx is not None and not self.is_rational():
            name = self.names[self._idx]
            num, den = self._num, self._den
            if len(den) == 1:
                return _ipoly_str(num, name, den[0])
            ns, ds = _ipoly_str(num, name), _ipoly_str(den, name)
            nterms, dterms = _nonzero(num), _nonzero(den)
        else:
            num, den = self.num, self.den
            if den.is_constant():
                return str(num.scaled(Fraction(1) / den.constant_value()))
            ns, ds = str(num), str(den)
            nterms, dterms = len(num.terms), len(den.terms)
        if nterms > 1 or ns.startswith("-"):
            ns = f"({ns})"
        if dterms > 1 or "*" in ds or "^" in ds or "/" in ds:
            ds = f"({ds})"
        return f"{ns}/{ds}"

    def sign_split(self):
        """(negative?, printed magnitude or None) for a printed term: the
        sign is the leading numerator coefficient's, None stands for a
        magnitude of 1, and a sum over a constant denominator is
        parenthesised."""
        if self._idx is None:
            neg = self._num.leading_coeff() < 0
        else:
            neg = bool(self._num) and self._num[-1] < 0
        mag = -self if neg else self
        # the value 1 in either storage (an uncancelled quotient in two
        # names, such as a*b/(a*b), can be 1 too)
        if mag._num == mag._den:
            return neg, None
        if mag._idx is None:
            paren = mag._den.is_constant() and len(mag._num.terms) > 1
        else:
            paren = len(mag._den) == 1 and _nonzero(mag._num) > 1
        s = str(mag)
        return neg, f"({s})" if paren else s

    def __repr__(self) -> str:
        return f"<Coefficient {self}>"


def _evaluate(p: MultiPoly, bindings: Mapping, const, var):
    """Sum over p's terms of c * the product of base^k, where base is the
    name's binding or, for an unbound name, var(name); const(c) lifts a
    coefficient into the ring of the bindings."""
    out = const(0)
    for e, c in p.terms.items():
        term = const(c)
        for n, k in zip(p.names, e):
            if not k:
                continue
            base = bindings.get(n)
            if base is None:
                base = var(n)
            for _ in range(k):
                term = term * base
        out = out + term
    return out


class ConjugationSpec:
    """Self-inverse permutation of parameter names (formal conjugation).

    Parameters absent from the mapping are fixed; rational constants are
    always fixed.
    """

    __slots__ = ("mapping",)

    def __init__(self, mapping: Mapping[str, str] = ()):
        m = dict(mapping) if mapping else {}
        for k, v in m.items():
            if m.get(v, v) != k:
                raise ValueError(
                    f"conjugation is not self-inverse at {k!r} -> {v!r}")
        self.mapping = m

    def __call__(self, name: str) -> str:
        return self.mapping.get(name, name)

    def __eq__(self, other):
        if not isinstance(other, ConjugationSpec):
            return NotImplemented
        return self.mapping == other.mapping

    __hash__ = None

    def __repr__(self):
        if not self.mapping:
            return "<ConjugationSpec identity>"
        pairs = sorted((k, v) for k, v in self.mapping.items() if k <= v)
        return f"<ConjugationSpec {pairs}>"

