"""Independent oracles used by the test suite.

Everything in this file recomputes results through a different code path
than the package: raw word-dict arithmetic for noncommutative expansion
and for evaluation at commutative points, dense Gaussian elimination over
Fraction for span questions, an eager-combination reducer for certificate
entries, and sympy for curve invariants.  Tests compare package output
against these.
"""
from __future__ import annotations

from fractions import Fraction

import sympy


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
