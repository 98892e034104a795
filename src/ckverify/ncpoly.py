"""Noncommutative polynomials over a fixed generator alphabet.

Words are tuples of generator indices; the empty tuple is the unit monomial.
Word order is deglex: length first, then lexicographic with lower-indexed
generators smaller.  NcPoly is a sparse map word -> Coefficient.  The
*-involution reverses words, permutes generators by a self-inverse map and
conjugates coefficients, which makes it an anti-automorphism of order two.
Ring operations take NcPoly operands only; `scale` multiplies by a scalar.
print_expr (NcPoly's str) is the rendering that parser reads back.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from .coeff import Coefficient, ConjugationSpec, Space

Word = tuple  # tuple of generator indices

EMPTY_WORD: Word = ()


def word_key(w: Word):
    """Sort key realizing the deglex order."""
    return (len(w), w)


class NcPoly:
    """Sparse noncommutative polynomial over a Coefficient field."""

    __slots__ = ("alphabet", "space", "terms")

    def __init__(self, alphabet: Sequence[str], space: Space, terms: dict):
        self.alphabet = tuple(alphabet)
        self.space = space
        self.terms = terms

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(alphabet, space: Space) -> "NcPoly":
        return NcPoly(alphabet, space, {})

    @staticmethod
    def one(alphabet, space: Space) -> "NcPoly":
        return NcPoly.scalar(alphabet, space, 1)

    @staticmethod
    def scalar(alphabet, space: Space, value) -> "NcPoly":
        c = Coefficient.const(space, value)
        if c.is_zero():
            return NcPoly.zero(alphabet, space)
        return NcPoly(alphabet, space, {EMPTY_WORD: c})

    @staticmethod
    def generator(alphabet, space: Space, index: int) -> "NcPoly":
        if not 0 <= index < len(alphabet):
            raise IndexError(f"generator index {index} out of range")
        return NcPoly(alphabet, space, {(index,): Coefficient.const(space, 1)})

    @staticmethod
    def monomial(alphabet, space: Space, word: Word, coeff=1) -> "NcPoly":
        c = Coefficient.const(space, coeff)
        if c.is_zero():
            return NcPoly.zero(alphabet, space)
        return NcPoly(alphabet, space, {tuple(word): c})

    # -- bookkeeping -------------------------------------------------------

    def _check(self, other: "NcPoly"):
        if self.alphabet != other.alphabet:
            raise ValueError(
                f"alphabet mismatch: {self.alphabet} vs {other.alphabet}")
        if self.space != other.space:
            raise ValueError(
                f"parameter space mismatch: {self.space} vs {other.space}")

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, NcPoly):
            return NotImplemented
        self._check(other)
        return NcPoly(self.alphabet, self.space,
                      _add_terms(self.terms, other.terms))

    def __sub__(self, other):
        if not isinstance(other, NcPoly):
            return NotImplemented
        self._check(other)
        return NcPoly(self.alphabet, self.space,
                      _add_terms(self.terms, other.terms, True))

    def __mul__(self, other):
        if not isinstance(other, NcPoly):
            return NotImplemented
        self._check(other)
        return NcPoly(self.alphabet, self.space,
                      _mul_terms(self.terms, other.terms))

    def scale(self, value) -> "NcPoly":
        c = Coefficient.const(self.space, value)
        if c.is_zero():
            return NcPoly.zero(self.alphabet, self.space)
        return NcPoly(self.alphabet, self.space,
                      {w: cc * c for w, cc in self.terms.items()})

    # -- predicates and structure -----------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Coefficient)):
            other = NcPoly.scalar(self.alphabet, self.space, other)
        if not isinstance(other, NcPoly):
            return NotImplemented
        return (self - other).is_zero()

    __hash__ = None

    def degree(self) -> int:
        """Maximum word length among stored terms (0 for the zero poly)."""
        if not self.terms:
            return 0
        return max(len(w) for w in self.terms)

    def homogeneous_component(self, d: int) -> "NcPoly":
        if d < 0:
            raise ValueError("degree must be nonnegative")
        return NcPoly(self.alphabet, self.space,
                      {w: c for w, c in self.terms.items() if len(w) == d})

    def is_homogeneous(self) -> bool:
        degrees = {len(w) for w in self.terms}
        return len(degrees) <= 1

    def sorted_terms(self):
        """Terms ordered degree-descending, then word-lex ascending."""
        return sorted(self.terms.items(), key=lambda wc: (-len(wc[0]), wc[0]))

    def support(self):
        return set(self.terms)

    # -- substitution ------------------------------------------------------

    def substitute_params(self, bindings: Mapping[str, Coefficient]) -> "NcPoly":
        terms = {}
        for w, c in self.terms.items():
            nc = c.substitute(bindings)
            if not nc.is_zero():
                terms[w] = nc
        return NcPoly(self.alphabet, self.space, terms)

    def substitute_words(self, table: Mapping[Word, "NcPoly"]) -> "NcPoly":
        """Replace whole term words according to `table`.

        Only exact term-level replacement: a word appearing as a factor of a
        longer stored word is an error, since the replacement would not be
        well defined term-by-term.
        """
        for w in self.terms:
            for pat in table:
                if pat and pat != w and _contains(w, pat):
                    raise ValueError(
                        f"word {pat} occurs inside longer term {w}")
        out = NcPoly.zero(self.alphabet, self.space)
        for w, c in self.terms.items():
            if w in table:
                out = out + table[w].scale(c)
            else:
                out = out + NcPoly.monomial(self.alphabet, self.space, w, c)
        return out

    # -- involution --------------------------------------------------------

    def involute(self, spec: "InvolutionSpec") -> "NcPoly":
        # reversing a word and permuting its letters is one-to-one on words,
        # so no two terms land on the same word
        perm, conj = spec.perm, spec.conj
        return NcPoly(self.alphabet, self.space,
                      {tuple(perm[i] for i in reversed(w)): c.conjugate(conj)
                       for w, c in self.terms.items()})

    # -- rendering ---------------------------------------------------------

    def word_str(self, w: Word) -> str:
        if not w:
            return "1"
        return "*".join(self.alphabet[i] for i in w)

    def __str__(self) -> str:
        return print_expr(self)

    def __repr__(self) -> str:
        return f"<NcPoly {self}>"


def print_expr(p: NcPoly) -> str:
    """Deterministic rendering: degree-descending, then word-lex ascending."""
    if p.is_zero():
        return "0"
    parts = []
    for w, c in p.sorted_terms():
        neg, mag = c.sign_split()
        word = p.word_str(w)
        if not w:
            body = mag if mag is not None else "1"
        elif mag is None:
            body = word
        else:
            body = f"{mag}*{word}"
        parts.append((neg, body))
    neg, body = parts[0]
    out = ("-" if neg else "") + body
    for neg, body in parts[1:]:
        out += (" - " if neg else " + ") + body
    return out


# term dicts (word -> nonzero Coefficient), shared with the parser

def _add_terms(p: dict, q: dict, subtract: bool = False) -> dict:
    """p + q, or p - q."""
    terms = dict(p)
    for w, c in q.items():
        if w in terms:
            s = terms[w] - c if subtract else terms[w] + c
            if s:
                terms[w] = s
            else:
                del terms[w]
        else:
            terms[w] = -c if subtract else c
    return terms


def _mul_terms(p: dict, q: dict, one: Coefficient = None) -> dict:
    """p*q; a coefficient that is the object one is not multiplied."""
    terms: dict = {}
    for w1, c1 in p.items():
        for w2, c2 in q.items():
            w = w1 + w2
            c = c2 if c1 is one else c1 if c2 is one else c1 * c2
            if w in terms:
                s = terms[w] + c
                if s:
                    terms[w] = s
                else:
                    del terms[w]
            else:
                terms[w] = c
    return terms


def _contains(w: Word, pat: Word) -> bool:
    if len(pat) > len(w):
        return False
    return any(w[i:i + len(pat)] == pat for i in range(len(w) - len(pat) + 1))


class InvolutionSpec:
    """Generator permutation (self-inverse) plus scalar conjugation."""

    __slots__ = ("perm", "conj")

    def __init__(self, perm: Sequence[int], conj: ConjugationSpec = None):
        perm = tuple(perm)
        n = len(perm)
        if sorted(perm) != list(range(n)):
            raise ValueError(f"not a permutation: {perm}")
        for i, j in enumerate(perm):
            if perm[j] != i:
                raise ValueError(f"permutation is not self-inverse: {perm}")
        self.perm = perm
        self.conj = conj if conj is not None else ConjugationSpec()

    def __eq__(self, other):
        if not isinstance(other, InvolutionSpec):
            return NotImplemented
        return self.perm == other.perm and self.conj == other.conj

    __hash__ = None

    def __repr__(self):
        return f"<InvolutionSpec perm={self.perm}>"


# the involution used throughout: x1 <-> x2, x3 <-> x4
def adjoint_involution(conj: ConjugationSpec = None) -> InvolutionSpec:
    return InvolutionSpec((1, 0, 3, 2), conj)
