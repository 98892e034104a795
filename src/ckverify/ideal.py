"""Two-sided ideal membership with certificates.

The engine reduces targets against the linear span of wrapped relations
l * g * r.  Two regimes:

* graded: relations homogeneous, target homogeneous of degree d; the span of
  wrappers with |l| + len(g-degree) + |r| = d is the complete degree-d slice
  of the ideal, so non-membership is definitive.
* bounded: arbitrary relations, wrappers with |l| + |r| <= wrapper_len; a
  failed search proves nothing, so the verdict is INCONCLUSIVE, never
  NON_MEMBER.

A span (a degree slice or a bounded span) whose estimate passes
MAX_SPAN_ROWS rows is refused with ValueError before any row is built.

A call reads its alphabet and parameter space off its first relation, and
takes the graded regime exactly when every relation and every target is
homogeneous, unless it asks for the bounded search (bounded_membership).
Targets against an empty relation list are refused with ValueError("empty
relation list"), and so is a target or relation over another alphabet or
parameter space than the first relation.

Every MEMBER verdict carries a certificate (left word, relation index,
right word, coefficient) which is re-expanded and compared against the
target before it is returned.  Reduction is sparse row echelon over the
exact scalar field.  Over a named space each reduction sorts the vec's
basis words once and pops its pivots from them (`_Span._reduce`), and an
entry is stored in the cheapest exact type that holds it (`coeff.lowered`:
an int, else a Fraction, and a Coefficient only when its value carries a
name), so the many entries that are constants, mostly +-1, never go
through Coefficient arithmetic; over Q every entry is a Fraction
(`_FractionSpan` says why).  Certificates lift every coefficient back to a
Coefficient.  Rows are kept monic and inserted smallest-wrapper-first,
which makes certificates deterministic.  Rows are fed until every target
is settled, so a member costs only the rows up to its last pivot.
Reductions record their steps (pivot, multiplier), expanded into a
combination of wrapped rows only for a target reduced to zero; basis rows
are independent, so it is unique.  The combination and the re-expansion
collect the terms of each row weight and of each word first and add them
once (`coeff.scalar_sum`).

A span over a named space, a bounded span or a degree slice, runs a point
pass first; `_point_certificates` alone decides that, and spans over Q
keep the exact loop alone (`_FractionSpan` says why).  The rows are
reduced modulo the prime 2^30 - 35 at a fixed point (`_PointSpan`, with a
pivot loop of its own that keeps only the pivots), where every residue is
one CPython digit, and each target settled there names the rows it rests
on, none if it vanishes there.  Only those rows are reduced over the
exact field: 80 of the 561 rows that symbolic theorem1 builds at the
point, 99 of corollary1's 717, 14 of lemma1's 24.  Rows independent at
the point are independent over Q(names), so each of them is a basis row
of the full exact span too, and a target's combination of basis rows is
unique: the certificates are those of the full exact span, whatever the
point.  A target whose support rows do not reduce it to zero takes the
full exact span, and so does a target that the pass leaves open while
some row reduced to zero at the point.  Otherwise the exact span has the
point's rank, and an open target is open over Q(names) too: INCONCLUSIVE
in a bounded span, and NON_MEMBER in a degree slice, the complete slice
of the ideal, so lemma1's unstable images are decided without an exact
row.  The pass keys words by int codes ordered as deglex (`_PointSpan`),
so a wrapped row is integer arithmetic and its pivot candidates sort as
plain ints.  Every span is built from its relations alone.
"""
from __future__ import annotations

from bisect import insort
from fractions import Fraction
from heapq import heappop, heappush
from itertools import chain, product
from typing import NamedTuple, Optional, Sequence

from .coeff import Coefficient, Space, lowered, scalar_sum
from .ncpoly import NcPoly, InvolutionSpec, Word, word_key

MEMBER = "MEMBER"
NON_MEMBER = "NON_MEMBER"
INCONCLUSIVE = "INCONCLUSIVE"

STABLE = "STABLE"
UNSTABLE = "UNSTABLE"

EQUIVALENT = "EQUIVALENT"
NOT_EQUIVALENT = "NOT_EQUIVALENT"

# A bounded span or a degree slice is refused before it is built when its
# row estimate passes this budget; on 7 relations over 4 generators it
# admits wrapper lengths up to 5.
MAX_SPAN_ROWS = 100_000

# The point pass of a span over a named space, bounded or graded, works
# modulo 2^30 - 35, the largest prime below 2^30, so that every residue is
# one 30-bit CPython digit and each reduction divides by a one-digit int,
# at the point where name k takes POINT_ROOT^(k+1).  The root is the
# golden-ratio constant of multiplicative hashing, so that no polynomial
# with small coefficients in the names is likely to vanish there; where
# one does, its targets take the exact loop.  The point only decides how
# fast a verdict is found, never what it is: a graded target left open
# there at full point rank is NON_MEMBER over Q(names) too
# (`_point_certificates`).
POINT_PRIME = 2 ** 30 - 35
POINT_ROOT = 0x9E3779B97F4A7C15 % POINT_PRIME


class Presentation:
    """A generator alphabet with relations (each meaning '= 0') and an
    involution."""

    __slots__ = ("alphabet", "space", "relations", "involution")

    def __init__(self, alphabet, space: Space, relations: Sequence[NcPoly],
                 involution: InvolutionSpec):
        self.alphabet = tuple(alphabet)
        self.space = space
        self.relations = list(relations)
        self.involution = involution
        if len(involution.perm) != len(self.alphabet):
            raise ValueError("involution permutation size != alphabet size")
        for i, rel in enumerate(self.relations):
            if rel.is_zero():
                raise ValueError(f"relation {i} is identically zero")
            if rel.alphabet != self.alphabet or rel.space != space:
                raise ValueError(f"relation {i} built over a different context")

    def with_relations(self, extra: Sequence[NcPoly]) -> "Presentation":
        return Presentation(self.alphabet, self.space,
                            self.relations + list(extra), self.involution)

    def __repr__(self):
        return (f"<Presentation {len(self.relations)} relations over "
                f"{'*'.join(self.alphabet)}>")


class CertEntry(NamedTuple):
    left: Word
    rel_index: int
    right: Word
    coeff: Coefficient


class MembershipCertificate:
    """target = sum of coeff * (left * relation * right)."""

    __slots__ = ("entries",)

    def __init__(self, entries: Sequence[CertEntry]):
        self.entries = list(entries)

    def verify(self, target: NcPoly, relations: Sequence[NcPoly]) -> bool:
        return not _residual(self.entries, [r.terms for r in relations],
                             target.terms)

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __repr__(self):
        return f"<MembershipCertificate {len(self.entries)} entries>"


class MembershipVerdict(NamedTuple):
    kind: str  # MEMBER | NON_MEMBER | INCONCLUSIVE
    certificate: Optional[MembershipCertificate] = None
    bound: Optional[int] = None

    def __repr__(self):
        extra = f" bound={self.bound}" if self.bound is not None else ""
        return f"<{self.kind}{extra}>"


# ---------------------------------------------------------------------------
# span engine

class _Span:
    """Echelon basis of wrapped-relation rows, fed one at a time until every
    target is settled.  Each basis row keeps the elimination steps that
    produced it; the combination of wrapped rows behind a target is expanded
    from those steps only when the target reduces to zero.

    Over a parameter space every entry, multiplier, inverse and weight is
    kept `lowered`: a rational constant is an int, else a Fraction, so the
    many entries that are +-1 make int arithmetic, and only a value that
    carries a name is a Coefficient.  A basis row leaves out its pivot
    entry 1.  Over Q, `_FractionSpan` keeps Fraction rows with their pivot
    entries.  `_span_over` picks the class.  A span reads its space off
    its first relation.  One over a named space is fed only the support
    rows that its point pass, a `_PointSpan` of residues, found; the rows
    and certificates are those of the full span (`_point_certificates`)."""

    def __init__(self, relations: Sequence[NcPoly]):
        self.space = relations[0].space
        self.tags: list = []       # (left, rel_index, right) in insertion order
        # pivot word -> (monic vec, tag, inverse of the pivot, steps); a
        # row's tag is also its creation index, since rows enter in tag order
        self.basis: dict = {}
        self._vec_cache = [self._to_vec(r) for r in relations]

    @staticmethod
    def _to_vec(p: NcPoly) -> dict:
        return {w: lowered(c) for w, c in p.terms.items()}

    def _reduce(self, vec: dict) -> list:
        """Reduce vec in place against the basis and return the steps
        (pivot, multiplier): vec loses the sum of multiplier * row(pivot).
        Its basis words are sorted once; each step pops the largest, skips
        one that an earlier step cancelled and inserts each basis word it
        newly brings in, so the pivots are those of a max at every step."""
        basis = self.basis
        todo = sorted(filter(basis.__contains__, vec), key=word_key)
        steps = []
        while todo:
            piv = todo.pop()
            c = vec.pop(piv, None)
            if c is None:
                continue
            steps.append((piv, c))
            for w, bc in basis[piv][0].items():
                nv = lowered(vec.get(w, 0) - lowered(c * bc))
                if nv:
                    if w not in vec and w in basis:
                        insort(todo, w, key=word_key)
                    vec[w] = nv
                else:
                    vec.pop(w, None)
        return steps

    @staticmethod
    def _monic(vec: dict, piv: Word):
        """(vec divided by its pivot entry, without that entry; the inverse
        of the pivot entry).  vec loses its pivot entry."""
        inv = vec.pop(piv)
        inv = inv.inv() if type(inv) is Coefficient else \
            lowered(Fraction(1, inv))
        return {w: lowered(c * inv) for w, c in vec.items()}, inv

    def _combination(self, steps: list) -> dict:
        """tag -> coefficient of the wrapped rows whose sum is the sum of
        multiplier * row(pivot) over the steps.  Row k expands to inv_k *
        (e_tag_k - sum of c_j * row_j over its own steps), and every row_j
        there is older than row k, so the rows are expanded newest first:
        each after every newer row has added to its weight.  A row's
        weight is kept as the list of what was added to it and summed once
        when the row is popped (`scalar_sum`), since every term has arrived
        by then."""
        basis = self.basis
        parts: dict = {}           # tag of a basis row -> its weight's terms
        newest: list = []          # heap of (-tag, pivot)
        combo: dict = {}

        def add(steps, scale):
            for piv, c in steps:
                tag = basis[piv][1]
                terms = parts.get(tag)
                if terms is None:
                    parts[tag] = [lowered(scale * c)]
                    heappush(newest, (-tag, piv))
                else:
                    terms.append(lowered(scale * c))

        add(steps, 1)
        while newest:
            _, piv = heappop(newest)
            _, tag, inv, row_steps = basis[piv]
            a = lowered(scalar_sum(parts.pop(tag)) * inv)
            if a:
                combo[tag] = a
                add(row_steps, -a)
        return combo

    def add_wrapped(self, left: Word, rel_index: int, right: Word):
        """Reduce left * relation * right and keep it as a basis row unless
        it reduces to zero; its pivot, or None."""
        base = self._vec_cache[rel_index]
        vec = {left + w + right: c for w, c in base.items()}
        tag = len(self.tags)
        self.tags.append((left, rel_index, right))
        steps = self._reduce(vec)
        if not vec:
            return None
        piv = max(vec, key=word_key)
        vec, inv = self._monic(vec, piv)
        self.basis[piv] = (vec, tag, inv, steps)
        return piv

    def certificate(self, target: NcPoly, steps: list) -> MembershipCertificate:
        """The certificate of a target that the steps reduce to zero.  The
        combination is re-expanded from scratch and compared with the
        target first: no certificate leaves the engine unchecked."""
        combo = self._combination(steps)
        rows = [(*self.tags[t], combo[t]) for t in sorted(combo)]
        if _residual(rows, self._vec_cache, self._to_vec(target)):
            raise RuntimeError("internal error: certificate failed re-expansion")
        return MembershipCertificate(
            [CertEntry(l, i, r, Coefficient.const(self.space, c))
             for l, i, r, c in rows])


class _FractionSpan(_Span):
    """A span over Q: every entry, multiplier and inverse is a Fraction, and
    a basis row keeps its pivot entry.  `_Span` over Q would make a ckbench
    sweep pass 0.63x as long (0.93x with its rows left as Coefficients);
    ckbench keeps every pass's stdout, so a second pass then fits into more
    15 s runs and its 4.7 MB of output reads as a peak_rss_mb regression.
    The point pass is kept off spans over Q for the same reason: it made
    theorem1 at b = 7 take 15-23 ms instead of 32-36 ms in-process, and
    its pivot loop keeps a max per step, since sorting the candidates once
    (`_Span._reduce`) made sweep's ops 0.95x as long.  This class goes
    once ckbench keeps one pass's output."""

    @staticmethod
    def _to_vec(p: NcPoly) -> dict:
        return {w: c.as_fraction() for w, c in p.terms.items()}

    def _reduce(self, vec: dict) -> list:
        basis = self.basis
        steps = []
        while True:
            piv = max((w for w in vec if w in basis), key=word_key,
                      default=None)
            if piv is None:
                return steps
            c = vec[piv]
            steps.append((piv, c))
            for w, bc in basis[piv][0].items():
                nv = vec.get(w, 0) - c * bc
                if nv:
                    vec[w] = nv
                else:
                    vec.pop(w, None)

    @staticmethod
    def _monic(vec: dict, piv: Word):
        inv = 1 / vec[piv]
        return {w: c * inv for w, c in vec.items()}, inv


class _PointSpan:
    """A span of the residues modulo POINT_PRIME at a fixed point, name k
    at POINT_ROOT^(k+1): every entry is an int in [0, POINT_PRIME), and a
    vec is None when a coefficient has a pole at the point.  It only finds
    pivots and support rows for the point pass (`_point_certificates`); it
    makes no certificate, so a basis row is (row, tag, pivots): the monic
    row without its pivot entry, and the pivots its reduction used, with
    no multiplier or inverse.  It is no `_Span`, but `_feed` takes either,
    and like a `_Span` it reads its space and alphabet off its first
    relation.

    A vec is keyed by word codes, not words: the code of w is w read as a
    base-(n + 1) numeral, n the alphabet size, with generator g as the
    digit g + 1 and the first letter most significant, so () is 0.  No
    digit is 0, so codes are distinct and ordered as the words are in
    deglex: a reduction sorts its pivot candidates once as plain ints,
    pops them as `_Span._reduce` does, and picks the pivots of a span
    keyed by words.  A concatenation is a shift, code(l * w * r) =
    (code(l) * (n + 1)^|w| + code(w)) * (n + 1)^|r| + code(r), so a
    relation is kept as ((n + 1)^|w|, code(w), residue) triples, one per
    term, and a wrapped row gets its codes from integer arithmetic; tags
    stay words."""

    def __init__(self, relations: Sequence[NcPoly]):
        self.tags: list = []
        self.basis: dict = {}
        self._vec_cache: list = []      # relations are kept as triples
        self.point = tuple(pow(POINT_ROOT, k + 1, POINT_PRIME)
                           for k in range(len(relations[0].space)))
        self._base = len(relations[0].alphabet) + 1
        for rel in relations:
            terms = self._residues(rel)
            self._vec_cache.append(
                None if terms is None else
                [(self._base ** len(w), self._code(w), r) for w, r in terms])

    def _residues(self, p: NcPoly):
        """(word, residue) for each term with a nonzero residue, or None
        when a coefficient has a pole at the point."""
        terms = []
        for w, c in p.terms.items():
            r = c.residue(self.point, POINT_PRIME)
            if r is None:
                return None
            if r:
                terms.append((w, r))
        return terms

    def _code(self, w: Word) -> int:
        v, base = 0, self._base
        for g in w:
            v = v * base + g + 1
        return v

    def _to_vec(self, p: NcPoly):
        terms = self._residues(p)
        return None if terms is None else \
            {self._code(w): r for w, r in terms}

    def _reduce(self, vec: dict) -> list:
        """Reduce vec in place against the basis; the pivots used."""
        basis, prime = self.basis, POINT_PRIME
        todo = sorted(filter(basis.__contains__, vec))
        pivots = []
        while todo:
            piv = todo.pop()
            c = vec.pop(piv, None)
            if c is None:
                continue
            pivots.append(piv)
            for w, bc in basis[piv][0].items():
                nv = (vec.get(w, 0) - c * bc) % prime
                if nv:
                    if w not in vec and w in basis:
                        insort(todo, w)
                    vec[w] = nv
                else:
                    vec.pop(w, None)
        return pivots

    def add_wrapped(self, left: Word, rel_index: int, right: Word):
        """`_Span.add_wrapped` on codes: the code of l * w * r is
        (code(l) * (n + 1)^|w| + code(w)) * (n + 1)^|r| + code(r)."""
        lc, rc = self._code(left), self._code(right)
        shift = self._base ** len(right)
        vec = {(lc * power + v) * shift + rc: c
               for power, v, c in self._vec_cache[rel_index]}
        tag = len(self.tags)
        self.tags.append((left, rel_index, right))
        pivots = self._reduce(vec)
        if not vec:
            return None
        piv, prime = max(vec), POINT_PRIME
        inv = pow(vec.pop(piv), -1, prime)
        self.basis[piv] = ({w: c * inv % prime for w, c in vec.items()},
                           tag, pivots)
        return piv

    def support(self, pivots) -> set:
        """The tags of every basis row that the pivots reach, directly or
        through the pivots recorded with a row they reach."""
        tags, todo = set(), list(pivots)
        while todo:
            _, tag, row_pivots = self.basis[todo.pop()]
            if tag not in tags:
                tags.add(tag)
                todo += row_pivots
        return tags


def _span_over(relations: Sequence[NcPoly]) -> _Span:
    """The exact span for the relations' space: a `_FractionSpan` over Q,
    else a `_Span`.  The point pass builds its `_PointSpan` itself, before
    the exact `_Span` of its support rows."""
    return (_Span if relations[0].space else _FractionSpan)(relations)


def _residual(rows, relation_terms, target_terms) -> dict:
    """sum of c * (l * g_i * r) over the rows (l, i, r, c), minus the target,
    as a word -> scalar dict without zero entries, every scalar lowered;
    relation_terms[i] and target_terms are word -> scalar dicts.  Each
    word's products and negated target entry are collected first and
    summed once (`scalar_sum`), so the terms over one denominator add as
    numerators and are canonicalised once."""
    parts: dict = {}
    for left, i, right, c in rows:
        for w, gc in relation_terms[i].items():
            parts.setdefault(left + w + right, []).append(lowered(c * gc))
    for w, c in target_terms.items():
        parts.setdefault(w, []).append(-c)
    return {w: s for w, terms in parts.items() if (s := scalar_sum(terms))}


def _span(relations: Sequence[NcPoly], degree: Optional[int],
          wrapper_len: Optional[int]):
    """The rows (l, i, r) for l * g_i * r, in deglex order of (l, r), then by
    i.  With a degree, those with |l| + |r| = degree - deg g_i: the complete
    degree slice of the ideal.  Else those with |l| + |r| <= wrapper_len."""
    n = len(relations[0].alphabet)
    degrees = [rel.degree() for rel in relations]

    def indices(total):
        return [i for i, d in enumerate(degrees)
                if degree is None or d + total == degree]

    top = wrapper_len if degree is None else degree
    _check_rows(indices, n, top, degree, len(relations))
    for total in range(top + 1):
        layer = indices(total)
        for llen in range(total + 1):
            for l in product(range(n), repeat=llen):
                for r in product(range(n), repeat=total - llen):
                    for i in layer:
                        yield l, i, r


def _check_rows(indices, n: int, top: int, degree: Optional[int],
                relations: int):
    """Raise ValueError when the span's rows pass MAX_SPAN_ROWS.  Each
    wrapper length t <= top gives (t+1) * n^t rows per relation that
    indices(t) lists: relations * sum of (t+1) * n^t for a bounded span,
    and the sum of (d-deg g_i+1) * n^(d-deg g_i) for a degree-d slice.
    The sum stops at a thousand times the budget, so that any wrapper
    length or degree is checked at once."""
    rows = 0
    for t in range(top + 1):
        rows += len(indices(t)) * (t + 1) * n ** t
        if rows > 1000 * MAX_SPAN_ROWS:
            break
    if rows > MAX_SPAN_ROWS:
        about = "more than " if t < top else ""
        what = (f"wrapper length {top}" if degree is None
                else f"the degree-{degree} slice")
        raise ValueError(
            f"{what} needs {about}{rows:,} wrapped rows ({relations} "
            f"relations over {n} generators); the limit is "
            f"{MAX_SPAN_ROWS:,}")


def _check_wrapper_len(wrapper_len):
    """Refuse a wrapper length that is not a nonnegative int or is a bool."""
    if not isinstance(wrapper_len, int) or isinstance(wrapper_len, bool):
        raise ValueError("wrapper length must be an int, not "
                         f"{type(wrapper_len).__name__}")
    if wrapper_len < 0:
        raise ValueError("wrapper length must be nonnegative")


def _verdicts(targets: Sequence[NcPoly], relations: Sequence[NcPoly],
              wrapper_len: Optional[int], bounded: bool = False) -> list:
    """One verdict per target, over the alphabet and parameter space of the
    first relation.  Graded when bounded is false and every relation and
    every target is homogeneous: against the complete slice of the target's
    degree, so a failed reduction is NON_MEMBER.  Otherwise: against the
    wrappers up to wrapper_len, so a failed search is INCONCLUSIVE.  A zero
    target is a MEMBER with no certificate entries.  Each batch goes to
    `_point_certificates` first, which runs the point pass where it
    applies, and the targets it leaves take the exact loop
    (`_certificates`); a graded target left open at full point rank keeps
    its NON_MEMBER without it.  A target or relation over another alphabet
    or space than the first relation is refused (ValueError) before any
    row is built."""
    if targets and not relations:
        raise ValueError("empty relation list")
    for p in chain(relations, targets):
        relations[0]._check(p)
    graded = not bounded and all(p.is_homogeneous()
                                 for p in chain(relations, targets))
    if wrapper_len is not None or not graded:  # a slice does not read it
        _check_wrapper_len(wrapper_len)
    verdicts = []
    batches: dict = {}         # degree (None if bounded) -> target indices
    for k, target in enumerate(targets):
        if target.is_zero():
            verdicts.append(MembershipVerdict(MEMBER, MembershipCertificate([])))
            continue
        verdicts.append(MembershipVerdict(NON_MEMBER) if graded else
                        MembershipVerdict(INCONCLUSIVE, bound=wrapper_len))
        batches.setdefault(target.degree() if graded else None, []).append(k)
    for degree, batch in batches.items():
        found, rest = _point_certificates(targets, batch, relations, degree,
                                          wrapper_len)
        if rest:
            found.update(_certificates(targets, rest, relations, degree,
                                       wrapper_len))
        for k, cert in found.items():
            verdicts[k] = MembershipVerdict(MEMBER, cert)
    return verdicts


def _feed(span, vecs: dict, rows) -> dict:
    """Feed the rows (l, i, r) to the span, a `_Span` or a `_PointSpan`,
    in order, while some vec (target index -> the target as a vec of the
    span, reduced in place) is open; target index -> its steps, for each
    vec the rows reduce to zero, with none for a vec zero from the start.
    A row is drawn before that check, so `_span`'s budget refusal runs."""
    settled = {k: [] for k, vec in vecs.items() if not vec}
    open_ = {k: (vec, []) for k, vec in vecs.items() if vec}
    for row in rows:
        if not open_:
            break
        piv = span.add_wrapped(*row)
        for k in [k for k, (vec, _) in open_.items() if piv in vec]:
            vec, steps = open_[k]
            steps += span._reduce(vec)
            if not vec:
                settled[k] = open_.pop(k)[1]
    return settled


def _certificates(targets: Sequence[NcPoly], batch: list,
                  relations: Sequence[NcPoly], degree: Optional[int],
                  wrapper_len: Optional[int]) -> dict:
    """Target index -> certificate, for each target of the batch that the
    rows of the span (the degree slice, or the wrappers up to wrapper_len
    when degree is None) reduce to zero, fed to one exact span over the
    relations' space until every target is settled."""
    span = _span_over(relations)
    vecs = {k: span._to_vec(targets[k]) for k in batch}
    settled = _feed(span, vecs, _span(relations, degree, wrapper_len))
    return {k: span.certificate(targets[k], steps)
            for k, steps in settled.items()}


def _point_certificates(targets: Sequence[NcPoly], batch: list,
                        relations: Sequence[NcPoly], degree: Optional[int],
                        wrapper_len: Optional[int]):
    """(target index -> certificate, the targets of the batch left to the
    exact loop).  The rows are those of `_span`: the degree slice, or the
    wrappers up to wrapper_len when degree is None.  A target gets its
    certificate when the point pass settles it and its support rows then
    reduce it to zero over the exact field: the rows are fed to a
    `_PointSpan`, and the union of the rows that the settled targets reach
    (`_PointSpan.support`), in tag order, to an exact `_Span`.  The module
    docstring says why each certificate is the one `_certificates` finds.
    A target that vanishes at the point is settled there on no rows.
    Nothing is settled over Q, or when a relation or target coefficient
    has a pole at the point.

    The exact loop takes the targets that the pass settles and their
    support rows do not reduce, and those it leaves open while some row
    reduced to zero at the point.  A target open at full point rank is
    not left to it: the pass has fed every row, and each became a basis
    row, so the rows are independent at the point and some square minor
    of them is nonzero there.  An exact combination of the rows equal to
    the target can have no pole at the point: by Cramer's rule on that
    minor each of its coefficients is a polynomial in the entries over the
    minor, so clearing a denominator that vanishes at the point would make
    the rows dependent there.  Its value at the point would then reduce
    the target's to zero, so a target open at the point is open over
    Q(names) as well: INCONCLUSIVE in a bounded span, and NON_MEMBER in a
    degree slice, which holds the whole degree-d part of the ideal, so the
    caller's default stands."""
    if not relations[0].space:
        return {}, batch
    point = _PointSpan(relations)
    vecs = {k: point._to_vec(targets[k]) for k in batch}
    if None in point._vec_cache or None in vecs.values():
        return {}, batch
    settled = _feed(point, vecs, _span(relations, degree, wrapper_len))
    support = point.support(chain.from_iterable(settled.values()))
    exact = _Span(relations)
    vecs = {k: exact._to_vec(targets[k]) for k in settled}
    rows = [point.tags[t] for t in sorted(support)]
    found = {k: exact.certificate(targets[k], steps)
             for k, steps in _feed(exact, vecs, rows).items()}
    full_rank = len(point.basis) == len(point.tags)
    return found, [k for k in batch if k not in found
                   and (k in settled or not full_rank)]


def _overall(verdicts, yes: str, no: str) -> str:
    """yes when every verdict is MEMBER, no when one is NON_MEMBER, else
    INCONCLUSIVE."""
    kinds = {v.kind for v in verdicts}
    if kinds <= {MEMBER}:
        return yes
    if NON_MEMBER in kinds:
        return no
    return INCONCLUSIVE


# ---------------------------------------------------------------------------
# public operations

def graded_membership(target: NcPoly, relations: Sequence[NcPoly]) -> MembershipVerdict:
    """Definitive membership of a homogeneous target in the two-sided ideal
    generated by homogeneous relations, decided degree slice by degree slice."""
    for rel in relations:
        if not rel.is_homogeneous():
            raise ValueError("graded membership needs homogeneous relations")
    if not target.is_homogeneous():
        raise ValueError("graded membership needs a homogeneous target")
    return _verdicts([target], relations, None)[0]


def bounded_membership(target: NcPoly, relations: Sequence[NcPoly],
                       wrapper_len: int = 2) -> MembershipVerdict:
    """Membership search over wrappers with |l|+|r| <= wrapper_len; returns
    MEMBER with certificate or INCONCLUSIVE (never NON_MEMBER)."""
    return _verdicts([target], relations, wrapper_len, bounded=True)[0]


class RelationStability(NamedTuple):
    index: int
    verdict: MembershipVerdict


class StabilityReport(NamedTuple):
    verdict: str  # STABLE | UNSTABLE | INCONCLUSIVE
    relations: list

    def failing_indices(self):
        return [r.index for r in self.relations if r.verdict.kind == NON_MEMBER]


def involution_stability(p: Presentation, wrapper_len: int = 2) -> StabilityReport:
    """Decide, relation by relation, whether the involution image lies in the
    relation ideal.  Homogeneous presentations get the definitive graded
    test; otherwise a bounded search is used and a failed search leaves the
    overall verdict INCONCLUSIVE."""
    images = [rel.involute(p.involution) for rel in p.relations]
    verdicts = _verdicts(images, p.relations, wrapper_len)
    return StabilityReport(_overall(verdicts, STABLE, UNSTABLE),
                           [RelationStability(i, v)
                            for i, v in enumerate(verdicts)])


class EquivalenceReport(NamedTuple):
    verdict: str  # EQUIVALENT | NOT_EQUIVALENT | INCONCLUSIVE
    forward: list   # MembershipVerdict per P-relation against Q's ideal
    backward: list  # MembershipVerdict per Q-relation against P's ideal
    wrapper_len: int


def presentations_equivalent(P: Presentation, Q: Presentation,
                             wrapper_len: Optional[int] = 2) -> EquivalenceReport:
    """Do P and Q generate the same two-sided ideal under the identity map
    on generators?  EQUIVALENT iff every relation of each lies in the other's
    ideal; certificates are retained for both directions.  wrapper_len may
    be None when every relation is homogeneous, since slices do not read
    it."""
    if P.alphabet != Q.alphabet:
        raise ValueError("presentations use different alphabets")
    if P.space != Q.space:
        raise ValueError("presentations use different parameter spaces")
    if P.involution != Q.involution:
        raise ValueError("presentations use different involutions")
    forward = _verdicts(P.relations, Q.relations, wrapper_len)
    backward = _verdicts(Q.relations, P.relations, wrapper_len)
    verdict = _overall(forward + backward, EQUIVALENT, NOT_EQUIVALENT)
    return EquivalenceReport(verdict, forward, backward, wrapper_len)
