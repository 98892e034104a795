"""Two-sided ideal membership with certificates.

The engine reduces targets against the linear span of wrapped relations
l * g * r.  Two regimes:

* graded: relations homogeneous, target homogeneous of degree d; the span of
  wrappers with |l| + len(g-degree) + |r| = d is the complete degree-d slice
  of the ideal, so non-membership is definitive.
* bounded: arbitrary relations, wrappers with |l| + |r| <= wrapper_len; a
  failed search proves nothing, so the verdict is INCONCLUSIVE, never
  NON_MEMBER.  A wrapper length whose span would pass MAX_SPAN_ROWS rows is
  refused with ValueError before any row is built.

Every MEMBER verdict carries a certificate (left word, relation index, right
word, coefficient) which is re-expanded and compared against the target
before it is returned.  Reduction is sparse row echelon over the exact
scalar field, with plain Fractions when no symbolic parameter is present;
rows are kept monic and inserted smallest-wrapper-first, which makes
certificates deterministic.  A reduction records its elimination steps
(pivot, multiplier) and touches only the row vector; the steps are expanded
into a combination of wrapped rows only for a target that reduces to zero,
so a span pays for certificates only at its MEMBER targets.
"""
from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import chain, product
from typing import Optional, Sequence

from .coeff import Coefficient, Space
from .ncpoly import NcPoly, InvolutionSpec, Word, word_key

MEMBER = "MEMBER"
NON_MEMBER = "NON_MEMBER"
INCONCLUSIVE = "INCONCLUSIVE"

STABLE = "STABLE"
UNSTABLE = "UNSTABLE"

EQUIVALENT = "EQUIVALENT"
NOT_EQUIVALENT = "NOT_EQUIVALENT"

# A bounded span is refused before it is built when its row estimate passes
# this budget; on 7 relations over 4 generators it admits wrapper lengths
# up to 5.
MAX_SPAN_ROWS = 100_000


class Presentation:
    """A generator alphabet with relations (each meaning '= 0') and an
    involution."""

    __slots__ = ("alphabet", "space", "relations", "involution", "homogeneous")

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
        self.homogeneous = all(r.is_homogeneous() for r in self.relations)

    def with_relations(self, extra: Sequence[NcPoly]) -> "Presentation":
        return Presentation(self.alphabet, self.space,
                            self.relations + list(extra), self.involution)

    def __repr__(self):
        return (f"<Presentation {len(self.relations)} relations over "
                f"{'*'.join(self.alphabet)}>")


@dataclass
class CertEntry:
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
        rows = ((e.left, e.rel_index, e.right, e.coeff) for e in self.entries)
        return not _residual(rows, [r.terms for r in relations], target.terms)

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __repr__(self):
        return f"<MembershipCertificate {len(self.entries)} entries>"


@dataclass
class MembershipVerdict:
    kind: str  # MEMBER | NON_MEMBER | INCONCLUSIVE
    certificate: Optional[MembershipCertificate] = None
    bound: Optional[int] = None

    def is_member(self) -> bool:
        return self.kind == MEMBER

    def __repr__(self):
        extra = f" bound={self.bound}" if self.bound is not None else ""
        return f"<{self.kind}{extra}>"


# ---------------------------------------------------------------------------
# span engine

class _Span:
    """Echelon basis of a list of wrapped-relation rows.  Each basis row
    keeps the elimination steps that produced it; the combination of
    wrapped rows behind a target is expanded from those steps only when the
    target reduces to zero."""

    def __init__(self, relations: Sequence[NcPoly], space: Space):
        self.relations = list(relations)
        self.space = space
        self.rational = not space
        self.tags: list = []       # (left, rel_index, right) in insertion order
        # pivot word -> (monic vec, tag, inverse of the pivot, steps); a
        # row's tag is also its creation index, since rows enter in tag order
        self.basis: dict = {}
        self._vec_cache = [self._to_vec(r) for r in self.relations]

    def _to_vec(self, p: NcPoly) -> dict:
        if self.rational:
            return {w: c.as_fraction() for w, c in p.terms.items()}
        return dict(p.terms)

    def _reduce(self, vec: dict) -> list:
        """Reduce vec in place against the basis and return the steps
        (pivot, multiplier): vec loses the sum of multiplier * row(pivot)."""
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

    def _combination(self, steps: list) -> dict:
        """tag -> coefficient of the wrapped rows whose sum is the sum of
        multiplier * row(pivot) over the steps.  Row k expands to inv_k *
        (e_tag_k - sum of c_j * row_j over its own steps), and every row_j
        there is older than row k, so the rows are expanded newest first:
        each after every newer row has added to its weight."""
        basis = self.basis
        weight: dict = {}          # tag of a basis row -> its weight so far
        newest: list = []          # heap of (-tag, pivot)
        combo: dict = {}

        def add(steps, scale):
            for piv, c in steps:
                tag = basis[piv][1]
                if tag not in weight:
                    heappush(newest, (-tag, piv))
                weight[tag] = weight.get(tag, 0) + scale * c

        add(steps, 1)
        while newest:
            _, piv = heappop(newest)
            _, tag, inv, row_steps = basis[piv]
            a = weight[tag] * inv
            if a:
                combo[tag] = a
                add(row_steps, -a)
        return combo

    def add_wrapped(self, left: Word, rel_index: int, right: Word):
        base = self._vec_cache[rel_index]
        vec = {left + w + right: c for w, c in base.items()}
        tag = len(self.tags)
        self.tags.append((left, rel_index, right))
        steps = self._reduce(vec)
        if not vec:
            return
        piv = max(vec, key=word_key)
        inv = 1 / vec[piv] if self.rational else vec[piv].inv()
        vec = {w: c * inv for w, c in vec.items()}
        self.basis[piv] = (vec, tag, inv, steps)

    def membership(self, target: NcPoly) -> Optional[MembershipCertificate]:
        """Certificate if target is in the span, else None.  The combination
        is re-expanded from scratch and compared with the target first: no
        certificate leaves the engine unchecked."""
        vec = self._to_vec(target)
        steps = self._reduce(vec)
        if vec:
            return None
        combo = self._combination(steps)
        rows = [(*self.tags[t], combo[t]) for t in sorted(combo)]
        if _residual(rows, self._vec_cache, self._to_vec(target)):
            raise RuntimeError("internal error: certificate failed re-expansion")
        if self.rational:
            rows = [(l, i, r, Coefficient.const(self.space, c))
                    for l, i, r, c in rows]
        return MembershipCertificate([CertEntry(*row) for row in rows])


def _residual(rows, relation_terms, target_terms) -> dict:
    """sum of c * (l * g_i * r) over the rows (l, i, r, c), minus the target,
    as a word -> scalar dict without zero entries; relation_terms[i] and
    target_terms are word -> scalar dicts over one scalar type."""
    acc: dict = {}
    products = ((left + w + right, c * gc) for left, i, right, c in rows
                for w, gc in relation_terms[i].items())
    negated = ((w, -c) for w, c in target_terms.items())
    for w, c in chain(products, negated):
        nv = acc.get(w, 0) + c
        if nv:
            acc[w] = nv
        else:
            acc.pop(w, None)
    return acc


def _span(relations: Sequence[NcPoly], space: Space, degree: Optional[int],
          wrapper_len: Optional[int]) -> _Span:
    """Span of the rows l * g_i * r, inserted in deglex order of (l, r) and
    then by relation index.  With a degree, the rows with |l| + |r| =
    degree - deg g_i: the complete degree slice of the ideal.  With degree
    None, the rows with |l| + |r| <= wrapper_len."""
    n = len(relations[0].alphabet)
    if degree is None:
        _check_bounded_rows(len(relations), n, wrapper_len)
    span = _Span(relations, space)
    degrees = [rel.degree() for rel in relations]
    for total in range((wrapper_len if degree is None else degree) + 1):
        indices = [i for i, d in enumerate(degrees)
                   if degree is None or d + total == degree]
        if not indices:
            continue
        for llen in range(total + 1):
            for l in product(range(n), repeat=llen):
                for r in product(range(n), repeat=total - llen):
                    for i in indices:
                        span.add_wrapped(l, i, r)
    return span


def _check_bounded_rows(relations: int, n: int, wrapper_len: int):
    """Raise ValueError when relations * sum of (t+1) * n^t over t <=
    wrapper_len, the rows of a bounded span over n generators, passes
    MAX_SPAN_ROWS.  The sum stops at a thousand times the budget, so that
    any wrapper length is checked at once."""
    rows = 0
    for t in range(wrapper_len + 1):
        rows += relations * (t + 1) * n ** t
        if rows > 1000 * MAX_SPAN_ROWS:
            break
    if rows > MAX_SPAN_ROWS:
        about = "more than " if t < wrapper_len else ""
        raise ValueError(
            f"wrapper length {wrapper_len} needs {about}{rows:,} wrapped "
            f"rows ({relations} relations over {n} generators); the limit "
            f"is {MAX_SPAN_ROWS:,}")


def _verdicts(targets: Sequence[NcPoly], relations: Sequence[NcPoly],
              space: Space, graded: bool,
              wrapper_len: Optional[int]) -> list:
    """One verdict per target.  Graded: against the complete slice of the
    target's degree, so a failed reduction is NON_MEMBER.  Otherwise:
    against the wrappers up to wrapper_len, so a failed search is
    INCONCLUSIVE."""
    spans: dict = {}
    verdicts = []
    for target in targets:
        if target.is_zero():
            verdicts.append(MembershipVerdict(MEMBER, MembershipCertificate([])))
            continue
        degree = target.degree() if graded else None
        if degree not in spans:
            spans[degree] = _span(relations, space, degree, wrapper_len)
        cert = spans[degree].membership(target)
        if cert is not None:
            verdicts.append(MembershipVerdict(MEMBER, cert))
        elif graded:
            verdicts.append(MembershipVerdict(NON_MEMBER))
        else:
            verdicts.append(MembershipVerdict(INCONCLUSIVE, bound=wrapper_len))
    return verdicts


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
    if not relations:
        raise ValueError("empty relation list")
    for rel in relations:
        if not rel.is_homogeneous():
            raise ValueError("graded membership needs homogeneous relations")
    if not target.is_homogeneous():
        raise ValueError("graded membership needs a homogeneous target")
    return _verdicts([target], relations, target.space, True, None)[0]


def bounded_membership(target: NcPoly, relations: Sequence[NcPoly],
                       wrapper_len: int = 2) -> MembershipVerdict:
    """Membership search over wrappers with |l|+|r| <= wrapper_len; returns
    MEMBER with certificate or INCONCLUSIVE (never NON_MEMBER)."""
    if wrapper_len < 0:
        raise ValueError("wrapper_len must be nonnegative")
    if not relations:
        raise ValueError("empty relation list")
    return _verdicts([target], relations, target.space, False, wrapper_len)[0]


@dataclass
class RelationStability:
    index: int
    verdict: MembershipVerdict


@dataclass
class StabilityReport:
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
    verdicts = _verdicts(images, p.relations, p.space, p.homogeneous,
                         wrapper_len)
    return StabilityReport(_overall(verdicts, STABLE, UNSTABLE),
                           [RelationStability(i, v)
                            for i, v in enumerate(verdicts)])


@dataclass
class EquivalenceReport:
    verdict: str  # EQUIVALENT | NOT_EQUIVALENT | INCONCLUSIVE
    forward: list   # MembershipVerdict per P-relation against Q's ideal
    backward: list  # MembershipVerdict per Q-relation against P's ideal
    wrapper_len: int


def _one_direction(sources: Sequence[NcPoly], targets: Presentation,
                   wrapper_len: int):
    """Verdicts for each source relation against the target ideal."""
    graded = targets.homogeneous and all(s.is_homogeneous() for s in sources)
    return _verdicts(sources, targets.relations, targets.space, graded,
                     wrapper_len)


def presentations_equivalent(P: Presentation, Q: Presentation,
                             wrapper_len: int = 2) -> EquivalenceReport:
    """Do P and Q generate the same two-sided ideal under the identity map
    on generators?  EQUIVALENT iff every relation of each lies in the other's
    ideal; certificates are retained for both directions."""
    if P.alphabet != Q.alphabet:
        raise ValueError("presentations use different alphabets")
    if P.space != Q.space:
        raise ValueError("presentations use different parameter spaces")
    if P.involution != Q.involution:
        raise ValueError("presentations use different involutions")
    forward = _one_direction(P.relations, Q, wrapper_len)
    backward = _one_direction(Q.relations, P, wrapper_len)
    verdict = _overall(forward + backward, EQUIVALENT, NOT_EQUIVALENT)
    return EquivalenceReport(verdict, forward, backward, wrapper_len)
