"""Seeded inputs for the three workloads.

Every op is one in-process call of the command-line entry point, so an op
is an argv list plus the known answer the checker compares against.  The
known answers come from the mathematics, never from the program: the
claims are identities, and the generated presentation files only ever
change the generating set of an ideal, not the ideal.

symbolic  the six claims, symbolic in the modulus, one op per claim.
sweep     one op per modulus b in [2, 100]: theorem1 and corollary1 at b.
files     presentation files of three kinds, one check-file op per file.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

GENERATORS = ("x1", "x2", "x3", "x4")
CLAIMS = ("lemma1", "lemma2", "lemma4", "lemma5", "theorem1", "corollary1")
WORKLOADS = ("symbolic", "sweep", "files")

SWEEP_MODULI = range(2, 101)

# Files per pass, by kind.  The counts are fixed so that a pass costs
# about the same whatever the seed; the seed picks each file's modulus,
# order, scaling and mixing.  96 files average out most of the cost
# differences between single files.
FILES_PER_STAGE = 12
SIX_RELATION_FILES = 24
EXCHANGE_FILES = 24
# Pairwise additions r_i += k*r_j per file (a seeded count from 0 to this).
MAX_MIXES = 4
# The three pairs of lemma1 relations that share their words.  Mixes stay
# inside a pair, so that no pivot carries two parameters (see README).
LEMMA1_BLOCKS = ((0, 1), (2, 3), (4, 5))


@dataclass(frozen=True)
class Call:
    """One command-line invocation and the answer it must give.

    verify calls accept any verdict in `verdicts`; check-file calls must
    report `stability`.
    """

    argv: tuple
    claim: Optional[str] = None
    b: Optional[int] = None
    verdicts: frozenset = frozenset()
    stability: Optional[str] = None


@dataclass(frozen=True)
class Op:
    """The unit that is timed: one or more calls, timed together."""

    name: str
    calls: tuple


def verify_call(claim: str, b: Optional[int] = None) -> Call:
    mode = ["--symbolic"] if b is None else ["--b", str(b)]
    argv = ("verify", claim, *mode, "--certificates", "--format", "json")
    return Call(argv, claim=claim, b=b, verdicts=_known_verdicts(claim, b))


def _known_verdicts(claim: str, b: Optional[int]) -> frozenset:
    # At b = 2 the two ideals of theorem1 differ (a one-dimensional
    # representation separates them), so PASS would be wrong; the bounded
    # search may leave it INCONCLUSIVE or a refutation may prove FAIL.
    if claim == "theorem1" and b == 2:
        return frozenset({"INCONCLUSIVE", "FAIL"})
    return frozenset({"PASS"})


def check_file_call(path: str, stability: str) -> Call:
    return Call(("check-file", path, "--involution-stability"),
                stability=stability)


# ---------------------------------------------------------------------------
# symbolic and sweep

def symbolic_ops(rng: random.Random) -> list:
    claims = list(CLAIMS)
    rng.shuffle(claims)
    return [Op(c, (verify_call(c),)) for c in claims]


def sweep_ops(rng: random.Random) -> list:
    moduli = list(SWEEP_MODULI)
    rng.shuffle(moduli)
    return [Op(f"b={b}", (verify_call("theorem1", b),
                          verify_call("corollary1", b))) for b in moduli]


# ---------------------------------------------------------------------------
# presentation files
#
# A relation is a dict word -> coefficient, a word a tuple of generator
# indices and a coefficient a dict parameter name ("" for the constant)
# -> Fraction.  Scaling and pairwise additions by rationals keep every
# coefficient linear in the parameters.

INVOLUTION = "x1 -> x2; x2 -> x1; x3 -> x4; x4 -> x3"
X1, X2, X3, X4 = range(4)


def _c(value, name: str = "") -> dict:
    return {name: Fraction(value)}


def _rel(*terms) -> dict:
    """Build a relation from (coefficient, word) pairs, merging words."""
    out: dict = {}
    for coeff, word in terms:
        slot = out.setdefault(word, {})
        for name, q in coeff.items():
            slot[name] = slot.get(name, 0) + q
    return {w: {n: q for n, q in c.items() if q} for w, c in out.items()}


def _six_relations(alpha: dict, beta: dict, gamma: dict) -> list:
    """The six-relation system; each parameter is a coefficient dict."""
    neg = lambda c: {n: -q for n, q in c.items()}
    one, m1 = _c(1), _c(-1)
    rels = []
    for (p, q, r, s), par in (((X1, X2, X3, X4), alpha),
                              ((X1, X3, X4, X2), beta),
                              ((X1, X4, X2, X3), gamma)):
        rels.append(_rel((one, (p, q)), (m1, (q, p)),
                         (neg(par), (r, s)), (neg(par), (s, r))))
        rels.append(_rel((one, (p, q)), (one, (q, p)),
                         (m1, (r, s)), (one, (s, r))))
    return rels


# The four stages of the lemma1 stability scan: parameters declared, the
# constraints substituted, and the verdict.  The bar names are formal
# conjugates; "alpha alphabar" without "~" makes alpha self-conjugate.
LEMMA1_STAGES = (
    ("free_conjugates", "alpha~alphabar beta~betabar gamma~gammabar",
     None, None, "UNSTABLE"),
    ("alpha_real", "alpha alphabar beta~betabar gamma~gammabar",
     None, None, "UNSTABLE"),
    ("beta_identified", "alpha alphabar beta~betabar gamma~gammabar",
     1, None, "UNSTABLE"),
    ("fully_identified", "alpha alphabar beta~betabar gamma~gammabar",
     1, -1, "STABLE"),
)


def lemma1_stage(stage) -> tuple:
    _, params, beta, gamma, verdict = stage
    rels = _six_relations(_c(1, "alpha"),
                          _c(1, "beta") if beta is None else _c(beta),
                          _c(1, "gamma") if gamma is None else _c(gamma))
    return params, rels, verdict


def six_relation_at(b: int) -> tuple:
    return "", _six_relations(_c(Fraction(b - 2, b + 2)), _c(1), _c(-1)), \
        "STABLE"


def exchange_at(b: int) -> tuple:
    """The exchange system for the matrix [[b-1, 1], [b-2, 1]] with the
    unit relation; inhomogeneous, so check-file takes the bounded path."""
    one, m1 = _c(1), _c(-1)
    rels = [
        _rel((one, (X2, X1)), (_c(-(b - 1)), (X1, X2)), (m1, (X3, X4))),
        _rel((one, (X4, X3)), (_c(-(b - 2)), (X1, X2)), (m1, (X3, X4))),
        _rel((one, (X1, X2)), (one, (X3, X4)), (m1, ())),
    ]
    return "", rels, "STABLE"


def _rand_rational(rng: random.Random, top: int) -> Fraction:
    return Fraction(rng.randint(1, top), rng.randint(1, top)) \
        * rng.choice((1, -1))


def disguise(rels: list, rng: random.Random, blocks=None) -> list:
    """Change the generating set without changing the ideal: up to
    MAX_MIXES pairwise additions r_i += k*r_j, then a nonzero scaling of
    every relation, then a shuffle.  Each step is invertible over the
    rationals, and rationals are fixed by the involution, so the ideal and
    its stability verdict are unchanged.

    With `blocks` (groups of relation indices), i and j come from one
    group.  Mixing across the lemma1 blocks puts several parameters into
    one pivot, where coefficients swell without bound (see README)."""
    rels = [{w: dict(c) for w, c in r.items()} for r in rels]
    blocks = blocks or [range(len(rels))]
    for _ in range(rng.randint(0, MAX_MIXES)):
        i, j = rng.sample(list(rng.choice(blocks)), 2)
        k = _rand_rational(rng, 5)
        rels[i] = _rel(*((c, w) for w, c in rels[i].items()),
                       *(({n: k * q for n, q in c.items()}, w)
                         for w, c in rels[j].items()))
    rels = [{w: {n: s * q for n, q in c.items()} for w, c in r.items()}
            for r in rels for s in (_rand_rational(rng, 9),)]
    rng.shuffle(rels)
    return rels


def _coeff_text(coeff: dict) -> str:
    parts = [str(q) if not n else f"{q}*{n}" for n, q in sorted(coeff.items())]
    return "(" + " + ".join(parts) + ")"


def relation_text(rel: dict) -> str:
    terms = []
    for word, coeff in sorted(rel.items(), key=lambda wc: (len(wc[0]), wc[0])):
        if not coeff:
            continue
        text = _coeff_text(coeff)
        if word:
            text += "*" + "*".join(GENERATORS[i] for i in word)
        terms.append(text)
    return " + ".join(terms)


def presentation_text(title: str, params: str, rels: list) -> str:
    lines = [f"# {title}", "GENERATORS: " + " ".join(GENERATORS)]
    if params:
        lines.append("PARAMS: " + params)
    lines += ["INVOLUTION: " + INVOLUTION, "RELATIONS:"]
    lines += ["  " + relation_text(r) for r in rels]
    return "\n".join(lines) + "\n"


def files_inputs(rng: random.Random) -> list:
    """(file name, text, expected verdict) for one pass, in seeded order."""
    specs = []
    for stage in LEMMA1_STAGES:
        for _ in range(FILES_PER_STAGE):
            specs.append((f"lemma1-{stage[0]}", lemma1_stage(stage),
                          LEMMA1_BLOCKS))
    for _ in range(SIX_RELATION_FILES):
        b = rng.randint(3, 100)
        specs.append((f"six-relation-b{b}", six_relation_at(b), None))
    for _ in range(EXCHANGE_FILES):
        b = rng.randint(3, 100)
        specs.append((f"exchange-b{b}", exchange_at(b), None))
    rng.shuffle(specs)
    out = []
    for i, (title, (params, rels, verdict), blocks) in enumerate(specs):
        text = presentation_text(title, params, disguise(rels, rng, blocks))
        out.append((f"{i:02d}-{title}.pres", text, verdict))
    return out


def files_ops(inputs, directory) -> list:
    """One check-file op per written input file."""
    return [Op(name, (check_file_call(str(directory / name), verdict),))
            for name, _, verdict in inputs]


def warmup_ops(directory) -> list:
    """One verify and one check-file op (its file written to directory),
    run before anything is timed so that lazy imports and one-time caches
    of every layer are filled."""
    params, rels, verdict = exchange_at(3)
    path = directory / "warmup.pres"
    path.write_text(presentation_text("warm-up", params, rels),
                    encoding="utf-8")
    return [Op("warm-up verify", (verify_call("corollary1", 3),)),
            Op("warm-up check-file", (check_file_call(str(path), verdict),))]
