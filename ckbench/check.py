"""Known-answer checks of what the program prints.

Nothing here calls the program for an answer.  Verdicts come from the
workload definitions; the Legendre invariants are computed here in
Fractions from their closed forms, and printed rational functions are
evaluated by the small evaluator below, not by the program's parser.
"""
from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Optional

VERDICT_EXIT = {"PASS": 0, "FAIL": 1, "INCONCLUSIVE": 2}
STABILITY_EXIT = {"STABLE": 0, "UNSTABLE": 1, "INCONCLUSIVE": 2}
_SEVERITY = {"PASS": 0, "INCONCLUSIVE": 1, "FAIL": 2}
CERTIFIED_CLAIMS = ("theorem1", "corollary1")

# Points at which printed rational functions of one variable are compared
# with the closed forms.  The curve invariants have numerator and
# denominator of degree at most 8, so agreement at 17 points is equality.
_SAMPLE_POINTS = range(3, 20)


# ---------------------------------------------------------------------------
# closed forms

def legendre(lam: Fraction):
    """(discriminant, j) of y^2 = x(x-1)(x-lam); j is None when singular."""
    disc = 16 * lam ** 2 * (lam - 1) ** 2
    if disc == 0:
        return disc, None
    return disc, 256 * (lam ** 2 - lam + 1) ** 3 / (lam ** 2 * (lam - 1) ** 2)


def modulus_lambda(b) -> Fraction:
    return Fraction(b - 2, b + 2)


# ---------------------------------------------------------------------------
# evaluator for printed scalars: integers, names, + - * / ^ and parentheses

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_]\w*)|(.))")


def evaluate(text: str, env: dict) -> Fraction:
    """Value of a printed scalar expression with names bound by env."""
    tokens = []
    for num, name, op in _TOKEN.findall(text.strip()):
        tokens.append(("num", int(num)) if num else
                      ("name", name) if name else ("op", op))
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else ("end", None)

    def take():
        nonlocal pos
        pos += 1
        return tokens[pos - 1]

    def expr():
        value = term()
        while peek() in (("op", "+"), ("op", "-")):
            value = value + term() if take()[1] == "+" else value - term()
        return value

    def term():
        value = unary()
        while peek() in (("op", "*"), ("op", "/")):
            value = value * unary() if take()[1] == "*" else value / unary()
        return value

    def unary():
        if peek() == ("op", "-"):
            take()
            return -unary()
        return power()

    def power():
        value = atom()
        if peek() == ("op", "^"):
            take()
            kind, exponent = take()
            if kind != "num":
                raise ValueError(f"bad exponent in {text!r}")
            value = value ** exponent
        return value

    def atom():
        kind, value = take()
        if kind == "num":
            return Fraction(value)
        if kind == "name" and value in env:
            return Fraction(env[value])
        if (kind, value) == ("op", "("):
            inner = expr()
            if take() != ("op", ")"):
                raise ValueError(f"unbalanced parentheses in {text!r}")
            return inner
        raise ValueError(f"unexpected {value!r} in {text!r}")

    value = expr()
    if pos != len(tokens):
        raise ValueError(f"trailing input in {text!r}")
    return value


# ---------------------------------------------------------------------------
# per-call checks

def _worst(verdicts) -> str:
    return max(verdicts, key=_SEVERITY.__getitem__)


def _curve_problems(curve, var: Optional[str], lam_at) -> list:
    """Compare printed (lambda, discriminant, j, singular) with the closed
    forms.  var is the printed variable (None for a concrete curve) and
    lam_at maps a sample value of it to lambda."""
    if not isinstance(curve, dict):
        return ["missing curve"]
    points = [None] if var is None else _SAMPLE_POINTS
    problems = []
    for x in points:
        env = {} if var is None else {var: x}
        lam = lam_at(x)
        disc, j = legendre(lam)
        try:
            got = [evaluate(curve["lambda"], env),
                   evaluate(curve["discriminant"], env),
                   None if curve["j"] is None else evaluate(curve["j"], env)]
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            return [f"unreadable curve data: {exc}"]
        if got != [lam, disc, j]:
            where = "" if var is None else f" at {var} = {x}"
            problems.append(f"curve {got} != closed form {[lam, disc, j]}"
                            f"{where}")
            break
    singular = var is None and lam_at(None) in (0, 1)
    if curve.get("singular") is not singular:
        problems.append(f"singular is {curve.get('singular')}, "
                        f"expected {singular}")
    return problems


def check_verify(call, rc: int, out: str):
    """Problems with one verify call's JSON report, and whether its verdict
    was INCONCLUSIVE."""
    try:
        doc = json.loads(out)
    except ValueError:
        return ["report is not JSON"], False
    if not isinstance(doc, dict):
        return ["report is not a JSON object"], False
    verdict = doc.get("verdict")
    problems = []
    expected = {"claim": call.claim, "b": call.b,
                "mode": "symbolic" if call.b is None else "concrete"}
    for key, value in expected.items():
        if doc.get(key) != value:
            problems.append(f"{key} is {doc.get(key)!r}, expected {value!r}")
    if verdict not in call.verdicts:
        problems.append(f"verdict {verdict}, expected one of "
                        f"{sorted(call.verdicts)}")
    if rc != VERDICT_EXIT.get(verdict):
        problems.append(f"exit code {rc} for verdict {verdict}")
    steps = doc.get("steps") or []
    step_verdicts = [s.get("verdict") for s in steps]
    if not steps or not set(step_verdicts) <= set(VERDICT_EXIT):
        problems.append("missing or unknown step verdicts")
    elif _worst(step_verdicts) != verdict:
        problems.append(f"verdict {verdict} disagrees with its steps")
    if call.claim in CERTIFIED_CLAIMS:
        for s in steps:
            if s.get("verdict") == "PASS" and \
                    not isinstance(s.get("certificate"), list):
                problems.append(f"step {s.get('name')} passed without a "
                                "certificate")
    if call.claim == "corollary1":
        if call.b is None:
            problems += _curve_problems(doc.get("curve"), "b", modulus_lambda)
        else:
            problems += _curve_problems(doc.get("curve"), None,
                                        lambda _: modulus_lambda(call.b))
    elif call.claim == "lemma5" and call.b is None:
        problems += _curve_problems(doc.get("curve"), "a", Fraction)
    return problems, verdict == "INCONCLUSIVE"


_RELATION_LINE = re.compile(r"^r\d+ \[.*\]: (MEMBER|NON_MEMBER|INCONCLUSIVE)$")


def check_stability(call, rc: int, out: str):
    """Problems with one check-file call's output, and whether its verdict
    was INCONCLUSIVE."""
    lines = out.splitlines()
    if not lines or not lines[-1].startswith("verdict: "):
        return ["no verdict line"], False
    verdict = lines[-1][len("verdict: "):]
    problems = []
    if verdict != call.stability:
        problems.append(f"verdict {verdict}, expected {call.stability}")
    if rc != STABILITY_EXIT.get(verdict):
        problems.append(f"exit code {rc} for verdict {verdict}")
    kinds = []
    for line in lines[:-1]:
        m = _RELATION_LINE.match(line)
        if not m:
            problems.append(f"unreadable line {line!r}")
            break
        kinds.append(m.group(1))
    if not kinds:
        problems.append("no relation lines")
    elif verdict == "STABLE" and set(kinds) != {"MEMBER"}:
        problems.append("STABLE with a relation that is not a MEMBER")
    elif verdict == "UNSTABLE" and "NON_MEMBER" not in kinds:
        problems.append("UNSTABLE without a NON_MEMBER relation")
    return problems, verdict == "INCONCLUSIVE"


def check_call(call, rc: int, out: str):
    if call.stability is not None:
        return check_stability(call, rc, out)
    return check_verify(call, rc, out)
