"""Certificate audit, run after the timed passes.

Every certificate theorem1 and corollary1 print is read back with the
program's public parser and re-expanded here, against the relations that
the public `modulus_family` builds: the sum of coefficient * (left *
relation * right) must equal the step's target relation.  The expansion
itself is this file's own dictionary arithmetic; concrete moduli use plain
Fractions, symbolic ones the program's Coefficient field.
"""
from __future__ import annotations

import json
import re
import time
import warnings

from workloads import GENERATORS

_STEP = re.compile(r"^(sk|ck)_r(\d+)_in_(ck|sk)$")
_GEN_INDEX = {g: i for i, g in enumerate(GENERATORS)}


def _word(text: str) -> tuple:
    return () if text == "1" else tuple(_GEN_INDEX[g] for g in text.split("*"))


def _scalar(coeff, concrete: bool):
    """A printed or built scalar as the audit computes with it."""
    return coeff.as_fraction() if concrete else coeff


def _nth(relations: list, number: int) -> dict:
    """The relation a 1-based printed number names."""
    if not 1 <= number <= len(relations):
        raise IndexError(f"no relation r{number}")
    return relations[number - 1]


class Auditor:
    """Re-expands printed certificates; `reexpand_s` sums the time spent in
    the re-expansions alone, not in parsing or building relations."""

    def __init__(self, presentations, parser):
        self._family = presentations.modulus_family
        self._parse_expr = parser.parse_expr
        self._families: dict = {}
        self._scalars: dict = {}
        self.reexpand_s = 0.0

    def _relations(self, b, with_omega: bool):
        """P's and Q's relations as lists of word -> scalar dicts."""
        key = (b, with_omega)
        if key not in self._families:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                p, q = self._family(b, with_omega=with_omega)
            concrete = b is not None
            self._families[key] = {
                side: [{w: _scalar(c, concrete)
                        for w, c in rel.terms.items()}
                       for rel in pres.relations]
                for side, pres in (("sk", p), ("ck", q))}
        return self._families[key]

    def _parse_scalar(self, text: str, b):
        key = (text, b is None)
        if key not in self._scalars:
            params = () if b is not None else ("b",)
            poly = self._parse_expr(text, GENERATORS, params)
            if set(poly.terms) - {()}:
                raise ValueError(f"coefficient {text!r} is not a scalar")
            value = poly.terms.get(())
            self._scalars[key] = 0 if value is None \
                else _scalar(value, b is not None)
        return self._scalars[key]

    def audit(self, call, out: str) -> list:
        """Problems found in the certificates of one verify report."""
        if call.claim not in ("theorem1", "corollary1"):
            return []
        try:
            steps = json.loads(out)["steps"]
        except (ValueError, KeyError, TypeError):
            return ["report has no readable steps"]
        rels = self._relations(call.b, call.claim == "corollary1")
        problems = []
        for step in steps:
            cert = step.get("certificate")
            if cert is None:
                continue
            m = _STEP.match(step["name"])
            if not m:
                problems.append(f"certificate on unknown step {step['name']}")
                continue
            source, index, other = m.group(1), int(m.group(2)), m.group(3)
            try:
                target = _nth(rels[source], index)
                entries = [(_word(e["left"]), _nth(rels[other], e["relation"]),
                            _word(e["right"]),
                            self._parse_scalar(e["coefficient"], call.b))
                           for e in cert]
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                problems.append(f"{step['name']}: unreadable certificate "
                                f"({exc!r})")
                continue
            if not self._reexpands(entries, target):
                problems.append(f"{step['name']}: certificate does not "
                                "re-expand to its target")
        return problems

    def _reexpands(self, entries, target: dict) -> bool:
        start = time.perf_counter()
        acc: dict = {}
        for left, rel, right, coeff in entries:
            for w, c in rel.items():
                key = left + w + right
                acc[key] = acc.get(key, 0) + coeff * c
        for w, c in target.items():
            acc[w] = acc.get(w, 0) - c
        ok = not any(acc.values())
        self.reexpand_s += time.perf_counter() - start
        return ok
