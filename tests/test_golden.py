"""Golden output: the sha256 of stdout and the exit code of fixed CLI runs.

The determinism checks elsewhere compare two runs of the same code.  These
digests pin the bytes across versions of the code: certificate entries,
their order, and the printed form of the coefficients (which for the
six-parameter lemma1 scan depends on the order of operations, since those
coefficients have no canonical form).  A change to any digest is a change
to the tool's output and must be deliberate.
"""
from __future__ import annotations

import hashlib
from fractions import Fraction

import pytest

from ckverify.cli import main
from ckverify.parser import print_presentation
from ckverify.presentations import (CKMatrix, SklyaninParams, cuntz_krieger,
                                    sklyanin)

_CERT_JSON = ["--certificates", "--format", "json"]

VERIFY_GOLDEN = [
    (["verify", "lemma1", "--symbolic"], 0,
     "f305c5726f9b97b5fbc29e34ca8ee6b96f0a2835021a34eafb923194abdc35d9"),
    (["verify", "lemma2", "--symbolic"], 0,
     "ba0ebd1d0b3e4c53f95bf7da4b413f659cdf5749b78054e26813e68bc6a285e8"),
    (["verify", "lemma4", "--symbolic"], 0,
     "420ee2ba6430b7db7de721c3dd01ac8c3954c0694863988d419629704bda8f50"),
    (["verify", "lemma5", "--symbolic"], 0,
     "b5894f0fa4999e8edac7612b77d9ce344c8355d40fd23d31ea590b49f95ca9b2"),
    (["verify", "theorem1", "--symbolic"], 0,
     "238b1c3e035ec91c570be38e9fdec87083d24ec9c2c57b964f1b14e68df1b24b"),
    (["verify", "corollary1", "--symbolic"], 0,
     "448c267ce66edd60c34ea0cd6366f2f8a418620a2c6e7620ff72312aa267cd8c"),
    (["verify", "theorem1", "--b", "7"], 0,
     "e4c0e458e9757c6b9488f45f32a197bd1828b547a90d27e8b300cca7aebb5c42"),
    (["verify", "corollary1", "--b", "7"], 0,
     "67c22eda6429502ae4fb8490a803720153f18ebff7bf04b787609b5cae9459b5"),
    (["verify", "theorem1", "--b", "2"], 2,
     "802884baf1d6a257ed6bbf6e5781043cc97a430f74f088c4bad51ffe68de8b7f"),
    (["verify", "theorem1", "--b", "3"], 0,
     "e33e95b978eecd8e6aeb3ab310026a74519be9053a23058a97baf2699b306870"),
    (["verify", "corollary1", "--b", "2"], 0,
     "4545446d9bac30ea6b50b776b16f2a37ab9704b7422ae759f9748f1ee3a98fcb"),
    (["verify", "corollary1", "--b", "3"], 0,
     "bb2ffbc3c9fc59f9f6faa1771550d5a7898552efc127a78fe8f6600e839a517e"),
]

# The symbolic certificates have poles at b = 2 and 3, so the elimination at
# those moduli cannot follow the symbolic one step for step; the runs at
# b = 2, 3 above and this sweep pin the output there and on either side.
SWEEP_ARGV = ["sweep", "--from", "2", "--to", "8", "--format", "json"]
SWEEP_GOLDEN = (2,
                "1388486ad0cf962308be57e7b6f4ef8e05c6cd33090b74ea0866ae48a71fc69f")

# check-file on printed presentations: the exchange system takes the bounded
# path (its unit relation is inhomogeneous), the six quadratic relations the
# graded path.
FILE_GOLDEN = [
    (lambda: cuntz_krieger(CKMatrix.for_modulus(7)), 0,
     "2b9c9361d679a1ec717a25ed376251bde0bfb3092d1a2563fa4c2dbc9f26c2fa"),
    (lambda: sklyanin(SklyaninParams.of(Fraction(1, 5), 1, -1)), 0,
     "bf48f2fadeee48949769fdd6ed68c750067ac038d9930bd0717595ad66cd961f"),
]


def _run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, hashlib.sha256(out.encode("utf-8")).hexdigest()


@pytest.mark.filterwarnings("ignore:alpha in")
@pytest.mark.parametrize("argv,code,digest", VERIFY_GOLDEN,
                         ids=[" ".join(a[1:]) for a, _, _ in VERIFY_GOLDEN])
def test_verify_golden(argv, code, digest, capsys):
    assert _run(argv + _CERT_JSON, capsys) == (code, digest)


@pytest.mark.filterwarnings("ignore:alpha in")
def test_sweep_golden(capsys):
    assert _run(SWEEP_ARGV, capsys) == SWEEP_GOLDEN


@pytest.mark.parametrize("build,code,digest", FILE_GOLDEN,
                         ids=["exchange_b7", "sklyanin_one_fifth"])
def test_check_file_golden(build, code, digest, tmp_path, capsys):
    path = tmp_path / "presentation.txt"
    path.write_text(print_presentation(build()), encoding="utf-8")
    argv = ["check-file", str(path), "--involution-stability"]
    assert _run(argv, capsys) == (code, digest)
