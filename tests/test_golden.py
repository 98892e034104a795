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
    # the concrete commutative chain: at b = 2 the parameter is 0, the first
    # pullback factor is 0 and the curve is singular
    (["verify", "lemma5", "--b", "2"], 0,
     "e4453c9eeabe14397db2de986dd384361ceaae8c55efdb0a056ffbfdfa1cd9f5"),
    (["verify", "lemma5", "--b", "7"], 0,
     "a67e2d230c0ac379ed46a40ff02f5ae863da11e9c26b9811885c26783a5a08ba"),
    # short bounded spans over Q(b): two targets of each direction stay
    # open, so these pin the open-target path of the point pass
    (["verify", "theorem1", "--symbolic", "--wrapper-len", "0"], 2,
     "390f2eae6141e67eb16f72e3150694eebae312cc6c00583a5713b799594d13a5"),
    (["verify", "theorem1", "--symbolic", "--wrapper-len", "1"], 2,
     "e5abbb90fa0fb6f80fbce01454e0e2a1260baa1b739c89e39ec3544313b514b1"),
    (["verify", "corollary1", "--symbolic", "--wrapper-len", "0"], 2,
     "5dade15295882c731b6fb21d913b735853d88116c2a58a54d0ed943667ed3490"),
    (["verify", "corollary1", "--symbolic", "--wrapper-len", "1"], 2,
     "244c3528b7f062a4e62e67364adb5772feae73153bbab43b213e18fe8864e27f"),
]

# The symbolic certificates have poles at b = 2 and 3, so the elimination at
# those moduli cannot follow the symbolic one step for step; the runs at
# b = 2, 3 above and this sweep pin the output there and on either side.
SWEEP_ARGV = ["sweep", "--from", "2", "--to", "8", "--format", "json"]
SWEEP_GOLDEN = (2,
                "1388486ad0cf962308be57e7b6f4ef8e05c6cd33090b74ea0866ae48a71fc69f")

# The same CLI in text format, with certificates: a dict of engine
# certificates (lemma1 at b = 7), dicts of certificate lists (lemma2), lists
# of ints (lemma5) and one certificate per step (theorem1 at b = 3); the
# singular curve with j undefined (corollary1 at b = 2), the symbolic curve,
# a stability step beside a two-way membership step (lemma4), and the detail
# of a step left without a certificate (theorem1 at b = 2).  The sweep table
# covers the text rows of the same moduli as SWEEP_ARGV.
TEXT_GOLDEN = [
    (["verify", "lemma1", "--b", "7", "--certificates"], 0,
     "2e3250c067ba470a527303fb284eb58d23dfb71b2c3a10ff8113192789559623"),
    (["verify", "lemma2", "--symbolic", "--certificates"], 0,
     "35962fa6904ca394fc5701ac30146304a4815102730fdabe5475dab3c3b0a0a7"),
    (["verify", "lemma5", "--symbolic", "--certificates"], 0,
     "64c53ba00752189b595a1711ae4e72f30a6a2c540939711f88b0fcd8e7bee414"),
    (["verify", "theorem1", "--b", "3", "--certificates"], 0,
     "9d718f2161e353582899c988f50fa86e3512b176b1348a8d1d88aa0ee80f6c3b"),
    (["verify", "corollary1", "--b", "2", "--certificates"], 0,
     "88e0d5624bca9752d64eb6c16ae494b1a2ed03cbf963ed8ba352763b69dadc18"),
    (["verify", "corollary1", "--symbolic"], 0,
     "faa24148d0307863001de7ff50e5a2c7cb6b3feb31e8c35e17a0e6e804e73c59"),
    (["verify", "lemma4", "--symbolic", "--certificates"], 0,
     "27eaa37f5c86906d71a55fe6dcc9fff39fed48debcaa89b1270974db15284a53"),
    (["verify", "theorem1", "--b", "2"], 2,
     "27c2e5108cbf375748808269b42861dc97f28852f25cb06499ebf8683f1ab74a"),
    (["sweep", "--from", "2", "--to", "8"], 2,
     "2ed44eb62800d05d2ead613f27e4a5657aae983d4113f8a3e20cbf7b71852c2b"),
]

# check-file on printed presentations: the exchange system takes the bounded
# path (its unit relation is inhomogeneous), the six quadratic relations the
# graded path.
FILE_GOLDEN = [
    (lambda: cuntz_krieger(CKMatrix.for_modulus(7)), 0,
     "2b9c9361d679a1ec717a25ed376251bde0bfb3092d1a2563fa4c2dbc9f26c2fa"),
    (lambda: sklyanin(SklyaninParams.of(Fraction(1, 5), 1, -1)), 0,
     "bf48f2fadeee48949769fdd6ed68c750067ac038d9930bd0717595ad66cd961f"),
]


# check-file on hand-written files with named parameters: these pin the
# printed form of a coefficient in one name (a sign, a rational factor,
# parentheses) and of one in two names, which has no canonical form.  The
# six-name lemma1 file mixes relations inside each pair, so that one
# coefficient carries both a name and a constant.
LEMMA1_MIXED = """\
GENERATORS: x1 x2 x3 x4
PARAMS: alpha~alphabar beta~betabar gamma~gammabar
INVOLUTION: x1 -> x2; x2 -> x1; x3 -> x4; x4 -> x3
RELATIONS:
  (17/7)*x1*x2 + (11/7)*x2*x1 + (-3/7*alpha - 2)*x3*x4 + (-3/7*alpha + 2)*x4*x3
  (-5/3)*x1*x2 + (-5/3)*x2*x1 + (5/3)*x3*x4 + (-5/3)*x4*x3
  (-3/2)*x1*x3 + (-7/2)*x3*x1 + (-beta + 5/2)*x4*x2 + (-beta - 5/2)*x2*x4
  (2)*x1*x3 + (2)*x3*x1 + (-2)*x4*x2 + (2)*x2*x4
  (-4/9)*x1*x4 + (4/9)*x4*x1 + (4/9*gamma)*x2*x3 + (4/9*gamma)*x3*x2
  x1*x4 + x4*x1 - x2*x3 + x3*x2
"""

# The same relations at beta = 1 and gamma = -1, with alpha self-conjugate.
LEMMA1_MIXED_IDENTIFIED = """\
GENERATORS: x1 x2 x3 x4
PARAMS: alpha alphabar beta~betabar gamma~gammabar
INVOLUTION: x1 -> x2; x2 -> x1; x3 -> x4; x4 -> x3
RELATIONS:
  (17/7)*x1*x2 + (11/7)*x2*x1 + (-3/7*alpha - 2)*x3*x4 + (-3/7*alpha + 2)*x4*x3
  (-5/3)*x1*x2 + (-5/3)*x2*x1 + (5/3)*x3*x4 + (-5/3)*x4*x3
  (-3/2)*x1*x3 + (-7/2)*x3*x1 + (-1 + 5/2)*x4*x2 + (-1 - 5/2)*x2*x4
  (2)*x1*x3 + (2)*x3*x1 + (-2)*x4*x2 + (2)*x2*x4
  (-4/9)*x1*x4 + (4/9)*x4*x1 + (-4/9)*x2*x3 + (-4/9)*x3*x2
  x1*x4 + x4*x1 - x2*x3 + x3*x2
"""

# Q(a) with a formal conjugate: denominators in a, an inhomogeneous
# relation (the bounded search stays open, exit 2), and a two-name
# quotient that is never reduced: it prints as (abar^2-a^2)/(abar-a).
QA_FILE = """\
GENERATORS: x1 x2 x3 x4
PARAMS: a~abar
INVOLUTION: x1 -> x2; x2 -> x1; x3 -> x4; x4 -> x3
RELATIONS:
  1/(a+1)*x1*x2 - x3*x4 + (2*a^2-3)/(5*a)*x2*x1 - a/4*x4*x4
  x1*x1 = 1/(a-1)
  (a^2-abar^2)/(a-abar)*x2*x3 + x4*x1 + (1-a)/(a^2+1)*x3*x3
"""

PARAM_FILE_GOLDEN = [
    (LEMMA1_MIXED, 1,
     "3f78b31c9632eb1f3dbedbed73e0e84680f8bd06f59e4daa9cebed628077ad38"),
    (LEMMA1_MIXED_IDENTIFIED, 0,
     "97c24c8587be96b058df1f8334b24a2514c7b77ed717e07b0b524e8bb03c8386"),
    (QA_FILE, 2,
     "42b5769a06ef9bac23c1b5c0ea922199fc3990268c92c35c5989220d0fdd8c96"),
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


@pytest.mark.filterwarnings("ignore:alpha in")
@pytest.mark.parametrize("argv,code,digest", TEXT_GOLDEN,
                         ids=[" ".join(a) for a, _, _ in TEXT_GOLDEN])
def test_text_golden(argv, code, digest, capsys):
    assert _run(argv, capsys) == (code, digest)


@pytest.mark.parametrize("build,code,digest", FILE_GOLDEN,
                         ids=["exchange_b7", "sklyanin_one_fifth"])
def test_check_file_golden(build, code, digest, tmp_path, capsys):
    path = tmp_path / "presentation.txt"
    path.write_text(print_presentation(build()), encoding="utf-8")
    argv = ["check-file", str(path), "--involution-stability"]
    assert _run(argv, capsys) == (code, digest)


@pytest.mark.parametrize("text,code,digest", PARAM_FILE_GOLDEN,
                         ids=["lemma1_mixed", "lemma1_mixed_identified",
                              "qa_conjugate_pair"])
def test_check_file_param_golden(text, code, digest, tmp_path, capsys):
    path = tmp_path / "presentation.txt"
    path.write_text(text, encoding="utf-8")
    argv = ["check-file", str(path), "--involution-stability"]
    assert _run(argv, capsys) == (code, digest)
