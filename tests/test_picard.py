import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldp import linalg
from ldp import picard as P
from ldp.graphs import NotNegativeDefiniteError, dynkin_matrix

SRC = Path(__file__).resolve().parents[1] / "src"

SIX = ("L_ac", "L_bd", "F_a", "F_b", "F_c", "F_d")


@pytest.fixture(scope="module")
def base():
    return P.preset_2A4()


@pytest.fixture(scope="module")
def res24():
    return P.preset_resolution("[2,4]")


@pytest.fixture(scope="module")
def res3():
    return P.preset_resolution("[3]")


def test_canonical_selfint(base):
    k = base.canonical
    assert k.dot(k) == 1


def test_signature_diagonal(base):
    h = base.unit("H")
    e = base.unit("e_a")
    assert h.dot(h) == 1
    assert e.dot(e) == -1
    assert h.dot(e) == 0


def test_contracted_curves_match_declared_graph(base, res3, res24):
    for lat in (base, res3, res24):
        classes = lat.contracted_classes()
        gram = [[a.dot(b) for b in classes] for a in classes]
        assert gram == dynkin_matrix(lat.contracted_type)


def test_exceptional_chain_intersections(base):
    assert base.curve("E_a").dot(base.curve("L_ad")) == 1
    assert base.curve("L_ac").dot(base.curve("L_bd")) == 1
    assert base.curve("E_a").dot(base.curve("E_c")) == 0


def test_resolution_selfints(res3, res24):
    assert res3.curve("C_2").dot(res3.curve("C_2")) == -3
    c2, g1, g2 = (res24.curve(n) for n in ("C_2", "G_1", "G_2"))
    assert (c2.dot(c2), g1.dot(g1), g2.dot(g2)) == (-4, -2, -1)
    assert c2.dot(g2) == 1
    assert g1.dot(g2) == 1


def test_sixteen_intersection_numbers(res24):
    c2, g1, g2 = (res24.curve(n) for n in ("C_2", "G_1", "G_2"))
    minus_k = -1 * res24.canonical
    for name in SIX:
        x = res24.curve(name)
        assert c2.dot(x) == 1
        assert g1.dot(x) == 0
        assert P.mumford_pairing(res24, minus_k, x) == Fraction(3, 7)
    assert P.mumford_pairing(res24, minus_k, g2) == Fraction(1, 7)


def test_pullback_of_g2(res24):
    g1, g2, c2 = (res24.curve(n) for n in ("G_1", "G_2", "C_2"))
    pb = P.pullback_weil(res24, g2)
    assert pb == g2 + Fraction(5, 7) * g1 + Fraction(3, 7) * c2


def test_pullback_orthogonal_to_contracted(res24):
    pb = P.pullback_weil(res24, res24.curve("L_ab") + 2 * res24.curve("G_2"))
    for cls in res24.contracted_classes():
        assert pb.dot(cls) == 0


def test_zero_sum_pullbacks_have_no_c2_g1_corrections(res24):
    from ldp import linalg

    # every zero-sum combination of the six sections pulls back with zero
    # corrections along C_2 and G_1 (each single curve contributes the same
    # 2/7 and 1/7, so they cancel)
    cls = (
        2 * res24.curve("L_ac")
        - res24.curve("F_b")
        + res24.curve("F_c")
        - 2 * res24.curve("L_bd")
    )
    classes = res24.contracted_classes()
    gram = [[x.dot(y) for y in classes] for x in classes]
    corr = linalg.solve(gram, [-cls.dot(c) for c in classes])
    by_name = dict(zip(res24.contracted, corr))
    assert by_name["C_2"] == 0
    assert by_name["G_1"] == 0


def test_pullback_fixes_orthogonal_classes(base):
    # K is not orthogonal, but E_a - E_c pairs to zero with both chains? No:
    # use the zero class, which is trivially orthogonal
    z = base.zero()
    assert P.pullback_weil(base, z) == z


def test_round_up_of_pullback(res24):
    g1, g2, c2 = (res24.curve(n) for n in ("G_1", "G_2", "C_2"))
    pb = P.pullback_weil(res24, g2)
    assert P.round_up(res24, pb, ["C_2", "G_1", "G_2"]) == g2 + g1 + c2


def test_round_up_integral_class_unchanged(res24):
    cls = res24.curve("L_ab")
    assert P.round_up(res24, cls, ["C_2", "G_1"]) == cls


def test_round_up_negative_coefficient():
    lat = P.preset_resolution("[2,4]")
    cls = Fraction(-3, 7) * lat.curve("C_2")
    out = P.round_up(lat, cls, ["C_2"])
    assert out == lat.zero()


def test_round_up_rejects_nonprimitive_support(base):
    # the two contracted chains span a sublattice of index 5
    pb = P.pullback_weil(base, P.DivisorClass.make(base.basis, [3] + [-1] * 8))
    with pytest.raises(P.AmbiguousSupportError):
        P.round_up(base, pb, base.contracted)


def test_ceil_pullback_handles_nonprimitive_support(base):
    import math

    from ldp import linalg

    a = P.DivisorClass.make(base.basis, [3] + [-1] * 8)
    classes = base.contracted_classes()
    gram = [[x.dot(y) for y in classes] for x in classes]
    corr = linalg.solve(gram, [-a.dot(c) for c in classes])
    expected = a
    for c, curve in zip(corr, classes):
        expected = expected + math.ceil(c) * curve
    out = P.ceil_pullback(base, a)
    assert out == expected
    assert out.is_integral()


def test_round_up_undecomposable(res24):
    with pytest.raises(P.AmbiguousSupportError):
        P.round_up(res24, Fraction(1, 2) * res24.unit("H"), ["C_2"])


def test_chi_examples(base):
    assert P.chi_riemann_roch(base, base.zero()) == 1
    assert P.chi_riemann_roch(base, -1 * base.canonical) == 2
    with pytest.raises(P.NonIntegralClassError):
        P.chi_riemann_roch(base, Fraction(1, 2) * base.unit("H"))


# -- the integer normal form of DivisorClass against a tuple of Fractions ---------

BASIS4 = ("H", "e_1", "e_2", "e_3")
rationals = st.builds(
    Fraction, st.integers(-30, 30), st.integers(1, 12)
) | st.integers(-30, 30).map(Fraction)
coeff_tuples = st.tuples(*[rationals] * len(BASIS4))
scalars = st.integers(-6, 6) | rationals


def _model_repr(coeffs):
    bits = [
        f"{c}*{name}" if c != 1 else name for name, c in zip(BASIS4, coeffs) if c
    ]
    return " + ".join(bits) if bits else "0"


def _assert_normal(cls, coeffs):
    assert cls.coeffs == tuple(coeffs)
    assert all(type(c) is Fraction for c in cls.coeffs)
    assert cls.den > 0 and math.gcd(cls.den, *cls.nums) == 1
    assert all(type(x) is int for x in cls.nums)
    assert cls.is_integral() == all(c.denominator == 1 for c in coeffs)
    assert repr(cls) == _model_repr(coeffs)
    for name, c in zip(BASIS4, coeffs):
        assert cls.coefficient(name) == c


@settings(max_examples=200, deadline=None)
@given(coeff_tuples, coeff_tuples, scalars)
def test_divisor_class_arithmetic_matches_a_fraction_model(x, y, k):
    a, b = P.DivisorClass.make(BASIS4, x), P.DivisorClass.make(BASIS4, y)
    _assert_normal(a, x)
    _assert_normal(a + b, [p + q for p, q in zip(x, y)])
    _assert_normal(a - b, [p - q for p, q in zip(x, y)])
    _assert_normal(-a, [-p for p in x])
    _assert_normal(a * k, [p * k for p in x])
    _assert_normal(k * a, [k * p for p in x])
    dot = a.dot(b)
    assert type(dot) is Fraction
    assert dot == x[0] * y[0] - sum(p * q for p, q in zip(x[1:], y[1:]))
    # one value reached two ways is one class: equal, and hashed alike
    again = (a + b) - b
    assert again == a and hash(again) == hash(a)
    scaled = (a * 6) * Fraction(1, 6)
    assert scaled == a and hash(scaled) == hash(a)
    assert ((a - a) == P.DivisorClass.make(BASIS4, [0] * 4)) and (a - a).den == 1


# -- the shared pullback core against a dense solve ------------------------------


def dense_pullback(lat, cls, names, rounding=None):
    """cls plus the correction linalg.solve finds along the named curves."""
    classes = [lat.curve(n) for n in names]
    gram = [[x.dot(y) for y in classes] for x in classes]
    corr = linalg.solve(gram, [-cls.dot(c) for c in classes])
    out = cls
    for c, curve in zip(corr, classes):
        out = out + (rounding(c) if rounding else c) * curve
    return out


@pytest.mark.parametrize("preset", ["2A4", "[3]", "[2,4]"])
def test_pullbacks_match_a_dense_solve(preset):
    lat = P.preset_2A4() if preset == "2A4" else P.preset_resolution(preset)
    rng = random.Random(preset)
    names = sorted(lat.named_curves)
    for _ in range(40):
        cls = lat.zero()
        for name in rng.sample(names, 3):
            cls = cls + rng.randint(-3, 3) * lat.curve(name)
        for name in rng.sample(lat.basis, 2):
            cls = cls + rng.randint(-3, 3) * lat.unit(name)
        # a random nonempty subset of the contracted curves, in random order
        subset = rng.sample(lat.contracted, rng.randint(1, len(lat.contracted)))
        curves = None if len(subset) == len(lat.contracted) else subset
        expected = dense_pullback(lat, cls, curves or lat.contracted)
        assert P.pullback_weil(lat, cls, curves) == expected
        assert P.ceil_pullback(lat, cls, curves) == dense_pullback(
            lat, cls, curves or lat.contracted, math.ceil
        )


def _leading_minors_alternate(gram):
    """Negative definite by Sylvester's criterion: the k-th leading minor,
    by linalg.int_det, has the sign of (-1)^k for every k."""
    return all(
        (-1) ** k * linalg.int_det([row[:k] for row in gram[:k]]) > 0
        for k in range(1, len(gram) + 1)
    )


@pytest.mark.parametrize("preset", ["2A4", "[3]", "[2,4]"])
def test_compiled_contraction_matches_int_det_and_sylvester(preset):
    lat = P.preset_2A4() if preset == "2A4" else P.preset_resolution(preset)
    rng = random.Random(f"contraction:{preset}")
    names = sorted(lat.named_curves)
    definite = 0
    for _ in range(60):
        classes = tuple(lat.curve(n) for n in rng.sample(names, rng.randint(1, 8)))
        gram = [[int(x.dot(y)) for y in classes] for x in classes]
        if not _leading_minors_alternate(gram):
            with pytest.raises(NotNegativeDefiniteError):
                P._contraction(classes)
            continue
        definite += 1
        con = P._contraction(classes)
        assert [list(row) for row in con.gram] == gram
        assert con.det == linalg.int_det(gram)
        k = len(gram)
        product = [
            [sum(gram[i][m] * con.adjugate[m][j] for m in range(k)) for j in range(k)]
            for i in range(k)
        ]
        assert product == [[con.det * (i == j) for j in range(k)] for i in range(k)]
    assert 0 < definite < 60  # both branches are reached


def test_non_integral_contracted_classes_pull_back_like_a_dense_solve(res24):
    # C_2 / 2 and G_1 / 3 stand in for C_2 and G_1: the same span, other scales
    named = dict(res24.named_curves)
    named["C_2/2"] = Fraction(1, 2) * res24.curve("C_2")
    named["G_1/3"] = Fraction(1, 3) * res24.curve("G_1")
    lat = P.BlowupLattice(
        res24.basis, res24.canonical, named, res24.contracted, res24.contracted_type
    )
    swap = {"C_2": "C_2/2", "G_1": "G_1/3"}
    rng = random.Random("non-integral")
    names = sorted(res24.named_curves)
    for _ in range(30):
        cls = lat.zero()
        for name in rng.sample(names, 3):
            cls = cls + rng.randint(-3, 3) * lat.curve(name)
        cls = cls + Fraction(rng.randint(-3, 3), rng.randint(1, 4)) * lat.unit("H")
        subset = rng.sample(lat.contracted, rng.randint(1, len(lat.contracted)))
        if not swap.keys() & set(subset):
            subset.append("C_2")
        subset = [swap.get(n, n) for n in subset]
        assert P.pullback_weil(lat, cls, subset) == dense_pullback(lat, cls, subset)
        assert P.ceil_pullback(lat, cls, subset) == dense_pullback(
            lat, cls, subset, math.ceil
        )


def test_an_empty_curve_list_pulls_back_along_nothing(res24):
    # [] names no curve; only None means every contracted curve
    g2 = res24.curve("G_2")
    assert P.pullback_weil(res24, g2, []) == g2
    assert P.ceil_pullback(res24, g2, []) == g2
    assert P.pullback_weil(res24, g2) != g2


def test_rebuilt_lattices_share_one_compiled_contraction():
    a, b = P.preset_resolution("[2,4]"), P.preset_resolution("[2,4]")
    assert a is not b
    assert P._contraction(tuple(a.contracted_classes())) is P._contraction(
        tuple(b.contracted_classes())
    )


def test_non_definite_curves_raise_on_every_call(base):
    # L_ac and L_bd have Gram [[-1, 1], [1, -1]], of determinant 0
    cls = base.unit("H")
    for _ in range(2):  # a failed build must not be cached as a success
        with pytest.raises(NotNegativeDefiniteError):
            P.pullback_weil(base, cls, ["L_ac", "L_bd"])
        with pytest.raises(NotNegativeDefiniteError):
            P.ceil_pullback(base, cls, ["L_ac", "L_bd"])


# Each case swaps one name for a fake that breaks an invariant, then calls the
# code that must notice.  Under -O a plain assert would not fire.
_BROKEN_INVARIANTS = """
import json, math, sys
from fractions import Fraction
from types import SimpleNamespace
from ldp import picard as P
from ldp.graphs import InvariantError

lat = P.preset_resolution("[2,4]")
g2 = lat.curve("G_2")
pb = P.pullback_weil(lat, g2)
pullback = P._pullback
cases = {
    "gram matches the declared graph": (P, "dynkin_matrix", lambda t: [[-2]],
                                        lambda: P.preset_2A4()),
    # the rounded-up pullback of G_2 is not orthogonal to the contracted curves
    "pullback orthogonal": (P, "_pullback", lambda *args: pullback(*args[:3], math.ceil),
                            lambda: P.pullback_weil(lat, g2)),
    "rounded class integral": (P, "math", SimpleNamespace(ceil=lambda x: x + Fraction(1, 2)),
                               lambda: P.round_up(lat, pb, ["C_2", "G_1", "G_2"])),
}
fired = {}
for name, (module, attr, fake, call) in cases.items():
    original = getattr(module, attr)
    setattr(module, attr, fake)
    try:
        call()
        fired[name] = False
    except InvariantError:
        fired[name] = True
    finally:
        setattr(module, attr, original)
print(json.dumps({"optimize": sys.flags.optimize, "fired": fired}))
"""


def test_invariant_checks_survive_python_o():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _BROKEN_INVARIANTS],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    names = ["gram matches the declared graph", "pullback orthogonal", "rounded class integral"]
    assert json.loads(proc.stdout) == {"optimize": 1, "fired": dict.fromkeys(names, True)}
