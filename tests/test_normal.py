"""The scalar normal kernels return scipy.special's bits.

``alphagate.normal`` ports Cephes' ``ndtri``, ``ndtr``, ``erf`` and ``erfc``
so that scalar callers need no scipy. Each result must equal the installed
scipy's as a double: compared with ``==``, with the sign of zero, and nan
matching nan. If a scipy upgrade changes its kernels this test fails, and
the scipy version becomes part of what reproducing a result means.
"""

import math

import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from alphagate import normal
from alphagate.cli import main
from alphagate.rates import conjunction_power, conjunction_type2

#: log(2**1024): erfc underflows to 0 (or 2) once a * a exceeds it
MAXLOG = 7.09782712893383996843e2
ULPS = 64


def same(got, want) -> bool:
    """Equal as doubles: ``==``, the same sign of a zero, or both nan."""
    got, want = float(got), float(want)
    if math.isnan(want):
        return math.isnan(got)
    return got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


def around(x: float, ulps: int = ULPS) -> list[float]:
    """x and its ``ulps`` nearest doubles on each side."""
    out = [x]
    down = up = x
    for _ in range(ulps):
        down, up = math.nextafter(down, -math.inf), math.nextafter(up, math.inf)
        out += [down, up]
    return out


def assert_all_same(name: str, inputs) -> None:
    ours = getattr(normal, name)
    want = getattr(sp, name)(np.array(inputs, dtype=np.float64))
    bad = [(x, ours(x), float(w)) for x, w in zip(inputs, want) if not same(ours(x), w)]
    assert not bad, f"{name} differs from scipy.special.{name} on {len(bad)} inputs, first {bad[:3]}"


EXP_M2 = 0.13533528323661269189
EXP_M32 = math.exp(-32.0)
#: ndtri: the central branch ends at exp(-2) and 1 - exp(-2); the tail
#: branches switch where sqrt(-2 log y) = 8, at y = exp(-32) from either end
NDTRI_EDGES = [EXP_M2, 1.0 - EXP_M2, EXP_M32, 1.0 - EXP_M32, 0.5, 5e-324, 2.0**-1022, 1.0 - 2.0**-53, 2.0**-53]
#: erf/erfc switch formulas at |x| = 1 and 8 and underflow past sqrt(MAXLOG)
ERFC_EDGES = [s * x for s in (1.0, -1.0) for x in (1.0, 8.0, math.sqrt(MAXLOG), 0.0, 5e-324)]
#: ndtr uses erf below |a| sqrt(1/2) = sqrt(1/2), i.e. |a| = 1, and its
#: erfc edges sit at sqrt(2) times theirs
NDTR_EDGES = [s * x for s in (1.0, -1.0) for x in (1.0, 8.0 * math.sqrt(2.0), math.sqrt(2.0 * MAXLOG), 0.0, 5e-324)]


class TestBranchEdges:
    def test_ndtri(self):
        inputs = [y for edge in NDTRI_EDGES for y in around(edge) if 0.0 <= y <= 1.0]
        assert_all_same("ndtri", inputs + [0.0, 1.0, -0.0, -1e-300, 1.0 + 2.0**-52, math.inf, -math.inf, math.nan])

    @pytest.mark.parametrize("name, edges", [("ndtr", NDTR_EDGES), ("erfc", ERFC_EDGES), ("erf", ERFC_EDGES)])
    def test_cdf_side(self, name, edges):
        inputs = [x for edge in edges for x in around(edge)]
        assert_all_same(name, inputs + [math.inf, -math.inf, math.nan, 1e308, -1e308])

    def test_ndtri_ends(self):
        assert normal.ndtri(0.0) == -math.inf and normal.ndtri(1.0) == math.inf
        assert math.isnan(normal.ndtri(-0.5)) and math.isnan(normal.ndtri(1.5))


@settings(max_examples=3_000)
@given(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True, allow_subnormal=True))
def test_ndtri_matches_scipy(y):
    assert same(normal.ndtri(y), sp.ndtri(y))


@settings(max_examples=5_000)
@given(st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    # most doubles are huge or tiny; this is where ndtr, erf and erfc are
    # neither 0 nor 1 (nor 2)
    st.floats(-40.0, 40.0),
))
def test_ndtr_and_erfc_match_scipy(x):
    for name in ("ndtr", "erfc", "erf"):
        assert same(getattr(normal, name)(x), getattr(sp, name)(x)), name


def test_a_random_sample_matches_scipy():
    # a one-ulp change to a leading or trailing coefficient of P0, P1 or Q1
    # (ndtri) or U (erf) alters few outputs; this sample catches each of
    # those four, which the tests above miss
    rng = np.random.default_rng(20211)
    assert_all_same("ndtri", (10.0 ** rng.uniform(-323, 0, 20_000)).tolist() + rng.random(20_000).tolist())
    for name in ("ndtr", "erfc"):
        assert_all_same(name, (rng.standard_normal(20_000) * 12).tolist())


# -- power, the CLI's one user of these kernels --------------------------------

ALPHAS = ["1e-320", "5e-8", "0.05", "0.999999999999"]
DELTAS = ["0", "0.5", "50", "1e308"]
NS = ["2", "64", str(2**53)]


def scipy_power(alpha: float, delta: float, n: int) -> float:
    return float(sp.ndtr(delta * math.sqrt(n / 2.0) + sp.ndtri(alpha)))


def cell(x: float) -> str:
    """A value as ``--precision 17`` TSV prints it."""
    return f"{x:.17f}" if x == 0 or abs(x) >= 1e-4 else f"{x:.17e}"


@pytest.mark.parametrize("k", [None, 3])
@pytest.mark.parametrize("n", NS)
@pytest.mark.parametrize("delta", DELTAS)
@pytest.mark.parametrize("alpha", ALPHAS)
def test_power_prints_the_scipy_value(capsys, alpha, delta, n, k):
    power = scipy_power(float(alpha), float(delta), int(n))
    rows = [("power_per_test", power)]
    argv = ["power", "--alpha", alpha, "--delta", delta, "--n", n, "--precision", "17"]
    if k is not None:
        argv += ["--k", str(k), "--conjunction"]
        rows += [("conjunction_power", conjunction_power(power, k)), ("conjunction_type2", conjunction_type2(1.0 - power, k))]
    assert main(argv) == 0
    assert capsys.readouterr().out == "metric\tvalue\n" + "".join(f"{name}\t{cell(x)}\n" for name, x in rows)
