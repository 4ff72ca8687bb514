import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from gravlasov.errors import InvalidCasimirError, PreconditionError
from gravlasov.kernel import (CasimirSpec, ModelParams, check_casimir,
                              kinetic_weight, kinetic_weight_inverse,
                              make_polytrope)


def test_model_params_validation():
    assert ModelParams(c=1.0).is_classical is False
    assert ModelParams().is_classical is True
    with pytest.raises(PreconditionError):
        ModelParams(c=0.0)
    with pytest.raises(PreconditionError):
        ModelParams(c=-2.0)


def test_kinetic_weight_examples():
    assert kinetic_weight(ModelParams(), 2.0) == 2.0
    assert kinetic_weight(ModelParams(c=1.0), 0.0) == 0.0
    # c=1, u=sqrt(3): 1*(sqrt(1+3)-1) = 1
    assert_allclose(kinetic_weight(ModelParams(c=1.0), math.sqrt(3.0)), 1.0,
                    rtol=1e-14)


def test_kinetic_weight_negative_speed_rejected():
    with pytest.raises(PreconditionError):
        kinetic_weight(ModelParams(), -0.1)
    with pytest.raises(PreconditionError):
        kinetic_weight_inverse(ModelParams(c=2.0), -1e-9)


@pytest.mark.parametrize("params", [ModelParams(), ModelParams(c=1.0)],
                         ids=["classical", "c=1"])
@pytest.mark.parametrize("value, named", [
    (math.nan, "nan"),
    (np.array([0.5, math.nan, 2.0]), "nan"),
    (np.array([1.0, -3.0, math.nan]), "-3.0"),   # the first bad value
], ids=["scalar", "array", "negative-first"])
def test_kinetic_weight_rejects_nan(params, value, named):
    # nan is no speed or energy: it raises and is named, not passed on
    with pytest.raises(PreconditionError, match=rf"^speed must be nonnegative, got {named}$"):
        kinetic_weight(params, value)
    with pytest.raises(PreconditionError, match=rf"^energy must be nonnegative, got {named}$"):
        kinetic_weight_inverse(params, value)


def test_kinetic_weight_bounds_and_limit():
    u = np.linspace(0.0, 10.0, 200)
    for c in (0.5, 1.0, 3.0):
        params = ModelParams(c=c)
        gam = kinetic_weight(params, u)
        assert np.all(gam <= 0.5 * u * u + 1e-15)
        assert np.all(gam >= c * u - c * c - 1e-12)
        assert np.all(np.diff(gam) > 0)
        # finite-difference convexity
        assert np.all(np.diff(gam, 2) > -1e-12)
    huge = kinetic_weight(ModelParams(c=1e6), u)
    assert_allclose(huge, 0.5 * u * u, rtol=1e-9)


def _cancellation_free(u, c):
    """The finite-c form u**2/(sqrt(1+u**2/c**2)+1), None where it overflows."""
    with np.errstate(all="raise"):
        try:
            return float(np.float64(u) * u / (np.sqrt(1.0 + (np.float64(u) / c) ** 2) + 1.0))
        except FloatingPointError:
            return None


@settings(max_examples=200, deadline=None)
@given(u=st.floats(min_value=0.0, max_value=1e300),
       c=st.sampled_from([1e-300, 1e-10, 0.5, 1.0, 7.0, 1e10, 1e160]))
def test_kinetic_weight_keeps_the_bits_of_the_cancellation_free_form(u, c):
    # where that form computes finitely, without overflow
    want = _cancellation_free(u, c)
    if want is not None:
        assert kinetic_weight(ModelParams(c=c), u).hex() == want.hex()
        assert kinetic_weight(ModelParams(c=c), np.array([u]))[0].hex() == want.hex()


@pytest.mark.parametrize("u, c, want", [
    (math.inf, 1.0, math.inf),
    (math.inf, 1e-300, math.inf),
    (1e160, 1.0, 1e160),      # u*u and (u/c)**2 overflow: c u - c^2 to double precision
    (1e160, 1e10, 1e170),     # u*u overflows
    (1e150, 1e-10, 1e140),    # (u/c)**2 overflows and the form gave 0.0
    (1e10, 1e-300, 1e-290),   # u/c overflows
    (1e160, 1e160, math.inf),  # the value itself exceeds the largest float
])
def test_kinetic_weight_of_a_huge_speed(u, c, want):
    params = ModelParams(c=c)
    assert _cancellation_free(u, c) is None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = kinetic_weight(params, u)
        assert kinetic_weight(params, np.array([0.0, 1.0, u]))[2] == got
    assert got == pytest.approx(want, rel=1e-15, abs=0.0)


def test_kinetic_weight_inverse_examples():
    assert_allclose(kinetic_weight_inverse(ModelParams(), 2.0), 2.0, rtol=1e-14)
    assert_allclose(kinetic_weight_inverse(ModelParams(c=1.0), 1.0),
                    math.sqrt(3.0), rtol=1e-14)
    assert kinetic_weight_inverse(ModelParams(c=0.3), 0.0) == 0.0


@settings(max_examples=80, deadline=None)
@given(u=st.floats(min_value=1e-6, max_value=1e3),
       c=st.sampled_from([0.5, 1.0, 7.0, math.inf]))
def test_kinetic_weight_roundtrip(u, c):
    params = ModelParams(c=c)
    e = kinetic_weight(params, u)
    assert kinetic_weight_inverse(params, e) == pytest.approx(u, rel=1e-10)


def test_roundtrip_on_log_grid():
    u = np.logspace(-6, 3, 60)
    for c in (0.5, 2.0, math.inf):
        params = ModelParams(c=c)
        back = kinetic_weight_inverse(params, kinetic_weight(params, u))
        assert_allclose(back, u, rtol=1e-10)


def test_make_polytrope_values():
    spec = make_polytrope(2.0)
    assert spec.j(3.0) == 9.0
    assert spec.g_inv(6.0) == 3.0
    assert spec.p1 == spec.p2 == 2.0
    t = np.logspace(-6, 6, 50)
    assert_allclose(t * spec.j_prime(t) / spec.j(t), 2.0, rtol=1e-13)


def test_make_polytrope_rejects_small_exponent():
    with pytest.raises(InvalidCasimirError):
        make_polytrope(1.4)
    with pytest.raises(InvalidCasimirError):
        make_polytrope(1.5)


def test_check_casimir_polytrope_passes():
    report = check_casimir(make_polytrope(2.0), samples=100)
    assert report.passed
    assert report.ratio_min == pytest.approx(2.0, abs=1e-12)
    assert report.ratio_max == pytest.approx(2.0, abs=1e-12)


def test_check_casimir_cubic_plus_quadratic(spec_cubic):
    report = check_casimir(spec_cubic, samples=150)
    assert report.passed
    assert 2.0 <= report.ratio_min <= report.ratio_max <= 3.0


def test_check_casimir_linear_fails_ratio():
    # linear j with (falsely) claimed admissible exponents: ratio is 1
    spec = CasimirSpec(j=lambda t: np.asarray(t, dtype=float),
                       j_prime=lambda t: np.ones_like(np.asarray(t, dtype=float)),
                       g_inv=lambda s: np.asarray(s, dtype=float),
                       p=2.0, p1=2.0, p2=2.0)
    report = check_casimir(spec, samples=50)
    assert not report.passed
    assert not report.ratio_ok
    assert not report.convex_ok
    assert report.ratio_min == pytest.approx(1.0)


def test_check_casimir_rejects_nonpositive():
    spec = CasimirSpec(j=lambda t: np.asarray(t, dtype=float) - 1.0,
                       j_prime=lambda t: np.ones_like(np.asarray(t, dtype=float)),
                       g_inv=lambda s: np.asarray(s, dtype=float),
                       p=2.0, p1=2.0, p2=2.0)
    with pytest.raises(InvalidCasimirError):
        check_casimir(spec, samples=20)


def test_check_casimir_reports_growth_constant():
    report = check_casimir(make_polytrope(2.5), samples=80)
    assert report.growth_ok
    assert report.growth_constant == pytest.approx(1.0, rel=1e-10)


def test_check_casimir_needs_two_samples():
    with pytest.raises(PreconditionError):
        check_casimir(make_polytrope(2.0), samples=1)
