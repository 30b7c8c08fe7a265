import math

import numpy as np
import pytest

from smallball.errors import ConfigurationError, DomainError, ShapeError
from smallball.models import (
    BrownianBridge,
    FiniteSpectrum,
    Scalar,
    WienerPath,
    parse_model,
    rkhs_norm,
)
from smallball.streams import RandomStream


def test_scalar_sample_shape_and_scale():
    model = Scalar(sigma=2.0)
    assert model.sample_values(RandomStream(1).generator(), 5).shape == (5,)
    big = model.sample_values(RandomStream(1).generator(), 60_000)
    assert abs(float(big.std()) - 2.0) < 0.05


def test_finite_spectrum_sample_variances():
    model = FiniteSpectrum(lambdas=(1.0, 4.0, 0.25))
    vals = model.sample_values(RandomStream(2).generator(), 50_000)
    assert vals.shape == (50_000, 3)
    assert np.allclose(vals.var(axis=0), [1.0, 4.0, 0.25], rtol=0.06)


def test_wiener_sample_geometry():
    model = WienerPath(n_steps=64, horizon=2.0)
    assert model.dt == pytest.approx(2.0 / 64)
    vals = model.sample_values(RandomStream(3).generator(), 4_000)
    assert vals.shape == (4_000, 65)
    assert np.all(vals[:, 0] == 0.0)
    # independent N(0, dt) increments; endpoint variance is the horizon
    inc = np.diff(vals, axis=1)
    assert abs(float(inc.var()) - model.dt) < 0.03 * model.dt
    assert abs(float(vals[:, -1].var()) - 2.0) < 0.15


def test_wiener_vector_valued_shape():
    model = WienerPath(n_steps=16, d=3)
    vals = model.sample_values(RandomStream(4).generator(), 7)
    assert vals.shape == (7, 17, 3)
    assert np.all(vals[:, 0, :] == 0.0)


@pytest.mark.parametrize("d", [1, 2])
def test_wiener_sample_into_buffers_draws_the_same_paths(d):
    model = WienerPath(n_steps=32, d=d)
    fresh = model.sample_values(RandomStream(6).generator(), 9)
    out = np.full(fresh.shape, np.nan)
    scratch = np.empty((9, 32) + fresh.shape[2:])
    got = model.sample_values(RandomStream(6).generator(), 9, out=out, scratch=scratch)
    assert got is out
    assert np.array_equal(out, fresh)
    assert np.array_equal(np.cumsum(scratch, axis=1), out[:, 1:])  # the increments
    # a second draw reuses the same buffers and continues the stream
    rng = RandomStream(6).generator()
    model.sample_values(rng, 9, out=out, scratch=scratch)
    model.sample_values(rng, 9, out=out, scratch=scratch)
    rng = RandomStream(6).generator()
    model.sample_values(rng, 9)
    assert np.array_equal(out, model.sample_values(rng, 9))


def test_bridge_pins_both_endpoints():
    model = BrownianBridge(n_steps=32)
    vals = model.sample_values(RandomStream(5).generator(), 2_000)
    assert np.all(vals[:, 0] == 0.0)
    assert np.allclose(vals[:, -1], 0.0, atol=1e-12)
    # Var B(t) = t(1-t): spot check the midpoint
    assert abs(float(vals[:, 16].var()) - 0.25) < 0.03


def test_rkhs_norm_scalar_and_spectrum():
    assert rkhs_norm(Scalar(sigma=2.0), 3.0) == pytest.approx(1.5)
    model = FiniteSpectrum(lambdas=(1.0, 4.0))
    assert rkhs_norm(model, np.array([1.0, 2.0])) == pytest.approx(math.sqrt(2.0))
    # zero-padding beyond the spectrum is allowed; energy there is not
    assert rkhs_norm(model, np.array([1.0, 0.0, 0.0])) == pytest.approx(1.0)
    assert rkhs_norm(model, np.array([0.0, 0.0, 1.0])) == math.inf


def test_rkhs_norm_linear_path():
    model = WienerPath(n_steps=128)
    c = 0.7
    h = c * model.grid()
    # a straight line of slope c on [0, 1] has energy c^2
    assert rkhs_norm(model, h) == pytest.approx(abs(c))


def test_path_shift_validation():
    model = WienerPath(n_steps=8)
    with pytest.raises(ShapeError):
        model.rkhs_norm_sq(np.zeros(5))
    with pytest.raises(DomainError):
        model.rkhs_norm_sq(np.ones(9))  # does not start at 0
    bridge = BrownianBridge(n_steps=8)
    ramp = np.linspace(0.0, 1.0, 9)
    with pytest.raises(DomainError):
        bridge.rkhs_norm_sq(ramp)  # does not end at 0


def test_parse_model_round_trips():
    m = parse_model("wiener:n=128,d=2,T=4")
    assert isinstance(m, WienerPath) and m.n_steps == 128 and m.d == 2 and m.horizon == 4.0
    assert parse_model("scalar") == Scalar()
    assert parse_model("scalar:sigma=2.5") == Scalar(sigma=2.5)
    assert parse_model("finite:lambdas=1/4/0.25") == FiniteSpectrum(lambdas=(1.0, 4.0, 0.25))
    assert parse_model("bridge:n=64") == BrownianBridge(n_steps=64)


@pytest.mark.parametrize(
    "text",
    [
        "laplace",                # unknown kind
        "wiener:n=0",             # invalid step count
        "wiener:d=4",             # dimension out of range
        "wiener:banana=1",        # unknown key
        "scalar:sigma=-1",        # bad domain
        "scalar:sigma",           # malformed pair
        "finite:lambdas=1/-2",
    ],
)
def test_parse_model_rejects(text):
    with pytest.raises(ConfigurationError):
        parse_model(text)



@pytest.mark.parametrize("model", [
    Scalar(), FiniteSpectrum(lambdas=(1.0, 0.5)), WienerPath(n_steps=8),
    WienerPath(n_steps=8, d=3), BrownianBridge(n_steps=8),
])
def test_value_shape_is_the_shape_of_one_draw(model):
    draws = model.sample_values(RandomStream(3).generator(), 2)
    assert draws.shape == (2,) + model.value_shape
