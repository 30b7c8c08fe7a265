import math
import re

import numpy as np
import pytest

from smallball.errors import ConfigurationError, DomainError
from smallball.models import WienerPath
from smallball.norms import NormSpec, eval_norm_batch, parse_norm
from smallball.streams import RandomStream

SUP = NormSpec("sup")
L2 = NormSpec("lp", p=2.0)
HOELDER = NormSpec("hoelder", beta=0.25)


def brownian(n=512, seed=11):
    model = WienerPath(n_steps=n)
    return model.sample_values(RandomStream(seed).generator(), 1)[0], model.dt


# -- exact evaluations ---------------------------------------------------------


def test_sup_norm_exact_on_known_path():
    vals = np.array([0.0, -3.0, 2.0, 1.0, 0.5])
    assert eval_norm_batch(vals[None], 0.25, SUP)[0] == 3.0


def test_sup_norm_vector_valued_euclidean_reduction():
    vals = np.zeros((1, 3, 2))
    vals[0, 1] = (3.0, 4.0)
    assert eval_norm_batch(vals, 0.5, SUP)[0] == pytest.approx(5.0)


def test_lp_norm_of_the_constant_one():
    vals = np.ones(101)
    for p in (1.0, 2.0, 4.0):
        assert eval_norm_batch(vals[None], 0.01, NormSpec("lp", p=p))[0] == pytest.approx(1.0)


def test_lp_norm_of_identity_function():
    # ||t||_2 on [0,1] = 1/sqrt(3); the trapezoid of t^2 is exact up to O(dt^2)
    vals = np.linspace(0.0, 1.0, 2001)
    got = eval_norm_batch(vals[None], 5e-4, L2)[0]
    assert got == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-6)


def test_hoelder_norm_of_identity_function():
    # |t - s| / |t - s|^beta maximized at the full lag: (b-a)^(1-beta)
    vals = np.linspace(0.0, 2.0, 9)
    spec = NormSpec("hoelder", beta=0.25, interval=(0.0, 2.0))
    assert eval_norm_batch(vals[None], 0.25, spec)[0] == pytest.approx(2.0 ** 0.75, rel=1e-12)


def test_hoelder_norm_single_spike():
    vals = np.zeros(9)
    vals[4] = 1.0
    # unit jump over one step of dt
    got = eval_norm_batch(vals[None], 0.125, HOELDER)[0]
    assert got == pytest.approx(0.125 ** -0.25, rel=1e-12)


def test_interval_slicing_matches_manual_max():
    vals, dt = brownian(64)
    spec = NormSpec("sup", interval=(0.25, 0.75))
    ia, ib = 16, 48
    assert eval_norm_batch(vals[None], dt, spec)[0] == pytest.approx(float(np.abs(vals[ia:ib + 1]).max()))


def test_interval_must_align_with_grid():
    vals, dt = brownian(64)
    with pytest.raises(DomainError):
        eval_norm_batch(vals[None], dt, NormSpec("sup", interval=(0.0, 0.73)))[0]
    with pytest.raises(DomainError):
        eval_norm_batch(vals[None], dt, NormSpec("sup", interval=(0.0, 2.0)))[0]


def test_degenerate_draws_use_sequence_semantics():
    vals = np.array([[1.0, -2.0], [0.5, 0.5]])
    assert np.allclose(eval_norm_batch(vals, 0.0, SUP), [2.0, 0.5])
    assert np.allclose(
        eval_norm_batch(vals, 0.0, NormSpec("lp", p=2.0)),
        [math.sqrt(5.0), math.sqrt(0.5)],
    )
    # a 1-d degenerate batch is one coordinate per draw
    assert np.allclose(eval_norm_batch(np.array([1.0, -2.0]), 0.0, SUP), [1.0, 2.0])
    with pytest.raises(DomainError):
        eval_norm_batch(vals, 0.0, HOELDER)


# -- NormSpec validation and scaling metadata ------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(kind="what"),
        dict(kind="lp", p=0.5),
        dict(kind="lp", p=math.inf),
        dict(kind="sup", p=2.0),
        dict(kind="hoelder", beta=0.5),
        dict(kind="hoelder", beta=-0.1),
        dict(kind="sup", beta=0.2),
        dict(kind="sup", interval=(1.0, 1.0)),
    ],
)
def test_norm_spec_rejects(kwargs):
    with pytest.raises(DomainError):
        NormSpec(**kwargs)


def test_decay_exponents():
    assert SUP.gamma == pytest.approx(2.0)
    assert NormSpec("lp", p=7.0).gamma == pytest.approx(2.0)
    assert NormSpec("hoelder", beta=0.25).gamma == pytest.approx(4.0)
    assert NormSpec("lp", p=4.0).soft_q == pytest.approx(3.0)
    with pytest.raises(DomainError):
        SUP.soft_q
    assert HOELDER.translation_invariant()
    assert not L2.translation_invariant()


def test_parse_norm_round_trips():
    assert parse_norm("sup") == SUP
    assert parse_norm("lp:p=4") == NormSpec("lp", p=4.0)
    assert parse_norm("hoelder:beta=0.3,a=0,b=2") == NormSpec(
        "hoelder", beta=0.3, interval=(0.0, 2.0)
    )
    for text, message in (
        ("l7", "unknown norm kind 'l7' (sup|lp|hoelder)"),
        ("lp:p=0.2", "bad norm descriptor 'lp:p=0.2': lp norm needs"),
        ("sup:p=3", "unknown norm parameters ['p'] in 'sup:p=3'"),
        ("lp:q=2", "unknown norm parameters ['q'] in 'lp:q=2'"),
        ("lp:p", "bad norm parameter 'p' in 'lp:p'"),
    ):
        with pytest.raises(ConfigurationError, match="^" + re.escape(message)):
            parse_norm(text)


@pytest.mark.parametrize("spec", [
    SUP, NormSpec("sup", interval=(0.0, 0.5)), NormSpec("sup", interval=(0.25, 2.0)),
    L2, NormSpec("lp", p=1.5, interval=(0.0, 0.5)), NormSpec("lp", p=1.0 / 3.0 + 1.0),
    HOELDER, NormSpec("hoelder", beta=0.1, interval=(0.125, 0.875)),
    NormSpec("hoelder", beta=1e-5),
])
def test_describe_round_trips_through_parse_norm(spec):
    assert parse_norm(spec.describe()) == spec


def test_describe_names_only_non_default_intervals():
    # default-interval labels are the ones every table has always carried
    assert [s.describe() for s in (SUP, L2, HOELDER)] == ["sup", "lp:p=2", "hoelder:beta=0.25"]
    assert NormSpec("sup", interval=(0.0, 0.5)).describe() == "sup:a=0,b=0.5"
    assert NormSpec("lp", p=2.0, interval=(0.0, 2.0)).describe() == "lp:p=2,a=0,b=2"


@pytest.mark.parametrize("n", [16, 4096])
def test_scalar_sup_and_l2_match_the_modulus_forms_bit_for_bit(n):
    # eval_norm_batch reads max |x| as max(max x, -min x) and |x|^2 as x^2;
    # both must equal the direct forms exactly, interval slices included
    vals = WienerPath(n_steps=n).sample_values(RandomStream(8).generator(), 64)
    dt = 1.0 / n
    for a, b in ((0.0, 1.0), (0.25, 0.75)):
        seg = vals[:, round(a * n) : round(b * n) + 1]
        sup = eval_norm_batch(vals, dt, NormSpec("sup", interval=(a, b)))
        assert np.array_equal(sup, np.abs(seg).max(axis=1))
        sq = np.abs(seg) ** 2.0
        l2 = (dt * (sq[:, 1:-1].sum(axis=1) + 0.5 * (sq[:, 0] + sq[:, -1]))) ** 0.5
        assert np.array_equal(eval_norm_batch(vals, dt, NormSpec("lp", p=2.0, interval=(a, b))), l2)


# -- structural checks -----------------------------------------------------------


@pytest.mark.parametrize("spec", [SUP, L2, NormSpec("lp", p=4.0), HOELDER])
def test_self_similarity_exact_at_doubling(spec):
    # f(2t) on [0, 1/2], sampled at half the step, holds the nodes of f on
    # [0, 1], so the measured exponent is exact
    vals, dt = brownian(512)
    whole = eval_norm_batch(vals[None], dt, spec)[0]
    half = NormSpec(spec.kind, spec.p, spec.beta, (0.0, 0.5))
    rescaled = eval_norm_batch(vals[None], dt / 2.0, half)[0]
    measured = math.log(rescaled / whole) / math.log(2.0)
    assert abs(measured - spec.sim_exponent) * math.log(2.0) < 1e-9


def _parts(vals, dt, spec, pts):
    return [eval_norm_batch(vals[None], dt, NormSpec(spec.kind, spec.p, spec.beta, (a, b)))[0]
            for a, b in zip(pts, pts[1:])]


def test_superadditivity_lp_is_exactly_additive():
    vals, dt = brownian(512)
    whole = eval_norm_batch(vals[None], dt, L2)[0]
    aggregated = float(np.sum(np.asarray(_parts(vals, dt, L2, (0.0, 0.25, 0.625, 1.0))) ** 2.0) ** 0.5)
    assert abs(whole - aggregated) < 1e-9
    assert aggregated == pytest.approx(whole, rel=1e-9)


@pytest.mark.parametrize("spec", [SUP, HOELDER])
def test_superadditivity_max_norms(spec):
    vals, dt = brownian(512)
    whole = eval_norm_batch(vals[None], dt, spec)[0]
    parts = _parts(vals, dt, spec, (0.0, 0.5, 1.0))
    assert whole - max(parts) >= -1e-12
    assert whole >= max(parts) - 1e-12
