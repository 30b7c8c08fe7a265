import math

import numpy as np
import pytest

from smallball.errors import ConfigurationError, DomainError
from smallball.models import WienerPath
from smallball.norms import (
    NormSpec,
    check_self_similarity,
    check_superadditivity,
    eval_norm,
    eval_norm_batch,
    parse_norm,
)
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
    assert eval_norm(vals, SUP, dt=0.25) == 3.0


def test_sup_norm_vector_valued_euclidean_reduction():
    vals = np.zeros((1, 3, 2))
    vals[0, 1] = (3.0, 4.0)
    assert eval_norm_batch(vals, 0.5, SUP)[0] == pytest.approx(5.0)


def test_lp_norm_of_the_constant_one():
    vals = np.ones(101)
    for p in (1.0, 2.0, 4.0):
        assert eval_norm(vals, NormSpec("lp", p=p), dt=0.01) == pytest.approx(1.0)


def test_lp_norm_of_identity_function():
    # ||t||_2 on [0,1] = 1/sqrt(3); the trapezoid of t^2 is exact up to O(dt^2)
    vals = np.linspace(0.0, 1.0, 2001)
    got = eval_norm(vals, L2, dt=5e-4)
    assert got == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-6)


def test_hoelder_norm_of_identity_function():
    # |t - s| / |t - s|^beta maximized at the full lag: (b-a)^(1-beta)
    vals = np.linspace(0.0, 2.0, 9)
    spec = NormSpec("hoelder", beta=0.25, interval=(0.0, 2.0))
    assert eval_norm(vals, spec, dt=0.25) == pytest.approx(2.0 ** 0.75, rel=1e-12)


def test_hoelder_norm_single_spike():
    vals = np.zeros(9)
    vals[4] = 1.0
    # unit jump over one step of dt
    assert eval_norm(vals, HOELDER, dt=0.125) == pytest.approx(0.125 ** -0.25, rel=1e-12)


def test_interval_slicing_matches_manual_max():
    vals, dt = brownian(64)
    spec = NormSpec("sup", interval=(0.25, 0.75))
    ia, ib = 16, 48
    assert eval_norm(vals, spec, dt=dt) == pytest.approx(float(np.abs(vals[ia:ib + 1]).max()))


def test_interval_must_align_with_grid():
    vals, dt = brownian(64)
    with pytest.raises(DomainError):
        eval_norm(vals, NormSpec("sup", interval=(0.0, 0.73)), dt=dt)
    with pytest.raises(DomainError):
        eval_norm(vals, NormSpec("sup", interval=(0.0, 2.0)), dt=dt)


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


def test_eval_norm_requires_dt_for_bare_arrays():
    with pytest.raises(ConfigurationError):
        eval_norm(np.zeros(5), SUP)


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
    for text in ("l7", "lp:p=0.2", "sup:p=3", "lp:q=2", "lp:p"):
        with pytest.raises(ConfigurationError):
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
    # c=2 maps grid nodes to grid nodes, so the measured exponent is exact
    vals, dt = brownian(512)
    report = check_self_similarity(spec, vals, dt, c=2.0)
    assert report.expected_exponent == spec.sim_exponent
    assert report.residual < 1e-9


def test_self_similarity_validation():
    vals, dt = brownian(64)
    with pytest.raises(DomainError):
        check_self_similarity(SUP, vals, dt, c=1.0)
    with pytest.raises(DomainError):
        check_self_similarity(SUP, np.zeros((2, 65)), dt, c=2.0)


def test_superadditivity_lp_is_exactly_additive():
    vals, dt = brownian(512)
    report = check_superadditivity(L2, vals, dt, breakpoints=(0.25, 0.625))
    assert abs(report.slack) < 1e-9
    assert report.aggregated == pytest.approx(report.whole, rel=1e-9)


@pytest.mark.parametrize("spec", [SUP, HOELDER])
def test_superadditivity_max_norms(spec):
    vals, dt = brownian(512)
    report = check_superadditivity(spec, vals, dt, breakpoints=(0.5,))
    assert report.slack >= -1e-12
    assert report.whole >= max(report.parts) - 1e-12


def test_superadditivity_rejects_bad_breakpoints():
    vals, dt = brownian(64)
    with pytest.raises(DomainError):
        check_superadditivity(SUP, vals, dt, breakpoints=(0.75, 0.25))
