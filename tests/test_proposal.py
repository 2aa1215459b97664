import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attacksearch.proposal import (MASS_TOL, ProposalDistribution, ProposalError,
                                   correction_operator, point_mass, uniform, update)


@st.composite
def distributions(draw, size=None):
    n = size or draw(st.integers(2, 12))
    raw = draw(st.lists(st.floats(1e-6, 1.0), min_size=n, max_size=n))
    arr = np.array(raw)
    return ProposalDistribution(arr / arr.sum())


def test_uniform_sums_to_one():
    q = uniform(7)
    assert q.probs.sum() == pytest.approx(1.0, abs=MASS_TOL)
    assert np.all(q.probs == q.probs[0])


def test_point_mass():
    q = point_mass(5, 2)
    assert q.probs[2] == 1.0 and q.probs.sum() == 1.0


def test_rejects_negative_and_unnormalized():
    with pytest.raises(ProposalError):
        ProposalDistribution(np.array([0.5, -0.5, 1.0]))
    with pytest.raises(ProposalError):
        ProposalDistribution(np.array([0.5, 0.4]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rejects_non_finite_entries(bad):
    # NaN slips past both the sign and the mass check, so it needs its own
    with pytest.raises(ProposalError, match="finite"):
        ProposalDistribution(np.array([bad, 1.0]))
    with pytest.raises(ProposalError, match="finite"):
        ProposalDistribution(np.array([0.0, bad, 1.0]))


def test_probs_read_only():
    q = uniform(3)
    with pytest.raises(ValueError):
        q.probs[0] = 0.9


def test_update_hand_value():
    q = ProposalDistribution(np.array([0.2, 0.8]))
    q_hat = ProposalDistribution(np.array([0.6, 0.4]))
    out = update(q, q_hat, 0.5)
    assert np.allclose(out.probs, [0.4, 0.6], atol=0)


def test_update_alpha_zero_identity():
    q = ProposalDistribution(np.array([0.3, 0.7]))
    q_hat = ProposalDistribution(np.array([0.9, 0.1]))
    assert np.array_equal(update(q, q_hat, 0.0).probs, q.probs)


def test_update_alpha_one_replacement():
    q = ProposalDistribution(np.array([0.3, 0.7]))
    q_hat = ProposalDistribution(np.array([0.9, 0.1]))
    assert np.array_equal(update(q, q_hat, 1.0).probs, q_hat.probs)


def test_update_validates():
    q = uniform(3)
    with pytest.raises(ProposalError):
        update(q, uniform(4), 0.5)
    with pytest.raises(ProposalError):
        update(q, q, 1.5)


def test_correction_gamma_zero_identity():
    q = ProposalDistribution(np.array([0.25, 0.75]))
    out = correction_operator(q, uniform(2), 0.0)
    assert np.array_equal(out.probs, q.probs)


def test_correction_hand_mass_identity():
    # q(G)=0.2, q*(G)=0.8, gamma=1 -> corrected mass 0.5, increment 0.3
    q = ProposalDistribution(np.array([0.2, 0.8]))
    q_star = ProposalDistribution(np.array([0.8, 0.2]))
    out = correction_operator(q, q_star, 1.0)
    assert out.probs[0] == pytest.approx(0.5, abs=1e-15)
    assert out.probs[0] - q.probs[0] == pytest.approx(0.3, abs=1e-15)


def test_correction_residual_halving():
    # q*(G) = 1, gamma = 1: mass outside G halves
    q = ProposalDistribution(np.array([0.3, 0.45, 0.25]))
    q_star = ProposalDistribution(np.array([0.6, 0.4, 0.0]))
    out = correction_operator(q, q_star, 1.0)
    outside = 1.0 - (out.probs[0] + out.probs[1])
    assert outside == pytest.approx(0.25 / 2.0, abs=1e-15)


def test_correction_rejects_negative_gamma():
    q = uniform(2)
    with pytest.raises(ProposalError):
        correction_operator(q, q, -0.1)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), gamma=st.floats(0.0, 10.0))
def test_correction_equals_update_identity(data, gamma):
    n = data.draw(st.integers(2, 10))
    q = data.draw(distributions(size=n))
    q_star = data.draw(distributions(size=n))
    via_operator = correction_operator(q, q_star, gamma)
    via_update = update(q, q_star, gamma / (1.0 + gamma))
    assert np.abs(via_operator.probs - via_update.probs).max() <= 1e-15


@settings(max_examples=200, deadline=None)
@given(data=st.data(), gamma=st.floats(0.0, 10.0))
def test_correction_mass_shift_identity(data, gamma):
    n = data.draw(st.integers(2, 10))
    q = data.draw(distributions(size=n))
    q_star = data.draw(distributions(size=n))
    members = data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n))
    idx = sorted(members)
    lhs = correction_operator(q, q_star, gamma).mass(idx) - q.mass(idx)
    rhs = gamma / (1.0 + gamma) * (q_star.mass(idx) - q.mass(idx))
    assert abs(lhs - rhs) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(data=st.data(), alpha=st.floats(0.0, 1.0))
def test_update_outputs_are_distributions(data, alpha):
    n = data.draw(st.integers(2, 10))
    q = data.draw(distributions(size=n))
    q_hat = data.draw(distributions(size=n))
    out = update(q, q_hat, alpha)
    assert abs(out.probs.sum() - 1.0) <= MASS_TOL
    assert np.all(out.probs >= 0.0)
