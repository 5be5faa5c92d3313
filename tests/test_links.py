"""Link families: values, derivatives, stability and smoothness at junctions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppfilt.links import (
    LinkFunction,
    identity_link,
    log_link,
    logaffine_link,
    parse_family,
    root_link,
)


class TestValues:
    def test_log_at_zero(self):
        value, deriv = log_link().phi(0.0)
        assert value == 1.0
        assert deriv == 1.0

    def test_logaffine_zero_junction(self):
        link = logaffine_link(0.0)
        assert link.phi(0.0)[0] == pytest.approx(1.0)
        assert link.phi(1.0)[0] == pytest.approx(2.0)
        assert link.phi(-1.0)[0] == pytest.approx(np.exp(-1.0))

    def test_root_zero_is_positive_part(self):
        link = root_link(0.0)
        for x, want in [(-2.0, 0.0), (0.5, 0.5), (3.0, 3.0)]:
            assert link.phi(x)[0] == want

    def test_root_two(self):
        link = root_link(2.0)
        assert link.phi(2.0) == (8.0, 12.0)
        assert link.phi(-1.0) == (0.0, 0.0)

    def test_identity_raw(self):
        assert identity_link().phi(-3.0) == (-3.0, 1.0)

    def test_nonnegative_ranges(self):
        x = np.linspace(-50, 50, 1001)
        for link in [log_link(), root_link(0.0), root_link(2.0), logaffine_link(1.5)]:
            values, _ = link.phi(x)
            assert np.all(values >= 0.0)
        values, _ = identity_link().phi(x[x >= 0])
        assert np.all(values >= 0.0)


class TestLogPhi:
    def test_log_family_no_round_trip(self):
        assert log_link().log_phi(3.0) == 3.0
        assert log_link().log_phi(-745.0) == -745.0  # exp underflows; direct value does not

    def test_identity_boundary(self):
        assert identity_link().log_phi(0.0) == -np.inf
        assert identity_link().log_phi(-1.0) == -np.inf
        assert identity_link().log_phi(2.0) == pytest.approx(np.log(2.0))

    def test_logaffine_above_junction(self):
        assert logaffine_link(0.0).log_phi(2.0) == pytest.approx(np.log(3.0))

    def test_root_positive(self):
        assert root_link(2.0).log_phi(2.0) == pytest.approx(3.0 * np.log(2.0))
        assert root_link(2.0).log_phi(-0.5) == -np.inf

    def test_consistent_with_phi(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-3, 3, size=50)
        for link in [log_link(), logaffine_link(0.7), root_link(2.0)]:
            values, _ = link.phi(x)
            logs = link.log_phi(x)
            pos = values > 0
            np.testing.assert_allclose(logs[pos], np.log(values[pos]), rtol=1e-12)
            assert np.all(np.isneginf(logs[~pos]))


class TestSmoothness:
    @pytest.mark.parametrize("c", [0.0, 0.5, 2.0])
    def test_logaffine_c1_at_junction(self, c):
        link = logaffine_link(c)
        slope = np.exp(c)
        for h in [1e-4, 1e-5, 1e-6]:
            v_plus, d_plus = link.phi(c + h)
            v_minus, d_minus = link.phi(c - h)
            assert abs(v_plus - v_minus) <= 3 * slope * h
            assert abs(d_plus - d_minus) <= 3 * slope * h

    def test_derivative_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-3, 3, size=100)
        h = 1e-7
        for link in [log_link(), logaffine_link(0.3), identity_link()]:
            _, deriv = link.phi(x)
            fd = (link.phi(x + h)[0] - link.phi(x - h)[0]) / (2 * h)
            np.testing.assert_allclose(deriv, fd, rtol=1e-6, atol=1e-6)
        # root(2) away from the kink at 0
        link = root_link(2.0)
        xp = rng.uniform(0.2, 3, size=100)
        _, deriv = link.phi(xp)
        fd = (link.phi(xp + h)[0] - link.phi(xp - h)[0]) / (2 * h)
        np.testing.assert_allclose(deriv, fd, rtol=1e-6)

    def test_smooth_flag(self):
        assert log_link().smooth
        assert logaffine_link(2.0).smooth
        assert root_link(2.0).smooth
        assert not root_link(1.0).smooth
        assert not root_link(0.0).smooth


CURVATURE_LINKS = ["log", "identity", "root:0.5", "root:2", "logaffine:0.5"]


class TestCurvature:
    @pytest.mark.parametrize(
        "family, lo, hi",
        [
            ("log", -3.0, 3.0),
            ("identity", 0.2, 3.0),
            ("root:0.5", 0.2, 3.0),
            ("root:2", 0.2, 3.0),
            ("logaffine:0.5", -3.0, 0.45),  # below c
            ("logaffine:0.5", 0.55, 3.0),  # above c
        ],
    )
    def test_matches_finite_differences(self, family, lo, hi):
        link = parse_family(family)
        x = np.random.default_rng(2).uniform(lo, hi, size=100)
        h = 1e-5
        phi2, neg_log2 = link.curvature(x)
        fd_phi2 = (link.phi(x + h)[1] - link.phi(x - h)[1]) / (2 * h)
        fd_log2 = (link.log_phi(x + h) - 2 * link.log_phi(x) + link.log_phi(x - h)) / h**2
        np.testing.assert_allclose(phi2, fd_phi2, rtol=1e-6, atol=1e-8)
        np.testing.assert_allclose(neg_log2, -fd_log2, rtol=1e-4, atol=1e-4)

    @pytest.mark.parametrize("family", CURVATURE_LINKS)
    def test_weights_nonnegative(self, family):
        x = np.linspace(-20, 20, 2001)
        phi2, neg_log2 = parse_family(family).curvature(x)
        assert np.all(phi2 >= 0.0)
        assert np.all(neg_log2 >= 0.0)

    def test_invalid_points_are_infinite(self):
        for link in [identity_link(), root_link(0.5), root_link(2.0)]:
            assert link.curvature(0.0) == (0.0, np.inf)
            assert link.curvature(-1.0) == (0.0, np.inf)


class TestInverse:
    @given(st.floats(1e-5, 1e4))
    @settings(max_examples=50, deadline=None)
    def test_phi_of_inverse_is_rate(self, rate):
        for link in [log_link(), identity_link(), root_link(2.0), logaffine_link(0.5)]:
            x = link.inverse(rate)
            assert link.phi(x)[0] == pytest.approx(rate, rel=1e-10)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            log_link().inverse(0.0)


class TestParsing:
    def test_simple_names(self):
        assert parse_family("log") == LinkFunction("log")
        assert parse_family("identity") == LinkFunction("identity")

    def test_parametrized(self):
        assert parse_family("root:2") == LinkFunction("root", c=2.0)
        assert parse_family("logaffine:0.5") == LinkFunction("logaffine", c=0.5)
        assert parse_family("logaffine") == LinkFunction("logaffine", c=0.0)

    def test_errors(self):
        with pytest.raises(ValueError):
            parse_family("banana")
        with pytest.raises(ValueError):
            parse_family("log:3")
        with pytest.raises(ValueError):
            LinkFunction("root", c=-1.0)

    def test_describe_round_trip(self):
        for text in ["log", "identity", "root:2", "logaffine:0.5"]:
            assert parse_family(parse_family(text).describe()) == parse_family(text)
