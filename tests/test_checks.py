"""The checks' verdicts: each bound passes a value exactly at it, fails the next double.

Covariances and stretches are absolute and their bounds scale with
s = max(1, sigma0, sigma_m, sigma_d); gains have no units and their
bounds do not.  The commands' own lines and exit codes are tested
through main in test_cli.py.
"""

import re

import numpy as np
import pytest

from stochalign.checks import (KALMAN_TOL, NASH_TOL, SHIFT_TOL, STRETCH_EQ_TOL, Verdict,
                               filter_agreement, filter_failure, nash_fixed_point,
                               shift_identity)
from stochalign.kalman import AlphaSchedule
from stochalign.model import ModelConfig
from stochalign.policies import Gain, PolicySpec, make_policy
from stochalign.structmat import StructuredMatrix

# the default settings give s = 1; each noise scale in turn raises s to 1e3
SCALES = [({}, 1.0), ({"sigma0": 1e3}, 1e3), ({"sigma_m": 1e3}, 1e3),
          ({"sigma_d": 1e3}, 1e3)]
SCALE_IDS = ["s=1", "sigma0", "sigma_m", "sigma_d"]


def above(bound):
    """The next double above bound."""
    return np.nextafter(bound, np.inf)


class TestFilterAgreement:
    @pytest.mark.parametrize("sigmas, s", SCALES, ids=SCALE_IDS)
    def test_covariance_bound_is_tol_times_s_squared(self, sigmas, s):
        cfg = ModelConfig(n=3, **sigmas)
        bound = KALMAN_TOL * s ** 2
        assert filter_agreement(cfg, 5, bound, 0.0).ok
        assert not filter_agreement(cfg, 5, above(bound), 0.0).ok

    @pytest.mark.parametrize("sigmas, s", SCALES, ids=SCALE_IDS)
    def test_gain_bound_is_unscaled(self, sigmas, s):
        cfg = ModelConfig(n=3, **sigmas)
        assert filter_agreement(cfg, 5, 0.0, KALMAN_TOL).ok
        assert not filter_agreement(cfg, 5, 0.0, above(KALMAN_TOL)).ok

    def test_line_names_the_worst_deviation_and_the_bounds(self):
        assert filter_agreement(ModelConfig(n=4), 60, 2e-10, 1e-9) == Verdict(
            "dense filter vs closed form, n=4, t<= 60: max entrywise deviation "
            "1.0000000000000001e-09 (pass at 1e-09)", True)
        assert filter_agreement(ModelConfig(n=2, sigma_d=1e3), 3, 2e-3, 0.0) == Verdict(
            "dense filter vs closed form, n=2, t<= 3: max entrywise deviation "
            "0.002 (FAIL at 0.001 for covariances, 1e-09 for gains)", False)

    def test_failure_line_names_the_round_and_the_error(self):
        exc = np.linalg.LinAlgError("Singular matrix")
        assert filter_failure(ModelConfig(n=2, sigma0=1e8, sigma_m=1e-3), 5, 0, exc) == Verdict(
            "dense filter vs closed form, n=2, t<= 5: the dense reference filter failed "
            "at round 0 (Singular matrix): FAIL", False)


def offset_gains(n, rounds, diag, off):
    """Two gains whose entries differ by exactly (diag, off) in every round."""
    return Gain(np.full(rounds, diag)), Gain(np.ones(rounds), StructuredMatrix(n, 0.0, -off))


def halves(verdict):
    """The verdict line's (shift spread, rule deviation)."""
    match = re.fullmatch(r"shift equivalence: stretch diff <= \S+, shift spread (\S+), "
                         r"rule deviation (\S+): (pass|FAIL)", verdict.line)
    assert match and (match[3] == "pass") == verdict.ok, verdict.line
    return float(match[1]), float(match[2])


class TestShiftIdentity:
    # against a zero rule the gains' entry differences are the rule
    # deviations themselves, and their difference the spread
    ZERO_RULE = np.zeros(11)

    @pytest.mark.parametrize("sigmas, s", SCALES, ids=SCALE_IDS)
    def test_stretch_bound_is_tol_times_s(self, sigmas, s):
        cfg = ModelConfig(n=4, horizon=10, **sigmas)
        gains = offset_gains(cfg.n, cfg.horizon, 0.0, 0.0)
        bound = STRETCH_EQ_TOL * s
        assert shift_identity(cfg, bound, *gains, self.ZERO_RULE).ok
        assert not shift_identity(cfg, above(bound), *gains, self.ZERO_RULE).ok

    @pytest.mark.parametrize("sigmas, s", SCALES, ids=SCALE_IDS)
    def test_rule_bound_is_unscaled(self, sigmas, s):
        # equal entry differences: no spread, each entry off the rule by the same
        cfg = ModelConfig(n=4, horizon=10, **sigmas)
        for dev, ok in ((SHIFT_TOL, True), (above(SHIFT_TOL), False)):
            verdict = shift_identity(cfg, 0.0, *offset_gains(cfg.n, cfg.horizon, dev, dev),
                                     self.ZERO_RULE)
            assert verdict.ok == ok and halves(verdict) == (0.0, dev)

    @pytest.mark.parametrize("sigmas, s", SCALES, ids=SCALE_IDS)
    def test_spread_bound_is_unscaled(self, sigmas, s):
        # opposite entry differences spread by twice what they are off the
        # rule, and halving a double is exact
        cfg = ModelConfig(n=4, horizon=10, **sigmas)
        for spread, ok in ((SHIFT_TOL, True), (above(SHIFT_TOL), False)):
            gains = offset_gains(cfg.n, cfg.horizon, spread / 2, -spread / 2)
            verdict = shift_identity(cfg, 0.0, *gains, self.ZERO_RULE)
            assert verdict.ok == ok and halves(verdict) == (spread, spread / 2)

    @pytest.mark.parametrize("offset, ok", [((0.9e-12, -0.9e-12), False),
                                            ((1.5e-12, 1.5e-12), False),
                                            ((0.0, 0.0), True)],
                             ids=["spread-alone", "rule-alone", "none"])
    def test_each_half_of_the_shift_check_fails_alone(self, offset, ok):
        # wstar's gain written as rho*(t) M(1, 0), with its (diagonal,
        # off-diagonal) entries offset by up to offset, in the round where
        # rho*(t) peaks: opposite offsets spread the gain difference by
        # twice what they move it off the rule, so the spread alone fails;
        # equal offsets keep the spread and move only the rule
        cfg = ModelConfig(n=4, horizon=10)
        rhos = AlphaSchedule(cfg, cfg.horizon).rhos()
        wstar = make_policy(PolicySpec(kind="wstar"), cfg)
        matc = make_policy(PolicySpec(kind="matc"), cfg)
        peak = wstar.scale.max()
        shifted = Gain(wstar.scale, StructuredMatrix(cfg.n, 1.0 + offset[0] / peak,
                                                     offset[1] / peak))
        verdict = shift_identity(cfg, 0.0, shifted, matc, rhos)
        spread, rule = halves(verdict)
        assert spread == pytest.approx(abs(offset[0] - offset[1]), abs=1e-15)
        assert rule == pytest.approx(abs(offset[0]), abs=1e-15)
        assert verdict.ok == ok


class TestNashFixedPoint:
    def test_bound(self):
        assert nash_fixed_point(NASH_TOL) == Verdict("nash fixed point at 1e-12: pass", True)
        assert nash_fixed_point(above(NASH_TOL)) == Verdict(
            "nash fixed point at 1e-12: FAIL", False)
