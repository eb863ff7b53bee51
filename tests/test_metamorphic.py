"""Metamorphic tests of the pipeline: a symmetry of the input carries through
the gauge, the solve and the verdict."""

from pathlib import Path

import numpy as np

from gaugeflow import config, pipeline

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
# the mixed synthetic connection on which the gauge and the Picard loop iterate
MIXED = ["grid.res=16", "omega.epsilon=0.3", "omega.exact_frac=0.5"]


def mixed_context():
    return pipeline._Context(config.load_config(CONFIGS / "synthetic_coexact.ini", MIXED))


def run_on(built_omega):
    """Gauge, solve and judge a given connection as the verify stage does;
    the judged report raises on a failed verdict."""
    ctx = mixed_context()
    ctx.built_omega = built_omega
    P = ctx.pair.P.coeffs
    A, B, report = ctx.solved
    return P, A.coeffs, B.coeffs, report, ctx.gauge_diagnostics, ctx.residual_report()


class TestTranslation:
    def test_rolling_the_torus_rolls_the_pair(self):
        # translating the torus by 3 cells along x0 commutes with every
        # stage: the spectral calculus is translation invariant, and the
        # descent and the Picard loop take the same steps
        omega = mixed_context().built_omega
        rolled = omega._like(np.roll(omega.coeffs, 3, axis=1))
        base, moved = run_on(omega), run_on(rolled)
        for want, got in zip(base[:3], moved[:3]):
            np.testing.assert_allclose(got, np.roll(want, 3, axis=1), rtol=0, atol=1e-12)
        report, diagnostics, verdict = base[3:]
        moved_report, moved_diagnostics, moved_verdict = moved[3:]
        assert diagnostics.iterations == moved_diagnostics.iterations > 1
        assert report.iterations == moved_report.iterations > 1
        np.testing.assert_allclose(moved_report.residual_l2, report.residual_l2, rtol=1e-12)
        np.testing.assert_allclose(moved_verdict.l2, verdict.l2, rtol=1e-12)
        np.testing.assert_allclose(moved_verdict.budget, verdict.budget, rtol=1e-12)
