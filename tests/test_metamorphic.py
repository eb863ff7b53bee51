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


def assert_carried(base, moved, carry):
    """moved is base's run with every field carried by `carry`: the same
    iteration counts, and the same residual and verdict."""
    for want, got in zip(base[:3], moved[:3]):
        np.testing.assert_allclose(got, carry(want), rtol=0, atol=1e-12)
    report, diagnostics, verdict = base[3:]
    moved_report, moved_diagnostics, moved_verdict = moved[3:]
    assert diagnostics.iterations == moved_diagnostics.iterations > 1
    assert report.iterations == moved_report.iterations > 1
    np.testing.assert_allclose(moved_report.residual_l2, report.residual_l2, rtol=1e-12)
    np.testing.assert_allclose(moved_verdict.l2, verdict.l2, rtol=1e-12)
    np.testing.assert_allclose(moved_verdict.budget, verdict.budget, rtol=1e-12)


class TestTranslation:
    def test_rolling_the_torus_rolls_the_pair(self):
        # translating the torus by 3 cells along x0 commutes with every
        # stage: the spectral calculus is translation invariant, and the
        # descent and the Picard loop take the same steps
        omega = mixed_context().built_omega
        rolled = omega._like(np.roll(omega.coeffs, 3, axis=1))
        assert_carried(run_on(omega), run_on(rolled),
                       lambda field: np.roll(field, 3, axis=1))


class TestConjugation:
    def test_conjugating_the_connection_conjugates_the_pair(self):
        # Omega -> Q Omega Q^T for a constant rotation Q takes the Coulomb
        # gauge P to Q P Q^T and the pair (A, B) to (Q A Q^T, Q B Q^T); a
        # signed permutation moves and negates entries exactly, so the
        # conjugated connection is still exactly antisymmetric
        Q = np.array([[0.0, 0.0, 1.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])
        assert np.linalg.det(Q) == 1.0
        omega = mixed_context().built_omega
        conjugated = omega._like(Q @ omega.coeffs @ Q.T)
        assert conjugated.antisymmetry_defect() == 0.0
        assert_carried(run_on(omega), run_on(conjugated), lambda field: Q @ field @ Q.T)


def reflect_x0(field):
    """field with grid index j taken to -j mod res along x0."""
    res = field.shape[1]
    return np.take(field, -np.arange(res) % res, axis=1)


def swap_x0_x1(field):
    return np.ascontiguousarray(np.swapaxes(field, 1, 2))


class TestReflection:
    def test_reflecting_x0_reflects_the_pair(self):
        # x0 -> -x0 moves every field and negates each component with a
        # dx0: the connection's dx0, and B's dx0^dx1 and dx0^dx2.  P and A
        # are 0-forms; B is the one carried field with three components.
        omega = mixed_context().built_omega
        reflected = reflect_x0(omega.coeffs)
        reflected[0] *= -1.0

        def carry(field):
            out = reflect_x0(field)
            if len(field) == 3:
                out[:2] *= -1.0
            return out

        assert_carried(run_on(omega), run_on(omega._like(reflected)), carry)


class TestAxisSwap:
    def test_swapping_x0_and_x1_swaps_the_pair(self):
        # x0 <-> x1 exchanges the connection's dx0 and dx1; on B it negates
        # dx0^dx1 and exchanges dx0^dx2 and dx1^dx2
        omega = mixed_context().built_omega
        swapped = swap_x0_x1(omega.coeffs)[[1, 0, 2]]

        def carry(field):
            out = swap_x0_x1(field)
            if len(field) == 3:
                out = out[[0, 2, 1]]
                out[0] *= -1.0
            return out

        assert_carried(run_on(omega), run_on(omega._like(swapped)), carry)
