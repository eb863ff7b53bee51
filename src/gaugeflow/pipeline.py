"""Pipeline orchestration: build, gauge, solve, verify, and study stages.

Every command materializes its prerequisites in-process, writes one
structured-text report per stage plus fixed-column CSV tables, and embeds the
configuration digest in each document so artifacts are self-describing.  With
the same configuration and seed, every byte written is identical across runs:
no timestamps, no machine identifiers.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import json
from pathlib import Path

import numpy as np

from . import connection, fieldio, gauge, maps, solver, synth, verify
from .config import RunConfig, config_hash
from .forms import Grid, MatrixForm

__all__ = ["PipelineError", "STAGES", "run"]

STAGES = ("generate", "omega", "gauge", "solve", "verify", "study")


class PipelineError(RuntimeError):
    """A stage failed; the message carries the stage and the config digest."""


def _build_map(cfg: RunConfig, res: int):
    grid = Grid(cfg.n, res)
    if cfg.map_kind == "synthetic_omega":
        return None
    if cfg.map_kind == "geodesic":
        return maps.geodesic_map(grid, cfg.m, cfg.wave)
    base = (maps.constant_map(grid, cfg.m) if cfg.base == "constant"
            else maps.geodesic_map(grid, cfg.m, cfg.wave))
    u = maps.perturbed_map(base, cfg.delta, cfg.seed,
                           kmin=cfg.kmin, kmax=cfg.kmax)
    if cfg.map_kind == "perturbed":
        return u
    tau, steps = maps.flow_plan(grid, cfg.flow_time, cfg.flow_steps)
    return maps.heat_flow_relax(u, tau=tau, steps=steps)


def _build_omega(cfg: RunConfig, res: int, u) -> MatrixForm:
    if cfg.map_kind != "synthetic_omega":
        return connection.omega_sphere(u)
    grid = Grid(cfg.n, res)
    if cfg.epsilon == 0.0:
        return MatrixForm.zeros(grid, 1, cfg.m)
    rng = np.random.default_rng(cfg.seed)
    return synth.synthetic_connection(
        grid, cfg.m, rng, kmax=cfg.omega_kmax, exact_frac=cfg.exact_frac,
        target_norm=cfg.epsilon, support=cfg.support)


class _Context:
    """Lazily computed stage products for one configuration and resolution.

    Omega is kept as so(m) channels with its sizes (synth.Connection); the
    full form it is built as goes as soon as the channels are taken.
    The gauge pair is the one product that is not kept: the solve takes the
    context's only reference to it, so P and xi are freed before the first
    Picard step, and only the gauge diagnostics stay.
    """

    def __init__(self, cfg: RunConfig, res: int | None = None):
        self.cfg = cfg
        self.res = res or cfg.res
        self._pair = None

    @functools.cached_property
    def map(self):
        return _build_map(self.cfg, self.res)

    @functools.cached_property
    def built_omega(self) -> MatrixForm:
        """Omega as built, which the omega stage writes and measures."""
        return _build_omega(self.cfg, self.res, self.map)

    @functools.cached_property
    def omega(self) -> synth.Connection:
        omega = synth.Connection.of(self.built_omega)
        del self.built_omega
        return omega

    @functools.cached_property
    def tension(self) -> float:
        return maps.tension_residual(self.map)

    @functools.cached_property
    def gauge_diagnostics(self) -> gauge.GaugeDiagnostics:
        self._pair = gauge.minimize_gauge(self.omega, tol=self.cfg.gauge_tol,
                                          max_iter=self.cfg.gauge_max_iter)
        return self._pair.diagnostics

    @property
    def pair(self) -> gauge.GaugePair:
        """The gauge pair, computed once, until the solve takes it."""
        self.gauge_diagnostics  # runs the gauge descent on first use
        if self._pair is None:
            raise RuntimeError("the gauge pair has gone to the solve")
        return self._pair

    @functools.cached_property
    def solved(self) -> tuple:
        # The map is all the solve reads of the gauge pair: dropping the
        # context's reference frees P and xi before the Picard loop.
        pmap = solver.PicardMap.of(self.pair)
        self._pair = None
        return solver.solve_pair(
            self.omega, pmap, tol=self.cfg.solver_tol,
            max_iter=self.cfg.solver_max_iter,
            regime_limit=self.cfg.regime_limit,
            probe_seed=self.cfg.probe_seed)

    def residual_report(self) -> verify.ResidualReport:
        """The judged certificate, which verify and every study rung run."""
        A, B, report = self.solved
        budget = (("harmonic", self.gauge_diagnostics.harmonic),
                  ("representation", self.gauge_diagnostics.representation),
                  ("tolerance", self.cfg.solver_tol))
        if self.map is None:
            measured = verify.ResidualReport(report.residual_l2, report.residual_sup)
        else:
            measured = verify.conservation_residual(A, B, self.map)
            budget = (("tension", self.tension),) + budget
        judged = verify.judge(measured, budget)
        if report.negdet_points:  # refused after the budget verdict
            raise ValueError(
                f"{report.negdet_points} points have a non-positive determinant")
        return judged


def _doc(cfg: RunConfig, stage: str, body: dict) -> dict:
    return {"stage": stage, "config_hash": config_hash(cfg),
            "couplings_version": solver.COUPLINGS_VERSION,
            "config": cfg.as_dict(), **body}


# Each writer returns the path it wrote, and each stage runner the paths of
# every file it wrote, in writing order.

def _write_json(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def _write_csv(path: Path, header: tuple, rows) -> Path:
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path


def _write_plot(path: Path, columns: tuple, pairs) -> Path:
    lines = [f"# {columns[0]} {columns[1]}"]
    lines += [f"{x:.17e} {y:.17e}" for x, y in pairs]
    path.write_text("\n".join(lines) + "\n")
    return path


def _stage_generate(ctx: _Context, out: Path) -> list:
    cfg = ctx.cfg
    if ctx.map is None:
        raise ValueError("synthetic_omega configurations have no map to generate")
    written = [*fieldio.write_field(out / "map.f64", ctx.map)]
    body = {"map_kind": cfg.map_kind,
            "tension": ctx.tension,
            "dirichlet_energy": maps.dirichlet_energy(ctx.map)}
    if cfg.map_kind == "heatflow":
        tau, steps = maps.flow_plan(ctx.map.grid, cfg.flow_time, cfg.flow_steps)
        body["flow"] = {"tau": tau, "steps": steps, "time": cfg.flow_time}
    return written + [_write_json(out / "generate.json", _doc(cfg, "generate", body))]


def _stage_omega(ctx: _Context, out: Path) -> list:
    # written as built, before the channels drop the full form
    written = [*fieldio.write_field(out / "omega.f64", ctx.built_omega)]
    omega = ctx.omega
    body = {"l2": omega.l2, "sup": omega.sup, "lorentz_n2": omega.n2,
            "antisymmetry_defect": omega.defect}
    return written + [_write_json(out / "omega.json", _doc(ctx.cfg, "omega", body))]


def _stage_gauge(ctx: _Context, out: Path) -> list:
    pair = ctx.pair
    written = [*fieldio.write_field(out / "rotation.f64", pair.P),
               *fieldio.write_field(out / "potential.f64", pair.xi.expanded())]
    diag = dataclasses.asdict(pair.diagnostics)
    return written + [_write_json(out / "gauge.json", _doc(ctx.cfg, "gauge", diag))]


def _stage_solve(ctx: _Context, out: Path) -> list:
    A, B, report = ctx.solved
    written = [*fieldio.write_field(out / "a_field.f64", A),
               *fieldio.write_field(out / "b_field.f64", B)]
    diffs = [d.total for d in report.diff_norms]
    body = dataclasses.asdict(report)
    body["diff_totals"] = diffs
    body["harmonic_budget"] = ctx.gauge_diagnostics.harmonic
    rows = [(i + 1, diffs[i], report.ratios[i - 1] if i else "")
            for i in range(len(diffs))]
    return written + [
        _write_json(out / "solve.json", _doc(ctx.cfg, "solve", body)),
        _write_csv(out / "solve.csv", ("iteration", "difference", "ratio"), rows),
        _write_plot(out / "plot_iteration_vs_kappa.dat", ("iteration", "kappa"),
                    [(float(i + 1), report.ratios[i - 1])
                     for i in range(1, len(diffs))])]


def _verify_rows(ctx: _Context, residual, bounds) -> list:
    rows = [("residual_l2", residual.l2),
            ("residual_sup", residual.sup),
            ("budget", residual.budget),
            ("coordinate_gap", residual.coordinate_gap)]
    rows += [(f"budget_{name}", value) for name, value in residual.components]
    if ctx.map is not None:
        sphere = verify.sphere_divergence_residual(ctx.omega.expanded())
        rows += [("sphere_divergence_l2", sphere.l2),
                 ("sphere_divergence_sup", sphere.sup)]
    rows += [("rotation_distance_sup", bounds.rotation_distance_sup),
             ("negdet_points", bounds.negdet_points),
             ("da_n1", bounds.da_n1), ("db_n2", bounds.db_n2),
             ("omega_n2", bounds.omega_n2), ("bound_ratio", bounds.ratio)]
    return rows


def _stage_verify(ctx: _Context, out: Path) -> list:
    _, _, report = ctx.solved
    residual = ctx.residual_report()
    # the solver already measured every size of the existence estimate
    bounds = verify.BoundTable.from_sizes(
        report.rotation_distance_sup, report.negdet_points, report.da_n1,
        report.db_n2, report.omega_n2)
    rows = _verify_rows(ctx, residual, bounds)
    body = {"residual": dataclasses.asdict(residual),
            "bounds": dataclasses.asdict(bounds)}
    return [_write_json(out / "verify.json", _doc(ctx.cfg, "verify", body)),
            _write_csv(out / "verify.csv", ("metric", "value"), rows)]


def _stage_study(ctx: _Context, out: Path) -> list:
    cfg = ctx.cfg
    collected = {}

    def evaluate(res: int) -> verify.ResidualReport:
        report = _Context(cfg, res).residual_report()
        collected[res] = report
        return report

    report = verify.convergence_study(evaluate, cfg.resolutions)
    rows = [(res, 1.0 / res, collected[res].l2, collected[res].sup,
             collected[res].budget, report.order)
            for res in cfg.resolutions]
    return [_write_json(out / "study.json",
                        _doc(cfg, "study", {"residual": dataclasses.asdict(report)})),
            _write_csv(out / "study.csv",
                       ("resolution", "h", "residual_l2", "residual_sup",
                        "budget", "order"), rows),
            _write_plot(out / "plot_h_vs_residual.dat", ("h", "residual_l2"),
                        [(1.0 / res, collected[res].l2) for res in cfg.resolutions])]


_RUNNERS = {
    "generate": _stage_generate,
    "omega": _stage_omega,
    "gauge": _stage_gauge,
    "solve": _stage_solve,
    "verify": _stage_verify,
    "study": _stage_study,
}


def _chain(cfg: RunConfig, command: str) -> tuple:
    if command == "study":
        return ("study",)
    upstream = ("generate", "omega", "gauge", "solve", "verify")
    chain = upstream[:upstream.index(command) + 1]
    if cfg.map_kind == "synthetic_omega" and command != "generate":
        chain = chain[1:]
    return chain


def run(cfg: RunConfig, command: str) -> dict:
    """Run a command and its prerequisites; returns {stage: [artifact paths]}.

    Any failure is re-raised as PipelineError tagged with the stage name and
    the configuration digest.
    """
    if command not in STAGES:
        raise ValueError(f"unknown command {command!r}, expected one of {STAGES}")
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ctx = _Context(cfg)
    written = {}
    for stage in _chain(cfg, command):
        try:
            paths = _RUNNERS[stage](ctx, out)
        except Exception as exc:
            raise PipelineError(
                f"stage {stage} failed (config {config_hash(cfg)}): {exc}"
            ) from exc
        written[stage] = [str(path) for path in paths]
    return written
