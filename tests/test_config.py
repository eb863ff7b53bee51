"""INI parsing, overrides, validation, and the config digest."""

import dataclasses

import pytest

from gaugeflow.config import RunConfig, config_hash, load_config

MINIMAL = """\
[grid]
n = 3
res = 16

[map]
kind = synthetic_omega
m = 3
seed = 5

[omega]
epsilon = 1e-2
"""


@pytest.fixture
def ini(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(MINIMAL)
    return path


class TestLoading:
    def test_fields_land_in_place(self, ini):
        cfg = load_config(ini)
        assert (cfg.n, cfg.res, cfg.m) == (3, 16, 3)
        assert cfg.map_kind == "synthetic_omega"
        assert cfg.epsilon == 1e-2
        assert cfg.solver_tol == 1e-8  # untouched default

    def test_overrides_win(self, ini):
        cfg = load_config(ini, ["solver.tol=1e-6", "grid.res=32",
                                "study.resolutions=8, 16, 32"])
        assert cfg.solver_tol == 1e-6 and cfg.res == 32
        assert cfg.resolutions == (8, 16, 32)

    def test_none_sentinels(self, ini):
        cfg = load_config(ini, ["solver.probe_seed=none"])
        assert cfg.probe_seed is None

    def test_unknown_key_rejected(self, ini):
        with pytest.raises(ValueError, match="unknown configuration key"):
            load_config(ini, ["solver.tolerance=1e-6"])
        ini.write_text(MINIMAL + "\n[solver]\nspeed = 11\n")
        with pytest.raises(ValueError, match="unknown configuration key"):
            load_config(ini)

    def test_nan_refused_for_every_key(self, ini):
        # even a key no stage of this run reads
        with pytest.raises(ValueError, match="cannot be NaN"):
            load_config(ini, ["map.delta=nan"])

    def test_file_parse_error_names_the_key(self, ini):
        ini.write_text(MINIMAL.replace("res = 16", "res = abc"))
        with pytest.raises(ValueError, match=r"^grid\.res: invalid literal"):
            load_config(ini)

    def test_override_parse_error_names_the_key(self, ini):
        with pytest.raises(ValueError, match=r"^grid\.res: invalid literal"):
            load_config(ini, ["solver.tol=1e-6", "grid.res=abc"])
        with pytest.raises(ValueError, match=r"^solver\.regime_limit: .*cannot be NaN"):
            load_config(ini, ["solver.regime_limit=nan"])

    def test_malformed_override(self, ini):
        with pytest.raises(ValueError, match="section.key=value"):
            load_config(ini, ["solver.tol"])

    def test_unparseable_file(self, tmp_path):
        path = tmp_path / "broken.ini"
        path.write_text("res = 16\n")  # key outside any section
        with pytest.raises(ValueError, match="cannot parse"):
            load_config(path)


class TestValidation:
    def test_defaults_are_valid(self):
        RunConfig()

    @pytest.mark.parametrize("changes,hint", [
        ({"map_kind": "vortex"}, "map kind"),
        ({"base": "torus"}, "base map"),
        ({"n": 5}, "dimension"),
        ({"res": 17}, "even"),
        ({"resolutions": (16, 17)}, "even"),
        ({"gauge_tol": 0.0}, "positive"),
        ({"solver_max_iter": 0}, "at least 1"),
        ({"delta": -0.1}, "noise amplitude"),
        ({"kmin": 3, "kmax": 2}, "kmin <= kmax"),
        ({"map_kind": "synthetic_omega", "exact_frac": 1.5}, r"\[0, 1\]"),
        ({"epsilon": -1.0}, "nonnegative"),
        ({"regime_limit": 0.0}, "positive"),
        ({"map_kind": "heatflow", "seed": None}, "seed"),
        ({"map_kind": "geodesic", "wave": (0, 0, 0)}, "wave"),
        ({"map_kind": "geodesic", "wave": (1, 0)}, "wave"),
        ({"map_kind": "synthetic_omega", "omega_kmax": 0}, "kmin <= kmax"),
        ({"n": 4, "res": 216}, "address budget"),
        # what a stage would refuse at res or at a study rung
        ({"resolutions": (8, 16, 32)}, "band kmax=4 unresolved at res=8"),
        ({"map_kind": "synthetic_omega", "support": "disc"}, "unknown support"),
        ({"delta": 0.5}, r"noise amplitude must lie in \[0, 0.2\]"),
        ({"base": "geodesic", "wave": (3, 0, 0), "res": 8},
         r"wave \[3, 0, 0\] unresolved at res=8"),
        # NaN fails every rule
        ({"regime_limit": float("nan")}, "regime_limit must be positive"),
        ({"solver_tol": float("nan")}, "solver_tol must be positive"),
        ({"gauge_tol": float("nan")}, "gauge_tol must be positive"),
        ({"flow_time": float("nan")}, "flow_time must be positive"),
        ({"epsilon": float("nan")}, "finite and nonnegative"),
        ({"epsilon": float("inf")}, "finite and nonnegative"),
        ({"delta": float("nan")}, "noise amplitude"),
        ({"map_kind": "synthetic_omega", "exact_frac": float("nan")}, r"\[0, 1\]"),
    ])
    def test_bad_values_rejected(self, changes, hint):
        with pytest.raises(ValueError, match=hint):
            dataclasses.replace(RunConfig(), **changes)

    @pytest.mark.parametrize("changes", [
        {"delta": 0.0, "resolutions": (8, 16, 32)},  # no noise band is drawn
        {"support": "disc"},  # a map run draws no synthetic connection
        {"map_kind": "synthetic_omega", "epsilon": 0.0, "omega_kmax": 5},
        {"map_kind": "geodesic", "delta": 0.5, "kmax": 9},
        {"exact_frac": 1.5},  # a map run draws no synthetic connection
        {"omega_kmax": 0},
        {"map_kind": "synthetic_omega", "delta": -0.1},  # nor any map noise
    ])
    def test_rules_apply_only_where_a_stage_draws(self, changes):
        dataclasses.replace(RunConfig(), **changes)

    def test_unbounded_regime_limit_is_valid(self):
        assert RunConfig(regime_limit=float("inf")).regime_limit == float("inf")

    def test_geodesic_base_needs_wave(self):
        with pytest.raises(ValueError, match="wave"):
            RunConfig(map_kind="perturbed", base="geodesic", wave=(0, 0, 0))


class TestHash:
    def test_stable_and_short(self, ini):
        cfg = load_config(ini)
        digest = config_hash(cfg)
        assert digest == config_hash(load_config(ini))
        assert len(digest) == 12 and int(digest, 16) >= 0

    def test_sensitive_to_run_defining_fields(self, ini):
        cfg = load_config(ini)
        seen = {config_hash(cfg)}
        for changes in ({"res": 32}, {"seed": 6}, {"solver_tol": 1e-9},
                        {"gauge_tol": 1e-4}):
            digest = config_hash(dataclasses.replace(cfg, **changes))
            assert digest not in seen
            seen.add(digest)

    def test_output_location_does_not_define_the_run(self, ini):
        cfg = load_config(ini)
        moved = dataclasses.replace(cfg, out_dir="elsewhere")
        assert config_hash(moved) == config_hash(cfg)
