"""Tests for window selection, config parsing, experiments, and the CLI."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablechaos.cli import main as cli_main
from stablechaos.distributions import StableSpec, validate_heavy_tail
from stablechaos.errors import ConfigError, UncoveredCase
from stablechaos.harness import (
    ExperimentConfig,
    choose_delta,
    clt_rate_experiment,
    parse_config,
    run_experiment,
    selfsim_experiment,
)
from stablechaos.models import InitSpec, ModelSpec, RateSpec
from stablechaos.rngtools import stream


class TestChooseDelta:
    def test_low_alpha_reference_case(self):
        delta, eta, exponent = choose_delta(0.8, 0.5, 64)
        assert eta == pytest.approx(0.2)
        assert exponent == pytest.approx(-0.2)
        assert delta == pytest.approx(64.0 ** -0.2)

    def test_low_alpha_second_case(self):
        _, eta, exponent = choose_delta(0.5, 0.2, 100)
        assert eta == pytest.approx(0.2)
        assert exponent == pytest.approx(-0.2)

    def test_high_alpha_small_gamma(self):
        _, eta, exponent = choose_delta(1.5, 0.3, 100)
        assert eta == pytest.approx(0.45 / 2.2)
        assert exponent == pytest.approx(-0.3 / (2.25 * 2.2))

    def test_high_alpha_middle_gamma(self):
        # gamma in (alpha/2, 2 - alpha) selects the 1/2 branch
        _, eta, exponent = choose_delta(1.2, 0.7, 100)
        denom = 1.0 - 1.2 + 0.5 * 1.44 + 1.44
        assert eta == pytest.approx(0.5 * 1.44 / denom)
        assert exponent == pytest.approx(-0.5 / (denom * 1.2))

    def test_high_alpha_large_gamma_branch(self):
        # gamma > 2 - alpha with alpha > 4/3 selects C = (2 - alpha)/alpha
        _, eta, exponent = choose_delta(1.5, 0.8, 100)
        c = 0.5 / 1.5
        denom = 1.0 - 1.5 + c * 2.25 + 2.25
        assert eta == pytest.approx(c * 2.25 / denom)

    @pytest.mark.parametrize(
        "alpha,gamma",
        [
            (1.0, 0.5),        # alpha = 1
            (1.5, 0.75),       # gamma = alpha/2 boundary
            (1.5, 0.5),        # gamma = 2 - alpha boundary
            (0.6, 0.4),        # gamma = 1 - alpha (alpha < 1)
            (4.0 / 3.0, 0.9),  # alpha = 4/3 with gamma > 2 - alpha
        ],
    )
    def test_uncovered_cases(self, alpha, gamma):
        with pytest.raises(UncoveredCase):
            choose_delta(alpha, gamma, 100)

    @given(
        alpha=st.floats(0.2, 1.9).filter(lambda a: abs(a - 1.0) > 0.03),
        gamma=st.floats(0.05, 1.2),
    )
    @settings(max_examples=300, deadline=None)
    def test_eta_always_admissible(self, alpha, gamma):
        try:
            delta, eta, exponent = choose_delta(alpha, gamma, 1000)
        except UncoveredCase:
            return
        # N delta(N) -> infinity requires eta < 1
        assert 0.0 < eta < 1.0
        assert exponent < 0.0
        assert delta == pytest.approx(1000.0 ** -eta)


SELF_SIM_CONFIG = """\
[experiment]
kind = selfsim
n_windows = 2000
poisson_mean = 50
master_seed = 5

[model]
f = constant
c = 1.0

[law]
mode = stable
alpha = 1.5
a_plus = 0.3
a_minus = 0.3
"""

LAW_SECTIONS = {
    "stable": {"alpha": 1.5, "a_plus": 0.3, "a_minus": 0.3},
    "heavy": {"alpha": 0.8, "gamma": 0.5, "big_a": 0.2, "a_tilde": 0.1},
}


class TestConfigParsing:
    def test_selfsim_roundtrip(self, tmp_path):
        p = tmp_path / "cfg.ini"
        p.write_text(SELF_SIM_CONFIG)
        cfg = parse_config(p)
        assert cfg.experiment == "selfsim"
        assert cfg.n_windows == 2000
        assert isinstance(cfg.law, StableSpec)
        assert cfg.master_seed == 5

    def test_seed_override(self, tmp_path):
        p = tmp_path / "cfg.ini"
        p.write_text(SELF_SIM_CONFIG)
        assert parse_config(p, seed_override=99).master_seed == 99

    def test_heavy_law_section(self, tmp_path):
        p = tmp_path / "cfg.ini"
        p.write_text(
            "[experiment]\nkind = clt-rate\n\n[law]\nmode = heavy\nalpha = 0.8\n"
            "gamma = 0.5\nbeta = 0.5\nbig_a = 0.2\na_tilde = 0.1\ncutoff = 1.0\n"
        )
        cfg = parse_config(p)
        assert cfg.law.alpha == 0.8
        assert cfg.law.beta == 0.5

    @pytest.mark.parametrize(
        "mode,key", [(mode, key) for mode, law in LAW_SECTIONS.items() for key in law]
    )
    def test_missing_law_key_named(self, tmp_path, mode, key):
        p = tmp_path / "cfg.ini"
        lines = [f"mode = {mode}"]
        lines += [f"{k} = {v}" for k, v in LAW_SECTIONS[mode].items() if k != key]
        p.write_text("[experiment]\nkind = selfsim\n\n[law]\n" + "\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match=rf"\[law\] {key} "):
            parse_config(p)

    @pytest.mark.parametrize(
        "section,key,value",
        [
            ("law", "alpha", "x"),
            ("experiment", "replications", "many"),
            ("experiment", "master_seed", "1.5"),
            ("experiment", "n_list", "64, abc"),
            ("model", "c", "one"),
        ],
    )
    def test_non_numeric_value_named(self, tmp_path, capsys, section, key, value):
        p = tmp_path / "cfg.ini"
        lines = SELF_SIM_CONFIG.splitlines()
        head = lines.index(f"[{section}]")
        lines = [ln for ln in lines if not ln.startswith(f"{key} =")]
        lines.insert(head + 1, f"{key} = {value}")
        p.write_text("\n".join(lines) + "\n")
        assert cli_main(["selfsim", "--config", str(p), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"[{section}] {key}" in err and repr(value) in err

    @pytest.mark.parametrize(
        "section,key,value,law",
        [
            ("law", "mode", "stabel", "heavy"),
            ("law", "mode", "stabel", "stable"),
            ("model", "b", "tanhh", "stable"),
            ("model", "f", "logistik", "stable"),
            ("model", "psi", "tanhh", "stable"),
            ("model", "nu0", "gauss", "stable"),
        ],
    )
    def test_unknown_family_named(self, tmp_path, capsys, section, key, value, law):
        sections = {
            "experiment": {"kind": "selfsim", "n_windows": 200},
            "model": {},
            "law": {"mode": law, **LAW_SECTIONS[law]},
        }
        sections[section][key] = value
        p = tmp_path / "cfg.ini"
        p.write_text("".join(
            f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in body.items()) + "\n"
            for name, body in sections.items()
        ))
        assert cli_main(["selfsim", "--config", str(p), "--out", str(tmp_path / "out")]) == 2
        assert f"[{section}] {key}" in capsys.readouterr().err

    def test_validation_rejects_zero_replications(self, tmp_path):
        p = tmp_path / "cfg.ini"
        p.write_text(SELF_SIM_CONFIG.replace("master_seed = 5", "replications = 0"))
        cfg = parse_config(p)
        with pytest.raises(Exception):
            cfg.validate()


class TestSelfSim:
    def test_small_run_statistics(self):
        spec = StableSpec(alpha=1.5, a_plus=0.3, a_minus=0.3)
        res = selfsim_experiment(spec, 5000, 50.0, stream(1, "selfsim"))
        assert res["ks_stat"] < 0.05
        assert res["chi2_p"] > 0.01
        assert res["frac_fresh"] == 0.0


class TestCltRate:
    def test_near_stable_law_is_close_immediately(self):
        # almost-pure power tail: distance is small for every n and the fit
        # runs without issue
        heavy = validate_heavy_tail(1.5, 0.3, 0.0, 0.2, 1e-9, 1.0)
        res = clt_rate_experiment(heavy, [50, 100, 200], 2000, 100_000, stream(2, "clt"))
        for _, dist, metric in res["rows"]:
            assert metric == "w1"
            assert dist < 0.3


class TestRunExperiment:
    def test_selfsim_outputs(self, tmp_path):
        p = tmp_path / "cfg.ini"
        p.write_text(SELF_SIM_CONFIG)
        out = tmp_path / "out"
        assert run_experiment(parse_config(p), str(out)) == 0
        text = (out / "selfsim.csv").read_text()
        assert text.splitlines()[0] == "alpha,n_windows,poisson_mean,ks_stat,chi2_p,frac_fresh"
        assert (out / "manifest.json").exists()

    def test_byte_identical_rerun(self, tmp_path):
        p = tmp_path / "cfg.ini"
        p.write_text(SELF_SIM_CONFIG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_experiment(parse_config(p), str(out1))
        run_experiment(parse_config(p), str(out2))
        assert (out1 / "selfsim.csv").read_bytes() == (out2 / "selfsim.csv").read_bytes()
        assert (out1 / "manifest.json").read_bytes() == (out2 / "manifest.json").read_bytes()

    def test_invalid_config_exit_code(self, tmp_path, capsys):
        cfg = ExperimentConfig(
            experiment="selfsim",
            model=ModelSpec(f=RateSpec("constant", c=1.0), nu0=InitSpec("point", 0.0)),
            law=StableSpec(alpha=1.5, a_plus=0.3, a_minus=0.3),
            replications=0,
        )
        assert run_experiment(cfg, str(tmp_path / "out")) == 2
        assert "replications" in capsys.readouterr().err

    def test_coupling_sweep_csv_schema(self, tmp_path):
        heavy = validate_heavy_tail(0.8, 0.5, 0.0, 0.2, 0.1, 1.0)
        cfg = ExperimentConfig(
            experiment="coupling-sweep",
            model=ModelSpec(f=RateSpec("constant", c=1.0), nu0=InitSpec("gaussian", 0.0, 1.0)),
            law=heavy,
            n_list=(64, 128, 256),
            alpha_minus=0.72,
            replications=3,
            master_seed=3,
            obs_count=3,
        )
        out = tmp_path / "out"
        assert run_experiment(cfg, str(out)) == 0
        lines = (out / "coupling_sweep.csv").read_text().splitlines()
        assert lines[0] == "t,err_mean,err_se,err_censored_mean,censor_frac,N,delta,K,alpha,gamma,seed"
        assert len(lines) == 1 + 3 * 3
        summary = (out / "coupling_summary.csv").read_text().splitlines()
        assert summary[0] == "fitted_slope,stderr,predicted_exponent"

    def test_chaos_csv_schema(self, tmp_path):
        heavy = validate_heavy_tail(0.8, 0.5, 0.0, 0.2, 0.1, 1.0)
        cfg = ExperimentConfig(
            experiment="chaos-test",
            model=ModelSpec(f=RateSpec("constant", c=1.0), nu0=InitSpec("gaussian", 0.0, 1.0)),
            law=heavy,
            n_list=(64, 128, 256),
            alpha_minus=0.72,
            replications=3,
            master_seed=3,
            obs_count=3,
        )
        out = tmp_path / "out"
        assert run_experiment(cfg, str(out)) == 0
        lines = (out / "chaos.csv").read_text().splitlines()
        assert lines[0] == "N,terminal_distance,metric,alpha,seed"
        assert len(lines) == 4


class TestDegenerateSweeps:
    @staticmethod
    def _config(experiment, **kwargs):
        defaults = dict(
            experiment=experiment,
            model=ModelSpec(f=RateSpec("constant", c=1.0), nu0=InitSpec("gaussian", 0.0, 1.0)),
            law=validate_heavy_tail(0.8, 0.5, 0.0, 0.2, 0.1, 1.0),
            n_list=(64, 128, 256),
            alpha_minus=0.72,
            replications=2,
            master_seed=3,
            obs_count=3,
        )
        defaults.update(kwargs)
        return ExperimentConfig(**defaults)

    @pytest.mark.parametrize("n_list", [(64, 128), (64, 64, 128), (1, 64, 128)])
    def test_sweep_needs_three_distinct_n(self, tmp_path, capsys, n_list):
        out = tmp_path / "out"
        assert run_experiment(self._config("coupling-sweep", n_list=n_list), str(out)) == 2
        assert "n_list" in capsys.readouterr().err
        assert not (out / "coupling_sweep.csv").exists()

    @pytest.mark.parametrize("experiment", ["coupling-sweep", "chaos-test"])
    def test_all_censored_is_an_error(self, tmp_path, capsys, experiment):
        out = tmp_path / "out"
        assert run_experiment(self._config(experiment, K=0.001), str(out)) == 2
        err = capsys.readouterr().err
        assert "truncation" in err and "N=64" in err
        assert not any(out.glob("*.csv"))


class TestCli:
    def test_selfsim_smoke(self, tmp_path):
        p = tmp_path / "cfg.ini"
        p.write_text(SELF_SIM_CONFIG)
        out = tmp_path / "out"
        assert cli_main(["selfsim", "--config", str(p), "--out", str(out)]) == 0
        assert (out / "selfsim.csv").exists()

    def test_subcommand_mismatch(self, tmp_path):
        p = tmp_path / "cfg.ini"
        p.write_text(SELF_SIM_CONFIG)
        assert cli_main(["clt-rate", "--config", str(p), "--out", str(tmp_path / "o")]) == 2

    def test_missing_config(self, tmp_path):
        assert cli_main(["selfsim", "--config", str(tmp_path / "nope.ini")]) == 2

    def test_validate_subcommand(self, tmp_path, capsys):
        p = tmp_path / "cfg.ini"
        p.write_text(SELF_SIM_CONFIG)
        assert cli_main(["validate", "--config", str(p)]) == 0
        assert "overall: PASS" in capsys.readouterr().out

    def test_env_seed_override(self, tmp_path, monkeypatch):
        p = tmp_path / "cfg.ini"
        p.write_text(SELF_SIM_CONFIG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        monkeypatch.setenv("STABLECHAOS_SEED", "123")
        cli_main(["selfsim", "--config", str(p), "--out", str(out1)])
        monkeypatch.delenv("STABLECHAOS_SEED")
        cli_main(["selfsim", "--config", str(p), "--seed", "123", "--out", str(out2)])
        assert (out1 / "selfsim.csv").read_bytes() == (out2 / "selfsim.csv").read_bytes()

    @pytest.mark.parametrize(
        "env,argv,needle",
        [
            ({"STABLECHAOS_SEED": "x"}, [], "STABLECHAOS_SEED"),
            ({"STABLECHAOS_THREADS": "two"}, [], "STABLECHAOS_THREADS"),
            ({"STABLECHAOS_THREADS": "0"}, [], "STABLECHAOS_THREADS"),
            ({}, ["--threads", "0"], "--threads"),
            ({}, ["--threads", "-1"], "--threads"),
        ],
        ids=["seed-env-text", "threads-env-text", "threads-env-zero", "threads-zero", "threads-negative"],
    )
    def test_bad_override_exit_code(self, tmp_path, monkeypatch, capsys, env, argv, needle):
        p = tmp_path / "cfg.ini"
        p.write_text(SELF_SIM_CONFIG)
        for key, val in env.items():
            monkeypatch.setenv(key, val)
        out = tmp_path / "out"
        assert cli_main(["selfsim", "--config", str(p), "--out", str(out)] + argv) == 2
        assert needle in capsys.readouterr().err
        assert not out.exists()
