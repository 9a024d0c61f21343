import json
from pathlib import Path

import pytest

from nctransport import arakiwoods
from nctransport.cli import (
    EXIT_HYPOTHESIS,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    load_config,
    run,
)


@pytest.fixture()
def config_n1(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(
        json.dumps(
            {
                "lambdas": [],
                "num_trivial": 1,
                "q": 0.3,
                "R": 4.0,
                "degree_cap": 8,
            }
        )
    )
    return str(path)


def test_load_config_defaults(config_n1):
    cfg = load_config(config_n1)
    assert cfg.num_vars == 1
    assert cfg.R == 4.0 and cfg.R_prime == 5.0
    assert cfg.rho == 1.0 and cfg.level_cap == 8


def test_load_config_validation(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"lambdas": [], "num_trivial": 1, "num_vars": 3}))
    with pytest.raises(ValueError):
        load_config(str(bad))
    bad.write_text(json.dumps({"lambdas": [], "num_trivial": 0}))
    with pytest.raises(ValueError):
        load_config(str(bad))
    bad.write_text(json.dumps({"lambdas": [], "num_trivial": 1, "q": 1.5}))
    with pytest.raises(ValueError):
        load_config(str(bad))
    bad.write_text(json.dumps({"lambdas": [2.0], "q": 3e-5, "level_cap": -1}))
    with pytest.raises(ValueError):
        load_config(str(bad))
    # max_iterations is checked where the transport configuration is built
    bad.write_text(json.dumps({"lambdas": [2.0], "q": 3e-5, "max_iterations": 0}))
    with pytest.raises(ValueError):
        load_config(str(bad)).transport()
    assert run(["q-isomorphism", "--config", str(bad), "--quiet"]) == EXIT_USAGE


def test_moments_command(config_n1, capsys):
    code = run(["moments", "--config", config_n1, "--word", "1,1,1,1"])
    assert code == EXIT_OK
    out = capsys.readouterr().out.strip()
    assert out == "2.3"


def test_moments_empty_word(config_n1, capsys):
    assert run(["moments", "--config", config_n1, "--word", ""]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "1.0"


def test_verify_sd_quasi_free(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"lambdas": [], "num_trivial": 1, "q": 0.0}))
    code = run(["verify-sd", "--config", str(path), "--potential", "v0", "--degree", "5"])
    assert code == EXIT_OK
    rep = json.loads(capsys.readouterr().out)
    assert rep["sd_residual"] < 1e-9


def test_solve_transport_roundtrip(tmp_path, capsys):
    cfgp = tmp_path / "c.json"
    cfgp.write_text(
        json.dumps({"lambdas": [], "num_trivial": 1, "R": 4.0, "degree_cap": 6})
    )
    wp = tmp_path / "w.json"
    wp.write_text(json.dumps([{"indices": [1, 1, 1, 1], "re": 1e-4, "im": 0.0}]))
    rp = tmp_path / "rep.json"
    code = run(
        [
            "solve-transport",
            "--config",
            str(cfgp),
            "--potential",
            str(wp),
            "--report",
            str(rp),
            "--quiet",
        ]
    )
    assert code == EXIT_OK
    rep = json.loads(rp.read_text())
    assert rep["hypotheses"]["pass"] is True
    assert rep["fixed_point_residual"] < 1e-8
    assert rep["sd_residual"] < 1e-6
    # feed the transported series back through the inverter
    yp = tmp_path / "y.json"
    yp.write_text(json.dumps({"Y": rep["Y"]}))
    rp2 = tmp_path / "inv.json"
    code = run(
        ["invert", "--config", str(cfgp), "--series", str(yp), "--report", str(rp2), "--quiet"]
    )
    assert code == EXIT_OK
    assert json.loads(rp2.read_text())["inverse_residual"] < 1e-8


def test_strict_hypotheses_exit_code(tmp_path):
    cfgp = tmp_path / "c.json"
    cfgp.write_text(
        json.dumps(
            {
                "lambdas": [],
                "num_trivial": 1,
                "R": 4.0,
                "degree_cap": 6,
                "strict_hypotheses": True,
            }
        )
    )
    wp = tmp_path / "w.json"
    wp.write_text(json.dumps([{"indices": [1, 1, 1, 1], "re": 1e-3, "im": 0.0}]))
    code = run(
        ["solve-transport", "--config", str(cfgp), "--potential", str(wp), "--quiet"]
    )
    assert code == EXIT_HYPOTHESIS


def test_q_isomorphism_trivial(tmp_path, capsys):
    cfgp = tmp_path / "c.json"
    cfgp.write_text(
        json.dumps({"lambdas": [], "num_trivial": 1, "q": 0.0, "degree_cap": 6, "level_cap": 4})
    )
    code = run(["q-isomorphism", "--config", str(cfgp)])
    assert code == EXIT_OK
    rep = json.loads(capsys.readouterr().out)
    assert rep["pass"] is True
    assert rep["sd_residual"] == 0.0


def test_pass_gate_reads_the_conjugate_check(strict_argv, tmp_path, capsys):
    # at level 0 the kernel is the unit, so W = 0: the transport and every
    # other check pass, but the conjugate-variable check reads q itself
    cfgp = tmp_path / "c.json"
    cfgp.write_text(json.dumps({**json.loads(Path(strict_argv[2]).read_text()), "level_cap": 0}))
    argv = [*strict_argv[:2], str(cfgp), "--conjugate-degree", "4"]
    assert run(argv) == EXIT_NUMERICAL
    rep = json.loads(capsys.readouterr().out)
    assert rep["hypotheses"]["pass"] is True and rep["transport"]["completed"] is True
    assert rep["conjugate_check"] == pytest.approx(3e-5, rel=1e-9)
    assert rep["pass"] is False


@pytest.mark.parametrize("flag", ["--degree", "--conjugate-degree"])
def test_negative_degree_is_refused_before_any_work(strict_argv, monkeypatch, capsys, flag):
    def no_kernel(*args, **kwargs):
        raise AssertionError("the kernel was built")

    monkeypatch.setattr(arakiwoods, "build_xi", no_kernel)
    assert run([*strict_argv[:3], flag, "-1", "--quiet"]) == EXIT_USAGE
    assert "degree must be >= 0" in capsys.readouterr().err


def test_report_determinism(tmp_path):
    cfgp = tmp_path / "c.json"
    cfgp.write_text(
        json.dumps({"lambdas": [], "num_trivial": 1, "q": 0.01, "degree_cap": 6, "level_cap": 6})
    )
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    import warnings

    # byte-identical output for identical configuration, whatever the verdict
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code_a = run(["q-isomorphism", "--config", str(cfgp), "--report", str(a), "--quiet"])
        code_b = run(["q-isomorphism", "--config", str(cfgp), "--report", str(b), "--quiet"])
    assert code_a == code_b
    assert a.read_bytes() == b.read_bytes()


def test_usage_errors(tmp_path, capsys):
    assert run(["moments", "--config", str(tmp_path / "missing.json")]) == EXIT_USAGE
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    capsys.readouterr()
    assert run(["moments", "--config", str(bad)]) == EXIT_USAGE
    assert "usage error" in capsys.readouterr().err
    assert run(["nonsense"]) == EXIT_USAGE
    # the worker-cap flag was never read and is gone
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"lambdas": [], "num_trivial": 1}))
    assert run(["moments", "--config", str(good), "--threads", "2"]) == EXIT_USAGE
    capsys.readouterr()


def test_float_formatting_roundtrip():
    from nctransport.serialize import dumps_report

    text = dumps_report({"x": 0.1 + 0.2, "c": complex(1 / 3, -2 / 7)})
    data = json.loads(text)
    assert data["x"] == 0.1 + 0.2
    assert data["c"]["re"] == 1 / 3 and data["c"]["im"] == -2 / 7
