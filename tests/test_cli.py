import dataclasses
import json
import os
import signal
import warnings
from pathlib import Path

import pytest

from nctransport import arakiwoods, cli, forkjoin, transport
from nctransport.cli import (
    EXIT_HYPOTHESIS,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    load_config,
    run,
)
from nctransport.errors import NoConvergence, NotGradient
from nctransport.moments import MomentOracle
from nctransport.tensor import TensorPoly
from nctransport.transport import TransportConfig
from oracles import load_config_reference

# the strict lambda = 2, q = 3e-5 run, as the CI steps write it
BASE = {"lambdas": [2.0], "num_trivial": 0, "R": 6.0, "R_prime": 7.0, "degree_cap": 6,
        "tolerance": 1e-9}
STRICT = {**BASE, "q": 3e-5, "level_cap": 4, "strict_hypotheses": True}


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
    # max_iterations is checked by the TransportConfig that the config is
    bad.write_text(json.dumps({"lambdas": [2.0], "q": 3e-5, "max_iterations": 0}))
    with pytest.raises(ValueError):
        load_config(str(bad))
    assert run(["q-isomorphism", "--config", str(bad), "--quiet"]) == EXIT_USAGE


# the README example, every configuration of the tests, the CI runs and the
# benchmark workloads, and one with integers where numbers go
VALID_CONFIGS = [
    {"lambdas": [2.0], "num_trivial": 0, "q": 0.01, "R": 4.0, "R_prime": 5.0, "rho": 1.0,
     "degree_cap": 8, "tolerance": 1e-9, "max_iterations": 200, "gamma": 0.25,
     "level_cap": 8, "c": 1.0, "law_degree": None, "strict_hypotheses": False},
    {"lambdas": [], "num_trivial": 1, "q": 0.3, "R": 4.0, "degree_cap": 8},
    {"lambdas": [], "num_trivial": 1, "q": 0.0},
    {"lambdas": [], "num_trivial": 1, "R": 4.0, "degree_cap": 6},
    {"lambdas": [], "num_trivial": 1, "R": 4.0, "degree_cap": 6, "strict_hypotheses": True},
    {"lambdas": [], "num_trivial": 1, "q": 0.0, "degree_cap": 6, "level_cap": 4},
    {"lambdas": [], "num_trivial": 1, "q": 0.01, "degree_cap": 6, "level_cap": 6},
    {"lambdas": [], "num_trivial": 1},
    STRICT,
    {**STRICT, "strict_hypotheses": False},
    {**BASE, "q": 0.01, "level_cap": 4},
    {**BASE, "q": 3e-5, "level_cap": 0, "strict_hypotheses": True},
    {"lambdas": [2.0, 3.0], "num_trivial": 0, "R": 7.0, "R_prime": 8.0, "degree_cap": 6,
     "tolerance": 1e-9, "q": 1e-5, "level_cap": 4},
    {"lambdas": [2.0], "q": 0.005},
    {"lambdas": [2.0], "q": 1e-4, "R": 6.0, "R_prime": 7.0, "degree_cap": 8, "level_cap": 4},
    {"lambdas": [2, 3], "num_trivial": 1, "num_vars": 5, "q": 0, "R": 7, "degree_cap": 5},
]


@pytest.mark.parametrize("raw", VALID_CONFIGS)
def test_load_config_keeps_the_field_values(tmp_path, raw):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(raw))
    cfg = load_config(str(path))
    assert isinstance(cfg, TransportConfig)
    got = dataclasses.asdict(cfg)
    want = load_config_reference(raw)
    assert got == want
    assert [type(v) for v in got.values()] == [type(want[k]) for k in got]
    assert all(type(x) is float for x in cfg.lambdas)


def test_null_means_the_default(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"lambdas": [2.0]}))
    default = load_config(str(path))
    nulls = dict.fromkeys(cli.CONFIG_KEYS, None)
    path.write_text(json.dumps({**nulls, "lambdas": [2.0]}))
    assert load_config(str(path)) == default
    path.write_text(json.dumps({**STRICT, "degree_cap": None}))
    assert load_config(str(path)).degree_cap == default.degree_cap == 8
    assert run(["moments", "--config", str(path), "--word", "1,2", "--quiet"]) == EXIT_OK


BAD_CONFIGS = {
    "negative lambda": ("q-isomorphism", {**STRICT, "lambdas": [-2.0]}, "lambda must be > 0"),
    "gamma above 1/3": ("solve-transport", {**STRICT, "gamma": 0.5}, "gamma must lie in"),
    "negative R": ("q-isomorphism", {**STRICT, "R": -6}, "0 < R < R_prime"),
    "c below -2": ("q-isomorphism", {**STRICT, "c": -3}, "c must be > -2"),
    "zero tolerance": ("q-isomorphism", {**STRICT, "tolerance": 0}, "tolerance must be > 0"),
    "misspelt strict_hypotheses": (
        "q-isomorphism", {**STRICT, "strict_hypothesis": True}, "key 'strict_hypothesis'"),
    "misspelt tolerance": ("q-isomorphism", {**STRICT, "tolerence": 1e-9}, "key 'tolerence'"),
    "not an object": ("q-isomorphism", [1, 2], "must be a JSON object"),
    "lambdas a number": ("q-isomorphism", {**STRICT, "lambdas": 2}, "lambdas must be an array"),
    "level_cap over the Gram bound": (
        "q-isomorphism",
        {"lambdas": [2.0, 3.0], "q": 1e-5, "R": 7.0, "R_prime": 8.0, "degree_cap": 8},
        "level 5 is the largest",
    ),
    "level_cap 6 at N = 4, over 1024 rows": (
        "q-isomorphism",
        {"lambdas": [2.0, 3.0], "q": 1e-5, "R": 7.0, "R_prime": 8.0, "degree_cap": 6, "level_cap": 6},
        "needs a q-Gram of 4^6 > 1024 rows; level 5 is the largest",
    ),
    "boolean as a string": (
        "q-isomorphism", {**STRICT, "strict_hypotheses": "false"}, "must be a boolean"),
    "lambdas as a string": ("q-isomorphism", {**STRICT, "lambdas": "23"}, "must be an array"),
    "fractional degree_cap": ("q-isomorphism", {**STRICT, "degree_cap": 6.7}, "an integer"),
    "boolean degree_cap": ("q-isomorphism", {**STRICT, "degree_cap": True}, "an integer"),
    "boolean R": ("q-isomorphism", {**STRICT, "R": True}, "R must be a number"),
}


@pytest.mark.parametrize("case", BAD_CONFIGS)
def test_bad_config_is_refused_before_any_work(tmp_path, monkeypatch, capsys, case):
    # each of these once ran to a numerical failure, a traceback, a whole
    # solve or an exit 0
    def no_work(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(arakiwoods, "build_xi", no_work)
    monkeypatch.setattr(cli, "solve_transport", no_work)
    command, raw, message = BAD_CONFIGS[case]
    path = tmp_path / "c.json"
    path.write_text(json.dumps(raw))
    assert run([command, "--config", str(path), "--quiet"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and message in err


def test_moments_command(config_n1, capsys):
    code = run(["moments", "--config", config_n1, "--word", "1,1,1,1"])
    assert code == EXIT_OK
    out = capsys.readouterr().out.strip()
    assert out == "2.3"


def test_moments_empty_word(config_n1, capsys):
    assert run(["moments", "--config", config_n1, "--word", ""]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "1.0"


@pytest.mark.parametrize("word", ["1,3", "0", "2,-1"])
def test_moments_word_outside_the_generators_is_a_usage_error(tmp_path, capsys, word):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(BASE))
    assert run(["moments", "--config", str(path), "--word", word]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.startswith("usage error:") and "1..2" in captured.err
    assert captured.out == ""


TERM = {"indices": [1, 2], "re": 0.5, "im": 0.0}


@pytest.mark.parametrize("command, flag, content", [
    ("verify-sd", "--potential", [1, 2]),
    ("verify-sd", "--potential", {"indices": [1, 2], "re": 0.5}),
    ("verify-sd", "--potential", [{**TERM, "indices": [1.9, 2]}]),
    ("verify-sd", "--potential", [{**TERM, "indices": "12"}]),
    ("verify-sd", "--potential", [{**TERM, "indices": [True, 2]}]),
    ("verify-sd", "--potential", [{**TERM, "indices": [1, 3]}]),
    ("verify-sd", "--potential", [{**TERM, "indices": [0]}]),
    ("verify-sd", "--potential", [{"re": 0.5}]),
    ("verify-sd", "--potential", [{**TERM, "Re": 0.5}]),
    ("verify-sd", "--potential", [{**TERM, "re": "0.5"}]),
    ("verify-sd", "--potential", [{**TERM, "im": True}]),
    ("solve-transport", "--potential", [{**TERM, "indices": [1.0, 2]}]),
    ("invert", "--series", {"Y": 5}),
    ("invert", "--series", 5),
    ("invert", "--series", {"X": [[TERM], [TERM]]}),
    ("invert", "--series", [[TERM]]),
    ("invert", "--series", [[TERM], 7]),
    ("invert", "--series", {"Y": [[TERM], [{**TERM, "indices": [True]}]]}),
], ids=lambda v: json.dumps(v) if not isinstance(v, str) else v)
def test_malformed_polynomial_files_are_usage_errors(tmp_path, capsys, command, flag, content):
    # polynomial and series files follow the JSON type rules of the
    # configuration: integer indices in 1..N, numeric parts, N term lists
    cfg, data = tmp_path / "c.json", tmp_path / "p.json"
    cfg.write_text(json.dumps(BASE))
    data.write_text(json.dumps(content))
    assert run([command, "--config", str(cfg), flag, str(data), "--quiet"]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("usage error:")


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


@pytest.mark.parametrize("command, flag, stage", [
    pytest.param("q-isomorphism", "--degree", (arakiwoods, "build_xi"), id="--degree"),
    pytest.param("q-isomorphism", "--conjugate-degree", (arakiwoods, "build_xi"), id="--conjugate-degree"),
    pytest.param("verify-sd", "--degree", (cli, "sd_residual"), id="verify-sd --degree"),
    pytest.param("solve-transport", "--degree", (cli, "solve_transport"), id="solve-transport --degree"),
])
def test_negative_degree_is_refused_before_any_work(strict_argv, monkeypatch, capsys, command, flag, stage):
    # the parser refuses the degree, so the stage that would read it never runs
    def no_work(*args, **kwargs):
        raise AssertionError("the work was started")

    monkeypatch.setattr(*stage, no_work)
    assert run([command, *strict_argv[1:3], flag, "-1", "--quiet"]) == EXIT_USAGE
    assert "degree must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["missing directory", "directory"])
@pytest.mark.parametrize("command, stage", [
    ("q-isomorphism", (arakiwoods, "build_xi")),
    ("selftest", ("nctransport.selftest.run_selftest",)),
], ids=["q-isomorphism", "selftest"])
def test_an_unwritable_report_path_is_refused_before_any_work(
    strict_argv, tmp_path, monkeypatch, capsys, command, stage, where
):
    def no_work(*args, **kwargs):
        raise AssertionError("the work was started")

    monkeypatch.setattr(*stage, no_work)
    path = tmp_path / "missing" / "r.json" if where == "missing directory" else tmp_path
    argv = strict_argv[1:3] if command == "q-isomorphism" else []
    assert run([command, *argv, "--report", str(path), "--quiet"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: --report {path}")
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("position", [0, 5, -1])
def test_nan_in_the_kernel_fails_the_run(strict_argv, monkeypatch, capsys, position):
    # a NaN coefficient is never pruned, so a kernel that holds one ends the
    # run in a failure exit; pruned away, it let the last position pass
    build = arakiwoods.build_xi

    def with_nan(ctx, q, d):
        xi = build(ctx, q, d)
        key = list(xi.xi.coeffs)[position]
        coeffs = {**xi.xi.coeffs, key: complex("nan")}
        nan_xi = TensorPoly._pruned(xi.xi.num_vars, coeffs, xi.xi.degree_cap, xi.xi.truncated)
        return dataclasses.replace(xi, xi=nan_xi)

    monkeypatch.setattr(arakiwoods, "build_xi", with_nan)
    assert run(strict_argv) == EXIT_NUMERICAL
    assert "numerical error" in capsys.readouterr().err


def test_the_run_hands_its_configuration_to_one_pipeline_call(strict_argv, monkeypatch):
    # every run-level choice reaches the pipeline inside the configuration;
    # the two degrees are the only other arguments
    calls = []
    pipeline = cli.q_isomorphism_pipeline

    def recorded(*args, **kwargs):
        calls.append((args, kwargs))
        return pipeline(*args, **kwargs)

    monkeypatch.setattr(cli, "q_isomorphism_pipeline", recorded)
    assert run(strict_argv) == EXIT_OK
    assert len(calls) == 1
    (cfg, sd_degree, conjugate_degree), kwargs = calls[0]
    assert kwargs == {} and (sd_degree, conjugate_degree) == (3, 4)
    assert isinstance(cfg, arakiwoods.RunConfig) and cfg == load_config(strict_argv[2])
    assert cfg.strict_hypotheses and cfg.q == 3e-5 and cfg.level_cap == 4


def test_the_pipeline_checks_the_hypotheses_once(strict_argv, tmp_path, monkeypatch):
    # the pipeline hands its hypothesis report to solve_transport, which
    # evaluates nothing again; the report is the one of a run in which
    # solve_transport evaluates the hypotheses itself
    calls = []
    check = transport.check_hypotheses

    def counted(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(transport, "check_hypotheses", counted)
    monkeypatch.setattr(arakiwoods, "check_hypotheses", counted)
    once, twice = tmp_path / "once.json", tmp_path / "twice.json"
    assert run([*strict_argv, "--report", str(once)]) == EXIT_OK
    assert len(calls) == 1
    solve = arakiwoods.solve_transport

    def without_report(*args, hypotheses=None, **kwargs):
        return solve(*args, **kwargs)

    monkeypatch.setattr(arakiwoods, "solve_transport", without_report)
    calls.clear()
    assert run([*strict_argv, "--report", str(twice)]) == EXIT_OK
    assert len(calls) == 2
    assert once.read_bytes() == twice.read_bytes()


def test_a_majorant_is_reported_as_one(strict_argv, tmp_path, capsys):
    # at cap 8 and q = 1e-4 the iterate leaves the centralizer by rounding,
    # so the last delta and the |ghat| that stops the solve are the
    # norm_A^(deg-1) norm_R majorant of norm_R_sigma, not the norm
    path = tmp_path / "majorant.json"
    path.write_text(json.dumps(
        {"lambdas": [2.0], "q": 1e-4, "R": 6.0, "R_prime": 7.0, "degree_cap": 8, "level_cap": 4}
    ))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["q-isomorphism", "--config", str(path), "--quiet"]) == EXIT_HYPOTHESIS
    assert [str(w.message) for w in caught] == [
        "delta at iteration 3 is the off-centralizer majorant",
        "contraction ratio 0.6408 above 0.55",
    ]
    error = json.loads(capsys.readouterr().out)["transport"]["error"]
    assert error.startswith("the majorant of |ghat| (ghat left the centralizer) = 38.45")
    # every norm of the strict run is exact
    assert run(strict_argv) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["transport"]["warnings"] == []


@pytest.mark.parametrize("key, value, code, fields", [
    # W's norm at R = 1e200 overflows: the hypotheses fail and the solve
    # stops at the radius test, whose r is then NaN
    ("R", 1e200, EXIT_HYPOTHESIS, {"norm_W_Rsigma": "inf", "xi_deviation": 0.00081075612599563552}),
    # c sets only the radius of the kernel's bound, which overflows
    ("c", 1e300, EXIT_OK, {"pi_bound": "inf", "xi_deviation": "inf", "norm_W_Rsigma": 0.09152715723968138}),
])
def test_an_overflowing_norm_or_bound_reads_inf(tmp_path, capsys, key, value, code, fields):
    # finite values that pass the configuration's checks once ended in an
    # OverflowError traceback
    path = tmp_path / "c.json"
    extra = {"R_prime": 2 * value} if key == "R" else {}
    path.write_text(json.dumps({**BASE, "q": 3e-5, "level_cap": 4, key: value, **extra}))
    out = tmp_path / "report.json"
    assert run(["q-isomorphism", "--config", str(path), "--report", str(out), "--quiet"]) == code
    report = json.loads(out.read_text())
    assert {k: report.get(k, report["hypotheses"].get(k)) for k in fields} == fields
    assert report["transport"]["completed"] is (code == EXIT_OK)
    assert capsys.readouterr().err == ""


def test_a_huge_inversion_radius_is_a_numerical_failure(tmp_path, monkeypatch, capsys):
    # at R' = 1e200 the powers of S in the inversion constant once raised
    # OverflowError in the checks; |f|_S is inf, so the constant is too.
    # The failed inversion is a failed check: the report is written, with
    # the checks run in a forked child and in this process alike
    path = tmp_path / "c.json"
    path.write_text(json.dumps({**STRICT, "R_prime": 1e200}))
    reports = []
    for can in (True, False):
        monkeypatch.setattr(forkjoin, "can_fork", lambda: can)
        reports.append(tmp_path / f"{can}.json")
        argv = ["q-isomorphism", "--config", str(path), "--report", str(reports[-1]), "--quiet"]
        assert run(argv) == EXIT_NUMERICAL
        assert capsys.readouterr().err == ""
        rep = json.loads(reports[-1].read_text())
        assert rep["inverse_residual"] is None
        assert rep["inversion_error"] == "inversion constant inf >= 1 (|f|_S = inf)"
        assert rep["transport"]["completed"] and rep["hypotheses"]["pass"]
        assert rep["monotone_certified"] is True and rep["pass"] is False
        keys = list(rep)
        assert keys[keys.index("inverse_residual") + 1] == "inversion_error"
    assert reports[0].read_bytes() == reports[1].read_bytes()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_report_determinism(tmp_path):
    cfgp = tmp_path / "c.json"
    cfgp.write_text(
        json.dumps({"lambdas": [], "num_trivial": 1, "q": 0.01, "degree_cap": 6, "level_cap": 6})
    )
    a, b = tmp_path / "a.json", tmp_path / "b.json"
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
    # the standard encoder after one normalizing pass: floats stay floats in
    # their shortest round-trip form, and every report is strict JSON
    import numpy as np

    from nctransport.serialize import dumps_report

    report = {
        "z": 0.1 + 0.2, "third": 1 / 3, "one": 1.0, "zero": 0.0, "negative_zero": -0.0,
        "nan": float("nan"), "inf": float("inf"), "-inf": float("-inf"),
        "c": complex(1 / 3, -2 / 7), "c_nan": complex(float("nan"), 1.0), "pair": (1, 2.5),
        "flag": True, "none": None, "empty_list": [], "empty_dict": {},
        "np": [np.float64(0.1), np.int64(7), np.complex128(2 - 0.5j), np.float64("inf")],
    }
    text = dumps_report(report)

    def refuse(literal):
        raise ValueError(f"{literal} is not a JSON number")

    data = json.loads(text, parse_constant=refuse)
    assert list(data) == list(report)
    assert data["z"] == 0.1 + 0.2 and data["third"] == 1 / 3
    assert type(data["one"]) is float and type(data["zero"]) is float
    assert '"one": 1.0,' in text and '"zero": 0.0,' in text and '"negative_zero": -0.0,' in text
    assert str(data["negative_zero"]) == "-0.0"
    assert [data["nan"], data["inf"], data["-inf"]] == ["nan", "inf", "-inf"]
    assert data["c"] == {"re": 1 / 3, "im": -2 / 7}
    assert data["c_nan"] == {"re": "nan", "im": 1.0}
    assert data["pair"] == [1, 2.5]
    assert data["flag"] is True and data["none"] is None
    assert '"empty_list": [],' in text and '"empty_dict": {},' in text
    assert data["np"] == [0.1, 7, {"re": 2.0, "im": -0.5}, "inf"]
    assert type(data["np"][1]) is int
    assert text.startswith('{\n  "z": 0.30000000000000004,\n')
    assert dumps_report(report).encode() == text.encode()


@pytest.mark.parametrize("name, literal", [
    ("config", "Infinity"), ("potential", "NaN"), ("potential", "Infinity"), ("series", "-Infinity"),
])
def test_non_finite_json_literals_are_refused(tmp_path, capsys, monkeypatch, name, literal):
    # Python's reader takes NaN, Infinity and -Infinity, which are not JSON;
    # each file refuses them before any work
    def no_work(*args, **kwargs):
        raise AssertionError("work was done")

    monkeypatch.setattr(arakiwoods, "build_xi", no_work)
    good = tmp_path / "good.json"
    good.write_text(json.dumps(STRICT))
    bad = tmp_path / f"{name}.json"
    bad.write_text({
        "config": f'{{"lambdas": [2.0], "q": 3e-5, "level_cap": 4, "tolerance": {literal}}}',
        "potential": f'[{{"indices": [1, 1], "re": {literal}}}, {{"indices": [2, 2], "re": 0.5625}}]',
        "series": f'[[{{"indices": [1], "re": {literal}}}], [{{"indices": [2], "re": 1.0}}]]',
    }[name])
    argv = {
        "config": ["q-isomorphism", "--config", str(bad)],
        "potential": ["verify-sd", "--config", str(good), "--potential", str(bad)],
        "series": ["invert", "--config", str(good), "--series", str(bad)],
    }[name]
    assert run([*argv, "--quiet"]) == EXIT_USAGE
    assert capsys.readouterr().err == f"usage error: {bad}: {literal} is not a JSON number\n"


def test_a_nan_residual_fails_the_run(strict_argv, monkeypatch, capsys):
    # a law that is NaN at the word (1, 2): the Schwinger-Dyson residual is
    # NaN, not the 0.0 that max made of it, and the run fails
    law_of = MomentOracle.law_of

    def nan_law(self, *args, **kwargs):
        law = law_of(self, *args, **kwargs)
        return lambda w: complex("nan") if w == (1, 2) else law(w)

    monkeypatch.setattr(MomentOracle, "law_of", nan_law)
    assert run(strict_argv) == EXIT_NUMERICAL
    rep = json.loads(capsys.readouterr().out)
    assert rep["sd_residual"] == "nan" and rep["hypotheses"]["pass"] is True
    assert rep["pass"] is False


# The checks that follow the solve run in a forked child when a second CPU
# is free; each test below runs both ways, the probe forced, and leaves no
# child process behind.
@pytest.fixture(params=[True, False], ids=["forked", "inline"])
def forked(request, monkeypatch):
    monkeypatch.setattr(forkjoin, "can_fork", lambda: request.param)
    yield request.param
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _wrap_stage(monkeypatch, name, before):
    """Replace the pipeline's stage ``name`` by one that calls ``before``
    and then the stage."""
    stage = getattr(arakiwoods, name)

    def wrapped(*args, **kwargs):
        before()
        return stage(*args, **kwargs)

    monkeypatch.setattr(arakiwoods, name, wrapped)


def _raise(exc):
    def raising():
        raise exc

    return raising


def test_forked_and_inline_checks_write_one_report(strict_argv, tmp_path, monkeypatch):
    forks, fork = [], os.fork

    def counted_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    reports = []
    for can in (True, False):
        monkeypatch.setattr(forkjoin, "can_fork", lambda: can)
        reports.append(tmp_path / f"{can}.json")
        assert run([*strict_argv, "--report", str(reports[-1])]) == EXIT_OK
        assert len(forks) == 1
    assert reports[0].read_bytes() == reports[1].read_bytes()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)

    # a fork that fails (no process to spare) runs the checks here
    def failing_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(forkjoin, "can_fork", lambda: True)
    monkeypatch.setattr(os, "fork", failing_fork)
    assert run([*strict_argv, "--report", str(tmp_path / "unforked.json")]) == EXIT_OK
    assert (tmp_path / "unforked.json").read_bytes() == reports[0].read_bytes()


def test_a_failed_solve_reports_the_conjugate_check(strict_argv, tmp_path, capsys, forked):
    # the gap run at q = 0.01 stops in the solve; the conjugate-variable
    # check is still computed, and keeps its place in the report
    cfgp = tmp_path / "gap.json"
    cfgp.write_text(json.dumps({**BASE, "q": 0.01, "level_cap": 4}))
    assert run(["q-isomorphism", "--config", str(cfgp), "--conjugate-degree", "4"]) == EXIT_HYPOTHESIS
    rep = json.loads(capsys.readouterr().out)
    assert rep["transport"]["completed"] is False
    keys = list(rep)
    assert keys[keys.index("neumann_terms") + 1] == "conjugate_check"
    assert rep["conjugate_check"] == pytest.approx(8.19e-9, rel=1e-3)


def test_a_check_that_raises_in_the_child_fails_the_run(strict_argv, monkeypatch, capsys, forked):
    _wrap_stage(monkeypatch, "monotonicity_certificate", _raise(NotGradient("not a gradient")))
    assert run(strict_argv) == EXIT_NUMERICAL
    assert capsys.readouterr().err == "numerical error: not a gradient\n"


@pytest.mark.parametrize("failing, wins", [
    (("conjugate_check", "sd_residual"), "conjugate_check"),
    (("sd_residual", "monotonicity_certificate"), "sd_residual"),
    (("sd_residual", "invert_series"), "sd_residual"),
    (("monotonicity_certificate", "inversion_residual"), "monotonicity_certificate"),
])
def test_of_two_failed_checks_the_serially_first_wins(strict_argv, monkeypatch, capsys, forked,
                                                      failing, wins):
    for name in failing:
        _wrap_stage(monkeypatch, name, _raise(NoConvergence(name)))
    assert run(strict_argv) == EXIT_NUMERICAL
    assert capsys.readouterr().err == f"numerical error: {wins}\n"


def test_an_unpicklable_error_in_the_child_is_a_numerical_failure(strict_argv, monkeypatch, capsys):
    class Local(Exception):
        pass

    monkeypatch.setattr(forkjoin, "can_fork", lambda: True)
    _wrap_stage(monkeypatch, "invert_series", _raise(Local("local")))
    assert run(strict_argv) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("numerical error: the checks' child process cannot send its result")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_killed_child_is_a_numerical_failure(strict_argv, monkeypatch, capsys):
    monkeypatch.setattr(forkjoin, "can_fork", lambda: True)
    _wrap_stage(monkeypatch, "invert_series", lambda: os.kill(os.getpid(), signal.SIGKILL))
    assert run(strict_argv) == EXIT_NUMERICAL
    assert capsys.readouterr().err == (
        "numerical error: the checks' child process ended without a result "
        f"(killed by signal {int(signal.SIGKILL)})\n"
    )
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_warning_in_the_child_is_shown_once(strict_argv, tmp_path, monkeypatch, forked):
    _wrap_stage(monkeypatch, "invert_series", lambda: warnings.warn("from a check", UserWarning))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(strict_argv) == EXIT_OK
    mine = [w for w in caught if str(w.message) == "from a check"]
    assert len(mine) == 1 and mine[0].category is UserWarning
    assert mine[0].filename == __file__
