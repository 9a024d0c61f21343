"""The benchmark's workloads: seeded inputs, one timed operation each, and
the checks that decide whether an operation's output is correct.

Seed 0 reproduces the test-suite configurations exactly; any other seed
draws the inputs from the ranges stated below.  The ranges are narrow on
purpose: they stay where an operation does the same work as at seed 0, so
that runs with different seeds measure the same thing (README.md shows how
wider ranges change the work).  The library receives only the generated
inputs (config files, or contexts).
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import random
from contextlib import redirect_stderr, redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected_seed0.json")

# Floats recorded at seed 0 must agree to this relative tolerance.  The
# absolute floor covers residual-type fields that sit at rounding level,
# where any change of summation order moves the last digits.
REL_TOL = 1e-9
ABS_TOL = 1e-12

# Report fields left out of the recorded comparison: ratios of successive
# rounding-level deltas, bounded by a threshold check instead.  Strings
# (messages) are never recorded.
UNCOMPARED = {"contraction_ratios"}


# Per-layer counts read from an operation's output rather than traced.
COUNT_NAMES = ("transport.iterations", "arakiwoods.neumann_terms")


def _qiso_config(q: float, strict: bool) -> dict:
    return {
        "lambdas": [2.0],
        "num_trivial": 0,
        "q": q,
        "R": 6.0,
        "R_prime": 7.0,
        "degree_cap": 6,
        "level_cap": 4,
        "tolerance": 1e-9,
        "strict_hypotheses": strict,
    }


class Workload:
    """One workload: files written in set-up, the operation, its checks."""

    name = ""
    expected_code = 0

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.rng = random.Random(seed)
        self.configs: list[str] = []

    def write_json(self, name: str, obj) -> str:
        path = os.path.join(self.workdir, name)
        with open(path, "w") as fh:
            json.dump(obj, fh)
        return path

    def prepare(self, cli) -> None:
        """Untimed set-up before the first operation."""

    def op(self, nct):
        raise NotImplementedError

    def check(self, out) -> list[str]:
        raise NotImplementedError

    def fields(self, out) -> dict:
        """Deterministic numbers compared against the seed-0 record."""
        raise NotImplementedError

    def digest(self, out) -> str:
        """Bytes that two runs of one configuration must reproduce."""
        raise NotImplementedError

    def counts(self, out) -> dict:
        """Deterministic per-operation counts read from the output."""
        return dict.fromkeys(COUNT_NAMES, 0)


class CliWorkload(Workload):
    argv: list[str] = []

    def op(self, nct):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = nct.cli.run(self.argv)
        return code, out.getvalue(), err.getvalue()

    def report(self, out) -> dict:
        return json.loads(out[1])

    def check(self, out) -> list[str]:
        code, _, err = out
        if code != self.expected_code:
            return [f"exit code {code}, expected {self.expected_code}: {err.strip()}"]
        return self.check_report(self.report(out))

    def fields(self, out) -> dict:
        flat = {"exit_code": out[0]}
        _flatten(self.report(out), "", flat)
        return {k: v for k, v in flat.items() if not UNCOMPARED & set(k.split("."))}

    def digest(self, out) -> str:
        return hashlib.sha256(out[1].encode()).hexdigest()


class QisoStrict(CliWorkload):
    """Strict regime: the whole verification chain runs at q != 0."""

    name = "qiso_strict"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.q = 3e-5 if seed == 0 else self.rng.uniform(2.85e-5, 3e-5)
        cfg = self.write_json("config.json", _qiso_config(self.q, True))
        self.configs = [cfg]
        self.argv = ["q-isomorphism", "--config", cfg,
                     "--degree", "3", "--conjugate-degree", "4"]

    def check_report(self, rep) -> list[str]:
        bad = []
        if not (rep["pass"] and rep["hypotheses"]["pass"]):
            bad.append("pipeline or hypotheses did not pass")
        if not rep["sd_residual"] < 1e-9:
            bad.append(f"sd_residual {rep['sd_residual']}")
        if not rep["inverse_residual"] < 1e-12:
            bad.append(f"inverse_residual {rep['inverse_residual']}")
        if not rep["conjugate_check"] < 1e-8:
            bad.append(f"conjugate_check {rep['conjugate_check']}")
        return bad

    def counts(self, out) -> dict:
        rep = self.report(out)
        return {"transport.iterations": rep["transport"]["iterations"],
                "arakiwoods.neumann_terms": rep["neumann_terms"]}


class KernelDeep(Workload):
    """The level-sum kernel alone, through the public build_xi."""

    name = "kernel_deep"
    # The two-generator Gram at level 5.  Level 6 and the wide N=4 kernel
    # (lambdas [2, 3] at level 4) are left out: their operations take
    # 8-20 s, too few per run to be steady (README.md).
    LAMBDAS = [2.0]
    LEVEL = 5

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.q = 0.005 if seed == 0 else self.rng.uniform(0.0049, 0.0051)
        self.configs = [self.write_json("config.json", {"lambdas": self.LAMBDAS, "q": self.q})]

    def prepare(self, cli) -> None:
        self.ctx = cli.load_config(self.configs[0]).context()

    def op(self, nct):
        return nct.arakiwoods.build_xi(self.ctx, self.q, self.LEVEL).xi

    def check(self, xi) -> list[str]:
        from nctransport.tensor import max_pair_diff, t_dagger

        dev = max_pair_diff(t_dagger(xi), xi)
        return [] if dev <= 1e-12 else [f"t_dagger moves xi by {dev}"]

    def fields(self, xi) -> dict:
        from nctransport.arakiwoods import natural_radius
        from nctransport.tensor import TensorPoly, pi_norm_bound

        one = TensorPoly.one(xi.num_vars, xi.degree_cap)
        return {
            "abs_sum": sum(abs(c) for c in xi.coeffs.values()),
            "re_sum": sum(c.real for c in xi.coeffs.values()),
            "scalar": xi.coeffs.get(((), ()), 0.0).real,
            "deviation": pi_norm_bound(xi - one, natural_radius(self.q, 1.0)),
            "degree_cap": xi.degree_cap,
        }

    def digest(self, xi) -> str:
        return hashlib.sha256(repr(sorted(xi.coeffs.items())).encode()).hexdigest()


WORKLOADS = {w.name: w for w in (QisoStrict, KernelDeep)}


def _flatten(obj, prefix: str, out: dict) -> None:
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(v, f"{prefix}{k}.", out)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            _flatten(v, f"{prefix}{i}.", out)
    elif isinstance(obj, (bool, int, float)) or obj is None:
        out[prefix.rstrip(".")] = obj


def _is_num(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def compare_fields(got: dict, want: dict) -> list[str]:
    """Booleans, integers and None must match exactly, floats to REL_TOL
    (or ABS_TOL near zero).  A key present on one side only is a mismatch."""
    bad = []
    for key in sorted(set(got) | set(want)):
        if key not in got or key not in want:
            bad.append(f"{key}: present on one side only")
            continue
        a, b = got[key], want[key]
        if _is_num(a) and _is_num(b) and float in (type(a), type(b)):
            ok = math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)
        else:
            ok = type(a) is type(b) and a == b
        if not ok:
            bad.append(f"{key}: {a!r} != recorded {b!r}")
    return bad


def load_expected(name: str) -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)[name]
