"""Command-line front end.

Subcommands: moments, verify-sd, solve-transport, invert, q-isomorphism,
selftest.  Configuration comes from a JSON file; reports are JSON with
deterministic formatting, written to --report or standard output.  Exit
codes: 0 success, 1 usage error, 2 hypothesis failure, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

from .arakiwoods import RunConfig, q_isomorphism_pipeline
from .errors import (
    HypothesisViolation,
    NCTransportError,
)
from .modular import ModularContext, modular_norm
from .moments import MomentOracle
from .ncpoly import NCPoly, quadratic_potential
from .schwinger import gibbs_distance, sd_residual
from .serialize import dumps_report, is_number, load_json, poly_from_terms, poly_to_terms
from .transport import (
    invert_series,
    inversion_residual,
    solve_transport,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_HYPOTHESIS = 2
EXIT_NUMERICAL = 3


# The JSON type of each field annotation: its name, a test of the parsed
# value and the conversion to the field; booleans are neither numbers nor integers.
JSON_TYPES = {
    "float": ("a number", is_number, float),
    "int": ("an integer", lambda x: is_number(x) and isinstance(x, int), int),
    "bool": ("a boolean", lambda x: isinstance(x, bool), bool),
    "list[float]": (
        "an array of numbers",
        lambda x: isinstance(x, list) and all(map(is_number, x)),
        lambda x: [float(v) for v in x],
    ),
}

# Every configuration key with its JSON type: the fields of RunConfig (an
# optional one too, as null means the default) and num_vars, checked against N.
CONFIG_KEYS = {f.name: JSON_TYPES[f.type.removesuffix(" | None")] for f in fields(RunConfig)}
CONFIG_KEYS["num_vars"] = JSON_TYPES["int"]


def load_config(path: str) -> RunConfig:
    """The configuration in a JSON object of CONFIG_KEYS.  null means the
    default, as a missing key does: RunConfig's, but R = 4 sqrt(norm A),
    R_prime = R + 1 and level_cap = min(degree_cap, 8)."""
    raw = load_json(path)
    if not isinstance(raw, dict):
        raise ValueError(f"configuration must be a JSON object, got {type(raw).__name__}")
    given = {}
    for key, value in raw.items():
        if key not in CONFIG_KEYS:
            raise ValueError(f"unknown configuration key {key!r}")
        kind, is_type, convert = CONFIG_KEYS[key]
        if value is not None and not is_type(value):
            raise ValueError(f"{key} must be {kind}, got {json.dumps(value)}")
        if value is not None:
            given[key] = convert(value)
    num_vars = given.pop("num_vars", None)
    lambdas = given.setdefault("lambdas", [])
    R = given.setdefault("R", 4.0 * modular_norm(lambdas) ** 0.5)
    given.setdefault("R_prime", R + 1.0)
    given.setdefault("level_cap", min(given.get("degree_cap", RunConfig.degree_cap), 8))
    cfg = RunConfig(**given)
    if num_vars not in (None, cfg.num_vars):
        raise ValueError(f"num_vars is {num_vars}, but lambdas and num_trivial give {cfg.num_vars}")
    return cfg


def _emit(report: dict, args) -> None:
    text = dumps_report(report) + "\n"
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(text)
        if not args.quiet:
            print(f"report written to {args.report}")
    else:
        sys.stdout.write(text)


def _load_potential(spec: str, cfg: RunConfig, ctx: ModularContext) -> NCPoly:
    if spec == "v0":
        return quadratic_potential(ctx, cfg.degree_cap)
    return poly_from_terms(ctx.num_vars, load_json(spec), cfg.degree_cap)


def cmd_moments(args, cfg: RunConfig) -> int:
    ctx = cfg.context()
    word = tuple(int(x) for x in args.word.split(",")) if args.word else ()
    if not all(1 <= j <= ctx.num_vars for j in word):
        raise ValueError(f"--word {args.word}: every index must lie in 1..{ctx.num_vars}")
    oracle = MomentOracle(ctx, cfg.q)
    val = complex(oracle.moment(word))
    if not args.quiet:
        print(repr(val.real) if abs(val.imag) < 1e-15 else repr(val))
    report = {
        "command": "moments",
        "q": cfg.q,
        "word": list(word),
        "moment": complex(val),
    }
    if args.report:
        _emit(report, args)
    return EXIT_OK


def cmd_verify_sd(args, cfg: RunConfig) -> int:
    ctx = cfg.context()
    oracle = MomentOracle(ctx, cfg.q)
    v = _load_potential(args.potential, cfg, ctx)
    res = sd_residual(oracle.moment, ctx, v, args.degree)
    report = {
        "command": "verify-sd",
        "q": cfg.q,
        "potential": args.potential,
        "degree": args.degree,
        "sd_residual": res,
    }
    _emit(report, args)
    return EXIT_OK


def cmd_solve_transport(args, cfg: RunConfig) -> int:
    ctx = cfg.context()
    oracle = MomentOracle(ctx, 0.0)
    w = (
        NCPoly.zero(ctx.num_vars, cfg.degree_cap)
        if args.potential == "v0"
        else _load_potential(args.potential, cfg, ctx)
    )
    sol = solve_transport(ctx, oracle, w, cfg)
    v = quadratic_potential(ctx, cfg.degree_cap) + w
    law = oracle.law_of(sol.Y, max_degree=cfg.law_degree)
    res = sd_residual(law, ctx, v, args.degree)
    dist = gibbs_distance(law, oracle.moment, cfg.gamma, args.degree, ctx.num_vars)
    report = {
        "command": "solve-transport",
        "norm_W_Rsigma": sol.hypotheses.norm_W_Rsigma,
        "hypotheses": sol.hypotheses.as_dict(),
        "iterations": sol.iterations,
        "delta_history": sol.delta_history,
        "contraction_ratios": sol.contraction_ratios,
        "fixed_point_residual": sol.fixed_point_residual,
        "norm_ghat": sol.norm_ghat,
        "bound_6W_ok": sol.bound_6W_ok,
        "sd_residual": res,
        "sd_degree": args.degree,
        "moment_distance_to_quasi_free": dist,
        "gamma": cfg.gamma,
        "truncated": sol.truncated,
        "warnings": sol.warnings,
        "Y": [poly_to_terms(y) for y in sol.Y],
        "ghat": poly_to_terms(sol.ghat),
    }
    _emit(report, args)
    return EXIT_OK


def cmd_invert(args, cfg: RunConfig) -> int:
    ctx = cfg.context()
    raw = load_json(args.series)
    terms = raw.get("Y") if isinstance(raw, dict) else raw
    if not isinstance(terms, list) or len(terms) != ctx.num_vars:
        raise ValueError(f'a series must be a list of {ctx.num_vars} term lists, or {{"Y": ...}} holding one')
    y = [poly_from_terms(ctx.num_vars, t, cfg.degree_cap) for t in terms]
    h = invert_series(y, cfg)
    report = {
        "command": "invert",
        "inverse_residual": inversion_residual(y, h, cfg.degree_cap),
        "H": [poly_to_terms(p) for p in h],
    }
    _emit(report, args)
    return EXIT_OK


def cmd_q_isomorphism(args, cfg: RunConfig) -> int:
    report = q_isomorphism_pipeline(cfg, args.degree, args.conjugate_degree)
    report = {"command": "q-isomorphism", **report}
    _emit(report, args)
    if not report["pass"]:
        return EXIT_HYPOTHESIS if not report["hypotheses"]["pass"] else EXIT_NUMERICAL
    return EXIT_OK


def cmd_selftest(args, cfg) -> int:
    from .selftest import run_selftest

    results = run_selftest()
    report = {"command": "selftest", "checks": []}
    all_ok = True
    for name, worst, ok in results:
        all_ok = all_ok and ok
        report["checks"].append({"name": name, "worst": worst, "ok": ok})
        if not args.quiet:
            print(f"{name:32s} {worst:.3e}  {'ok' if ok else 'FAIL'}")
    if args.report:
        _emit(report, args)
    return EXIT_OK if all_ok else EXIT_NUMERICAL


def degree(text: str) -> int:
    """The argparse type of --degree and --conjugate-degree: an integer >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"degree must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="nctransport",
        description="Truncated free-probability calculus: moments, transport, q-isomorphism checks.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, config_required=True):
        sp.add_argument("--config", required=config_required, help="JSON run configuration")
        sp.add_argument("--report", help="write the JSON report to this path")
        sp.add_argument("--quiet", action="store_true")

    sp = sub.add_parser("moments", help="evaluate one monomial moment")
    common(sp)
    sp.add_argument("--word", default="", help="comma-separated generator indices, e.g. 1,2,1")
    sp.set_defaults(fn=cmd_moments)

    sp = sub.add_parser("verify-sd", help="Schwinger-Dyson residual of the state against a potential")
    common(sp)
    sp.add_argument("--potential", default="v0", help="'v0' or a polynomial JSON file")
    sp.add_argument("--degree", type=degree, default=4)
    sp.set_defaults(fn=cmd_verify_sd)

    sp = sub.add_parser("solve-transport", help="fixed-point transport solve for a perturbation W")
    common(sp)
    sp.add_argument("--potential", default="v0", help="perturbation W: 'v0' means W = 0, else a polynomial JSON file")
    sp.add_argument("--degree", type=degree, default=4, help="degree of the verification residual scan")
    sp.set_defaults(fn=cmd_solve_transport)

    sp = sub.add_parser("invert", help="compositional inverse of a power-series tuple Y = X + f")
    common(sp)
    sp.add_argument("--series", required=True, help="JSON file: list of term lists, or {'Y': [...]}")
    sp.set_defaults(fn=cmd_invert)

    sp = sub.add_parser("q-isomorphism", help="full q-deformation to transport pipeline")
    common(sp)
    sp.add_argument("--degree", type=degree, default=4, help="Schwinger-Dyson verification degree")
    sp.add_argument("--conjugate-degree", type=degree, default=None, dest="conjugate_degree",
                    help="optionally check the conjugate-variable pairing up to this degree")
    sp.set_defaults(fn=cmd_q_isomorphism)

    sp = sub.add_parser("selftest", help="run the randomized property battery")
    common(sp, config_required=False)
    sp.set_defaults(fn=cmd_selftest)

    return p


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        # refused before any work; the report is still written only at the
        # end, so a failed run never truncates an existing one
        if args.report and (os.path.isdir(args.report) or not os.path.isdir(os.path.dirname(args.report) or ".")):
            raise ValueError(f"--report {args.report}: not a file in an existing directory")
        cfg = load_config(args.config) if getattr(args, "config", None) else None
        return args.fn(args, cfg)
    except HypothesisViolation as exc:
        print(f"hypothesis failure: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except (NCTransportError, ValueError, OSError, KeyError) as exc:
        kind = "numerical" if isinstance(exc, NCTransportError) else "usage"
        print(f"{kind} error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL if isinstance(exc, NCTransportError) else EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
