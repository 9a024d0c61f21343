"""Command-line front end.

Subcommands: moments, verify-sd, solve-transport, invert, q-isomorphism,
selftest.  Configuration comes from a JSON file; reports are JSON with
deterministic formatting, written to --report or standard output.  Exit
codes: 0 success, 1 usage error, 2 hypothesis failure, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from .arakiwoods import q_isomorphism_pipeline
from .errors import (
    HypothesisViolation,
    NCTransportError,
)
from .modular import ModularContext, build_context, modular_norm
from .moments import MomentOracle
from .ncpoly import NCPoly, quadratic_potential
from .schwinger import gibbs_distance, sd_residual
from .serialize import dumps_report, poly_from_terms, poly_to_terms, sanitize
from .transport import (
    TransportConfig,
    invert_series,
    inversion_residual,
    solve_transport,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_HYPOTHESIS = 2
EXIT_NUMERICAL = 3


@dataclass
class RunConfig:
    """Validated run parameters; mirrors the transport configuration plus
    the modular and deformation data."""

    lambdas: list[float]
    num_trivial: int
    q: float
    R: float
    R_prime: float
    rho: float
    degree_cap: int
    tolerance: float
    max_iterations: int
    gamma: float
    level_cap: int
    c: float
    law_degree: int | None = None
    strict_hypotheses: bool = False

    @property
    def num_vars(self) -> int:
        return 2 * len(self.lambdas) + self.num_trivial

    def context(self) -> ModularContext:
        return build_context(self.lambdas, self.num_trivial)

    def transport(self) -> TransportConfig:
        return TransportConfig(
            R=self.R,
            R_prime=self.R_prime,
            rho=self.rho,
            degree_cap=self.degree_cap,
            tolerance=self.tolerance,
            max_iterations=self.max_iterations,
        )


def load_config(path: str) -> RunConfig:
    with open(path) as fh:
        raw = json.load(fh)
    lambdas = [float(x) for x in raw.get("lambdas", [])]
    num_trivial = int(raw.get("num_trivial", 0))
    n = 2 * len(lambdas) + num_trivial
    if "num_vars" in raw and int(raw["num_vars"]) != n:
        raise ValueError(
            f"num_vars {raw['num_vars']} inconsistent with lambdas/num_trivial (= {n})"
        )
    if n == 0:
        raise ValueError("configuration describes zero generators")
    r_default = 4.0 * modular_norm(lambdas) ** 0.5
    cfg = RunConfig(
        lambdas=lambdas,
        num_trivial=num_trivial,
        q=float(raw.get("q", 0.0)),
        R=float(raw.get("R", r_default)),
        R_prime=float(raw.get("R_prime", raw.get("R", r_default) + 1.0)),
        rho=float(raw.get("rho", 1.0)),
        degree_cap=int(raw.get("degree_cap", 8)),
        tolerance=float(raw.get("tolerance", 1e-9)),
        max_iterations=int(raw.get("max_iterations", 200)),
        gamma=float(raw.get("gamma", 0.25)),
        level_cap=int(raw.get("level_cap", min(int(raw.get("degree_cap", 8)), 8))),
        c=float(raw.get("c", 1.0)),
        law_degree=(int(raw["law_degree"]) if raw.get("law_degree") is not None else None),
        strict_hypotheses=bool(raw.get("strict_hypotheses", False)),
    )
    if not -1.0 < cfg.q < 1.0:
        raise ValueError(f"q must lie in (-1, 1), got {cfg.q}")
    if cfg.level_cap < 0:
        raise ValueError(f"level_cap must be >= 0, got {cfg.level_cap}")
    return cfg


def _emit(report: dict, args) -> None:
    text = dumps_report(sanitize(report)) + "\n"
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
    with open(spec) as fh:
        terms = json.load(fh)
    return poly_from_terms(ctx.num_vars, terms, cfg.degree_cap)


def cmd_moments(args, cfg: RunConfig) -> int:
    ctx = cfg.context()
    word = tuple(int(x) for x in args.word.split(",")) if args.word else ()
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
    sol = solve_transport(
        ctx, oracle, w, cfg.transport(), enforce_hypotheses=cfg.strict_hypotheses
    )
    v = quadratic_potential(ctx, cfg.degree_cap) + w
    law = oracle.law_of(sol.Y, max_degree=cfg.law_degree)
    res = sd_residual(law, ctx, v, args.degree)
    dist = gibbs_distance(law, oracle.moment, cfg.gamma, args.degree, ctx.num_vars)
    report = {
        "command": "solve-transport",
        "norm_W_Rsigma": sol.norm_W,
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
    with open(args.series) as fh:
        raw = json.load(fh)
    terms = raw["Y"] if isinstance(raw, dict) else raw
    if len(terms) != ctx.num_vars:
        raise ValueError(f"need {ctx.num_vars} series components, got {len(terms)}")
    y = [poly_from_terms(ctx.num_vars, t, cfg.degree_cap) for t in terms]
    h = invert_series(y, cfg.transport())
    report = {
        "command": "invert",
        "inverse_residual": inversion_residual(y, h, cfg.degree_cap),
        "H": [poly_to_terms(p) for p in h],
    }
    _emit(report, args)
    return EXIT_OK


def cmd_q_isomorphism(args, cfg: RunConfig) -> int:
    ctx = cfg.context()
    report = q_isomorphism_pipeline(
        ctx,
        cfg.q,
        cfg.transport(),
        c=cfg.c,
        level_cap=cfg.level_cap,
        sd_degree=args.degree,
        law_degree=cfg.law_degree,
        enforce_hypotheses=cfg.strict_hypotheses,
        conjugate_check_degree=args.conjugate_degree,
    )
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
    sp.add_argument("--degree", type=int, default=4)
    sp.set_defaults(fn=cmd_verify_sd)

    sp = sub.add_parser("solve-transport", help="fixed-point transport solve for a perturbation W")
    common(sp)
    sp.add_argument("--potential", default="v0", help="perturbation W: 'v0' means W = 0, else a polynomial JSON file")
    sp.add_argument("--degree", type=int, default=4, help="degree of the verification residual scan")
    sp.set_defaults(fn=cmd_solve_transport)

    sp = sub.add_parser("invert", help="compositional inverse of a power-series tuple Y = X + f")
    common(sp)
    sp.add_argument("--series", required=True, help="JSON file: list of term lists, or {'Y': [...]}")
    sp.set_defaults(fn=cmd_invert)

    sp = sub.add_parser("q-isomorphism", help="full q-deformation to transport pipeline")
    common(sp)
    sp.add_argument("--degree", type=int, default=4, help="Schwinger-Dyson verification degree")
    sp.add_argument("--conjugate-degree", type=int, default=None, dest="conjugate_degree",
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
