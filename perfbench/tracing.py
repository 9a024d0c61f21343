"""Per-layer tracing installed from outside the library.

Each traced function is replaced, in every ``nctransport`` module namespace
and class that binds the same function object, by a wrapper that keeps an
aggregated counter: calls, inclusive time (outermost activation only, so
recursion is not double counted), self time (inclusive time minus the time
of wrapped children) and, where asked, the coefficient count of the
returned objects.  Stage-level functions also record an in-memory span with
a parent id.  Everything runs in one thread, so no layer waits on another;
the table holds busy time and counts only.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (layer name, module, attribute, options).  "span" marks stage-level calls
# that get a span record; "terms" counts coefficients of the result;
# "repeats" counts requests for a word the same oracle was already asked for.
TARGETS = (
    ("modular.apply_sigma", "modular", "apply_sigma", ()),
    ("ncpoly.add", "ncpoly", "NCPoly.__add__", ()),
    ("ncpoly.mul", "ncpoly", "NCPoly.__mul__", ("terms",)),
    ("ncpoly.substitute", "ncpoly", "substitute", ()),
    ("ncpoly.rho", "ncpoly", "rho", ()),
    ("ncpoly.norm_R_sigma", "ncpoly", "norm_R_sigma", ()),
    ("tensor.t_mul", "tensor", "t_mul", ("terms",)),
    ("tensor.mat_mul", "tensor", "mat_mul", ()),
    ("tensor.t_sigma", "tensor", "t_sigma", ()),
    ("tensor.add", "tensor", "TensorPoly.__add__", ()),
    ("tensor.tensor_of", "tensor", "tensor_of", ()),
    ("calculus.cyclic_D", "calculus", "cyclic_D", ()),
    ("calculus.symmetrize_S", "calculus", "symmetrize_S", ()),
    ("calculus.jac_J", "calculus", "jac_J", ()),
    ("calculus.partial_sigma", "calculus", "partial_sigma", ()),
    ("moments.moment", "moments", "MomentOracle.moment", ("repeats",)),
    ("moments.law_call", "moments", "Law.__call__", ()),
    ("moments.contract", "moments", "MomentOracle.contract_left", ()),
    ("moments.contract", "moments", "MomentOracle.contract_right", ()),
    ("schwinger.sd_residual", "schwinger", "sd_residual", ("span",)),
    ("transport.check_hypotheses", "transport", "check_hypotheses", ("span",)),
    ("transport.solve_transport", "transport", "solve_transport", ("span",)),
    ("transport.F_map", "transport", "F_map", ("span",)),
    ("transport.q_series", "transport", "q_series", ("span",)),
    ("transport.invert_series", "transport", "invert_series", ("span",)),
    ("transport.monotonicity_certificate", "transport", "monotonicity_certificate", ("span",)),
    ("arakiwoods.q_gram", "arakiwoods", "q_gram", ("span",)),
    ("arakiwoods.orthonormal_basis", "arakiwoods", "orthonormal_basis", ("span",)),
    ("arakiwoods.build_xi", "arakiwoods", "build_xi", ("span",)),
    ("arakiwoods.invert_xi", "arakiwoods", "invert_xi", ("span",)),
    ("arakiwoods.conjugate_vars", "arakiwoods", "conjugate_vars", ("span",)),
    ("arakiwoods.conjugate_check", "arakiwoods", "conjugate_check", ("span",)),
    ("arakiwoods.potential_W", "arakiwoods", "potential_W", ("span",)),
    ("arakiwoods.q_isomorphism_pipeline", "arakiwoods", "q_isomorphism_pipeline", ("span",)),
    ("cli.run", "cli", "run", ("span",)),
)

PACKAGE = "nctransport"


class Stat:
    __slots__ = ("calls", "incl_s", "self_s", "terms_out", "errors", "repeats", "active")

    def __init__(self):
        self.calls = self.terms_out = self.errors = self.repeats = self.active = 0
        self.incl_s = self.self_s = 0.0


class Tracer:
    """Counters and spans for one traced operation.  Use as a context
    manager: entering installs the wrappers and opens the root span,
    leaving closes the root and restores the original functions."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.spans: list[list] = []
        self._child = [0.0]  # time spent in wrapped children, per open frame
        self._span_ids = [0]
        self._patched: list[tuple[object, str, object]] = []
        self._t_root = 0.0
        self.wall_s = 0.0
        self.root_self_s = 0.0

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name: str, fn, opts):
        stat = self.stats.setdefault(name, Stat())
        child, span_ids, spans = self._child, self._span_ids, self.spans
        clock = time.perf_counter
        span, terms = "span" in opts, "terms" in opts
        # oracle id -> (oracle, words asked); the oracle is held so that its
        # id is not reused while the trace is open
        seen = {} if "repeats" in opts else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if seen is not None:
                # share of requests for a word this oracle was already asked
                entry = seen.get(id(args[0]))
                if entry is None:
                    entry = seen[id(args[0])] = (args[0], set())
                words = entry[1]
                word = tuple(args[1])
                if word in words:
                    stat.repeats += 1
                else:
                    words.add(word)
            stat.calls += 1
            stat.active += 1
            child.append(0.0)
            if span:
                sid = len(spans)
                spans.append([sid, span_ids[-1], name, 0.0, 0.0])
                span_ids.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                stat.errors += 1
                raise
            finally:
                dt = clock() - t0
                inner = child.pop()
                child[-1] += dt
                stat.self_s += dt - inner
                stat.active -= 1
                if stat.active == 0:
                    stat.incl_s += dt
                if span:
                    span_ids.pop()
                    spans[sid][3:] = [t0 - self._t_root, t0 - self._t_root + dt]
            if terms:
                stat.terms_out += len(out.coeffs)
            return out

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for name, mod_name, attr, opts in TARGETS:
            mod = sys.modules[f"{PACKAGE}.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owners = [getattr(mod, cls_name)]
                original = owners[0].__dict__[meth]
            else:
                owners = modules
                original = getattr(mod, attr)
            wrapper = self._wrap(name, original, opts)
            for owner in owners:
                for key, value in list(vars(owner).items()):
                    if value is original:
                        self._patched.append((owner, key, original))
                        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        self.spans.append([0, None, "root", 0.0, 0.0])
        self._t_root = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall_s = time.perf_counter() - self._t_root
        self.uninstall()
        self.spans[0][4] = self.wall_s
        self.root_self_s = self.wall_s - self._child[0]
        return False

    # -- results ----------------------------------------------------------

    def table(self) -> dict[str, float]:
        """Flat ``<module>.<function>.<stat>`` table; the self times of all
        layers plus ``root.self_s`` sum to ``trace.wall_s``."""
        out = {}
        for name, st in self.stats.items():
            out[f"{name}.calls"] = st.calls
            out[f"{name}.incl_s"] = st.incl_s
            out[f"{name}.self_s"] = st.self_s
            out[f"{name}.terms_out"] = st.terms_out
            out[f"{name}.errors"] = st.errors
            out[f"{name}.repeat_ratio"] = st.repeats / st.calls if st.calls else 0.0
        out["transport.errors"] = self.stats["transport.solve_transport"].errors
        out["root.self_s"] = self.root_self_s
        out["trace.wall_s"] = self.wall_s
        return out

    def self_time_sum(self) -> float:
        return self.root_self_s + sum(st.self_s for st in self.stats.values())

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                {"fields": ["id", "parent", "name", "start_s", "end_s"], "spans": self.spans},
                fh,
            )

