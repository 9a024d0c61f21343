import json

import numpy as np
import pytest

from nctransport import build_context


@pytest.fixture(scope="session")
def ctx1():
    """One generator, trivial modular group (tracial)."""
    return build_context([], 1)


@pytest.fixture(scope="session")
def ctx2():
    """Two generators, trivial modular group."""
    return build_context([], 2)


@pytest.fixture(scope="session")
def lam2():
    """Two generators with block parameter 2 (genuinely non-tracial)."""
    return build_context([2.0])


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture()
def strict_argv(tmp_path):
    """``cli.run`` arguments of the strict q-isomorphism pipeline at
    lambda = 2, q = 3e-5, level 4, cap 6, R = 6."""
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "lambdas": [2.0], "num_trivial": 0, "q": 3e-5, "R": 6.0, "R_prime": 7.0,
        "degree_cap": 6, "level_cap": 4, "tolerance": 1e-9, "strict_hypotheses": True,
    }))
    return ["q-isomorphism", "--config", str(cfg), "--degree", "3",
            "--conjugate-degree", "4", "--quiet"]
