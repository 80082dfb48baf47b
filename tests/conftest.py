import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from helpers import BUNDLED_SCENARIO, simulate_network
from networks import chain_payload
from syncopt import cli, simulator


@pytest.fixture(scope="session")
def paper_scenario():
    return cli.load_scenario(BUNDLED_SCENARIO)


@pytest.fixture(scope="session")
def paper_bundle(paper_scenario):
    return cli.run_design(paper_scenario)


@pytest.fixture(scope="session")
def paper_traces(paper_scenario, paper_bundle):
    return cli.run_learn(paper_scenario, paper_bundle)


@pytest.fixture(scope="session")
def chain_network(tmp_path_factory):
    """80 bundled paper agents round-robin on a chain: 404 states, past the
    363 from which `_rk4_lockstep` integrates by the nonzeros of the step map
    instead of the dense one (a paper network has 4 + 5N states, so it takes
    72 followers or more). Returns the scenario, its initial gain sets and
    the (M, y0) it integrates, with M made dense from the nonzeros (rows,
    cols, vals) `_rk4_lockstep` receives."""
    raw = chain_payload(80)
    path = tmp_path_factory.mktemp("chain") / "chain.json"
    path.write_text(json.dumps(raw))
    scenario = cli.load_scenario(path)
    gains = {ad.name: ad.initial for ad in cli.run_design(scenario).per_agent}
    calls, rk4 = [], simulator._rk4_lockstep

    def recording(M, Y0, *args):
        (rows, cols, vals), = M
        y0 = np.array(Y0[0], dtype=float)
        dense = np.zeros((len(y0), len(y0)))
        dense[rows, cols] = vals
        calls.append((dense, y0))
        return rk4(M, Y0, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulator, "_rk4_lockstep", recording)
        simulate_network(scenario, gains, t_end=0.0, dt=0.01)
    (M, y0), = calls
    assert M.shape == (404, 404) and simulator._chunk_length(404) == 1
    return scenario, gains, M, y0
