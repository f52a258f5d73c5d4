"""Golden digest of the flagship taxi fleet.

``collect_fleet`` in ``examples/traffic_routing.py`` simulates 320 GPS
traces, map-matches each one and samples the edge times the models are
fitted on.  Every later stage of the taxi scenario reads its outputs,
so this test pins their exact bits: the trajectories' ``(x, y, t)``
floats, every matched node path and the ``trips`` list.  A change to
trip simulation, candidate search, Viterbi decoding or path stitching
that moves a single bit fails here.
"""

import hashlib
import importlib.util
import pathlib

import numpy as np
import pytest

from repro.datasets import TrajectoryGenerator
from repro.governance.fusion import HmmMapMatcher

EXAMPLE = pathlib.Path(__file__).resolve().parent.parent / "examples" / \
    "traffic_routing.py"

#: sha256 digests of the fleet at the seeds the example fixes.
GOLDEN = {
    "trajectories":
        "d8b240f9e124face3cc3c083aee9b971539219ed749b0661064b0359213f0175",
    "matched_paths":
        "c6732c4c6eae5fa87b0131c050e64ac6187d1680fff9fd8702b1aad9bbd11973",
    "trips":
        "2833a103cfb9899fbc7cfb13f6a341957e8daccb9de636598853f335e125808b",
}


def load_example():
    spec = importlib.util.spec_from_file_location("traffic_routing",
                                                  EXAMPLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def sha256(chunks):
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk if isinstance(chunk, bytes)
                      else repr(chunk).encode())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def fleet():
    """``(state, trajectories, matched paths)`` of one ``collect_fleet``."""
    trajectories, matched = [], []
    generate = TrajectoryGenerator.generate_on_paths
    matched_path = HmmMapMatcher.matched_path

    def recording_generate(self, *args, **kwargs):
        trips = generate(self, *args, **kwargs)
        trajectories.extend(trajectory for _, trajectory in trips)
        return trips

    def recording_match(self, trajectory):
        path = matched_path(self, trajectory)
        matched.append(path)
        return path

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(TrajectoryGenerator, "generate_on_paths",
                      recording_generate)
        patch.setattr(HmmMapMatcher, "matched_path", recording_match)
        state = {}
        load_example().collect_fleet(state)
    return state, trajectories, matched


def test_fleet_shape(fleet):
    state, trajectories, matched = fleet
    assert len(trajectories) == len(matched) == len(state["trips"]) == 320


def test_trajectory_bits(fleet):
    _, trajectories, _ = fleet
    assert sha256(
        np.array([(p.x, p.y, p.t) for p in trajectory]).tobytes()
        for trajectory in trajectories
    ) == GOLDEN["trajectories"]


def test_matched_paths(fleet):
    _, _, matched = fleet
    assert sha256(matched) == GOLDEN["matched_paths"]


def test_trips(fleet):
    state, _, _ = fleet
    assert sha256(
        part
        for path, times, departure in state["trips"]
        for part in (path, np.asarray(times).tobytes(), departure)
    ) == GOLDEN["trips"]
