"""Shared fixtures: canonical topologies and helpers used across test modules.

Also selects the Hypothesis profile named by ``HYPOTHESIS_PROFILE``
(default: Hypothesis's own ``default``).  The ``deterministic`` profile
derandomizes the search — every run tries the same examples, with the
same per-test budgets — so a gate built on it is reproducible rather than
green by luck of the search:

    HYPOTHESIS_PROFILE=deterministic python -m pytest -x -q

The ``exploratory`` profile is the opposite: a fresh random search on
every run, with each property test's own ``max_examples`` scaled by
``EXPLORATORY_BUDGET_SCALE``.  It backs a non-gating CI lane; a failure it
finds is pinned as an ``@example`` regression in the gating suite:

    HYPOTHESIS_PROFILE=exploratory python -m pytest -q tests/test_properties.py
"""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

from repro.topology import Topology, dimension, get_topology

PROFILE = os.environ.get("HYPOTHESIS_PROFILE", "default")
EXPLORATORY_BUDGET_SCALE = 10

settings.register_profile("deterministic", derandomize=True)
settings.register_profile(
    "exploratory", derandomize=False, max_examples=1000, print_blob=True
)
settings.load_profile(PROFILE)


def pytest_collection_modifyitems(items: list[pytest.Item]) -> None:
    """Scale every property test's budget under the exploratory profile.

    An explicit ``@settings(max_examples=...)`` overrides any profile, so
    the scaling rewrites the settings each ``@given`` test carries.
    """
    if PROFILE != "exploratory":
        return
    scaled = set()
    for item in items:
        test = getattr(item, "function", None)
        current = getattr(test, "_hypothesis_internal_use_settings", None)
        if current is None or test in scaled:
            continue
        scaled.add(test)
        test._hypothesis_internal_use_settings = settings(
            current, max_examples=current.max_examples * EXPLORATORY_BUDGET_SCALE
        )


@pytest.fixture
def fig5_topology() -> Topology:
    """The paper's Fig. 5 worked example: 4x4, BW(dim1) = 2 x BW(dim2).

    Bandwidths are chosen so that one *unit* (a 64 MB Reduce-Scatter on
    dim1, i.e. 48 MB transferred) takes 48 MB / 96 Gb/s-in-bytes; latencies
    are zero as in the example.
    """
    return Topology(
        [
            dimension("ring", 4, 96.0, latency_ns=0),
            dimension("ring", 4, 48.0, latency_ns=0),
        ],
        name="fig5-4x4",
    )


@pytest.fixture
def homo_3d() -> Topology:
    """Table 2's 3D-SW_SW_SW_homo (the paper's most imbalanced baseline case)."""
    return get_topology("3D-SW_SW_SW_homo")


@pytest.fixture
def small_2d() -> Topology:
    """A tiny 2x2 switch topology for fast exhaustive checks."""
    return Topology(
        [
            dimension("sw", 2, 100.0, latency_ns=100),
            dimension("sw", 2, 50.0, latency_ns=200),
        ],
        name="tiny-2x2",
    )


@pytest.fixture
def asymmetric_3d() -> Topology:
    """A 3D topology with three distinct kinds and sizes (4 x 2 x 8)."""
    return Topology(
        [
            dimension("ring", 4, 400.0, links_per_npu=2, latency_ns=20),
            dimension("fc", 2, 300.0, links_per_npu=1, latency_ns=700),
            dimension("sw", 8, 100.0, links_per_npu=1, latency_ns=1700),
        ],
        name="asym-4x2x8",
    )
