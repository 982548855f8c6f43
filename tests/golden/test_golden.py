"""Byte identity of the package's outputs against tests/golden/digests.json.

The digests were made by make_digests.py on one numpy version and platform;
elsewhere the last bits of libm may differ, so the tests that recompute an
output skip and name both.
"""

from __future__ import annotations

import json

import pytest

import compare_digests
import make_digests as golden
from opendicke import open_eigenfrequencies
from opendicke.eigen import ConvergenceError

DOC = json.loads(golden.DIGESTS.read_text())

same_environment = pytest.mark.skipif(
    DOC["environment"] != golden.environment(),
    reason=f"digests made with {DOC['environment']}, running with {golden.environment()}",
)


@same_environment
@pytest.mark.parametrize("name", sorted(golden.README_EXAMPLES))
def test_readme_example(name, tmp_path):
    argv = golden.README_EXAMPLES[name].split()
    assert golden.run_example(argv, tmp_path) == DOC["examples"][name]


@same_environment
@pytest.mark.parametrize("name", sorted(golden.PINNED_GRIDS))
def test_pinned_grid(name, tmp_path):
    argv = golden.PINNED_GRIDS[name].split()
    assert golden.run_example(argv, tmp_path) == DOC["grids"][name]


@pytest.mark.parametrize("name", sorted(golden.GRIDS))
def test_pinned_grid_is_the_same_at_any_worker_count(name):
    assert DOC["grids"][f"{name}-p1"] == DOC["grids"][f"{name}-p2"]


@same_environment
@pytest.mark.parametrize("family", golden.FAMILIES)
def test_point_family(family):
    points = golden.family_points(family, DOC["gap_edges"])
    assert golden.family_digests(points) == DOC["points"][family]


@same_environment
def test_every_gap_edge_is_sampled():
    # Each stored edge is within reach of the +-5% window of some point.
    points = golden.family_points("gap-edge", DOC["gap_edges"])
    edges = [edge for config_edges in DOC["gap_edges"] for edge in config_edges]
    assert len(edges) >= 20
    for edge in edges:
        assert any(abs(p[2] / edge - 1.0) <= 0.05 for p in points)


CRITICAL = golden.family_points("critical")
UPPER_HALF_PLANE = pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 3: the continuation returns a mirror pair at "
    "+-7.92e-12 + 3.50e-12j; the certificate would catch it",
)


@same_environment
@pytest.mark.parametrize("k", [
    pytest.param(k, marks=UPPER_HALF_PLANE) if k == 202 else k
    for k in range(len(CRITICAL))
])
def test_critical_roots_are_in_the_lower_half_plane(k):
    try:
        roots = open_eigenfrequencies(golden._params(*CRITICAL[k])).roots
    except ConvergenceError:
        roots = ()  # six points return no roots (ROADMAP item 3)
    assert all(root.imag <= 0.0 for root in roots), roots


def test_digest_comparison_skips_moved_entries_and_checks_the_rest():
    base = {"examples": {"a": 1, "b": 2}, "gap_edges": [[0.5]]}
    head = {"examples": {"a": 1, "b": 3, "new": 4}, "gap_edges": [[0.5]]}
    made = {"examples": {"a": 1, "b": 2, "new": 4}, "gap_edges": [[0.5]]}
    moved = {"examples": {"a": 9, "b": 3, "new": 4}, "gap_edges": [[0.6]]}
    assert compare_digests.compare(base, head, made, made) == (["examples/b", "examples/new"], [])
    assert compare_digests.compare(base, head, made, moved) == (
        ["examples/b", "examples/new"],
        ["examples/a", "gap_edges/0"],
    )
