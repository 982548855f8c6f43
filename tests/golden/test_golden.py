"""Byte identity of the package's outputs against tests/golden/digests.json.

The digests were made by make_digests.py on one numpy version and platform;
elsewhere the last bits of libm may differ, so the tests skip and name both.
"""

from __future__ import annotations

import json

import pytest

import make_digests as golden

DOC = json.loads(golden.DIGESTS.read_text())


@pytest.fixture(autouse=True)
def same_environment():
    made, here = DOC["environment"], golden.environment()
    if made != here:
        pytest.skip(f"digests made with {made}, running with {here}")


@pytest.mark.parametrize("name", sorted(golden.README_EXAMPLES))
def test_readme_example(name, tmp_path):
    argv = golden.README_EXAMPLES[name].split()
    assert golden.run_example(argv, tmp_path) == DOC["examples"][name]


@pytest.mark.parametrize("family", golden.FAMILIES)
def test_point_family(family):
    points = golden.family_points(family, DOC["gap_edges"])
    assert golden.family_digests(points) == DOC["points"][family]


def test_every_gap_edge_is_sampled():
    # Each stored edge is within reach of the +-5% window of some point.
    points = golden.family_points("gap-edge", DOC["gap_edges"])
    edges = [edge for config_edges in DOC["gap_edges"] for edge in config_edges]
    assert len(edges) >= 20
    for edge in edges:
        assert any(abs(p[2] / edge - 1.0) <= 0.05 for p in points)
