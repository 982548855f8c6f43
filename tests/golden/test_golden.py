"""Byte identity of the package's outputs against tests/golden/digests.json.

Every pinned command line runs once per pytest session, in process, through
``record``. The checks that need no stored bytes run on every numpy: each
pinned grid gives the same record at --parallel 1 and 2, and each command
line's exit code, stderr and written file names match its stored record.
The digests were made by make_digests.py on one numpy version and platform;
elsewhere the last bits of libm may differ, so the tests that compare a
sha256 or stdout with the stored one skip and name both.
"""

from __future__ import annotations

import functools
import json
import tempfile
from pathlib import Path

import pytest

import compare_digests
import make_digests as golden
from opendicke import open_eigenfrequencies
from opendicke.eigen import ConvergenceError

DOC = json.loads(golden.DIGESTS.read_text())
COMMANDS = {
    **{("examples", name): text for name, text in golden.README_EXAMPLES.items()},
    **{("grids", name): text for name, text in golden.PINNED_GRIDS.items()},
}

same_environment = pytest.mark.skipif(
    DOC["environment"] != golden.environment(),
    reason=f"digests made with {DOC['environment']}, running with {golden.environment()}",
)


@functools.cache
def record(text: str) -> dict:
    """The run_example record of one command line, made in an empty directory."""
    with tempfile.TemporaryDirectory() as tmp:
        return golden.run_example(text.split(), Path(tmp))


@pytest.mark.parametrize("section, name", list(COMMANDS))
def test_exit_code_stderr_and_file_names_match_the_stored_record(section, name):
    made, stored = record(COMMANDS[section, name]), DOC[section][name]
    assert (made["rc"], made["stderr"], made["files"].keys()) == (
        stored["rc"], stored["stderr"], stored["files"].keys()
    )


@same_environment
@pytest.mark.parametrize("name", sorted(golden.README_EXAMPLES))
def test_readme_example(name):
    assert record(golden.README_EXAMPLES[name]) == DOC["examples"][name]


@same_environment
@pytest.mark.parametrize("name", sorted(golden.PINNED_GRIDS))
def test_pinned_grid(name):
    assert record(golden.PINNED_GRIDS[name]) == DOC["grids"][name]


@pytest.mark.parametrize("name", sorted(golden.GRIDS))
def test_pinned_grid_is_the_same_at_any_worker_count(name):
    assert record(golden.PINNED_GRIDS[f"{name}-p1"]) == record(golden.PINNED_GRIDS[f"{name}-p2"])


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
