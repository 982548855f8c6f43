"""Compare the golden digests of two source trees, entry by entry.

    python tests/golden/compare_digests.py BASE_STORED HEAD_STORED BASE_MADE HEAD_MADE

Each argument is a digests.json: the two trees' committed files and the
two that each tree's make_digests.py wrote on this machine. An entry is
compared when its committed value is the same in both trees, so a change
that moves some digests on purpose still has every other output checked.
An entry whose committed value moved, or that one tree lacks, is listed
and skipped. Exits 1 if any compared entry differs between the two trees.
"""

from __future__ import annotations

import json
import sys


def entries(doc: dict) -> dict:
    """Every entry of a digests document under one key: the section, then
    the entry's name or index ("examples/eigen", "gap_edges/3")."""
    out = {}
    for section, value in doc.items():
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for name, entry in items:
            out[f"{section}/{name}"] = entry
    return out


def compare(base_stored: dict, head_stored: dict, base_made: dict, head_made: dict):
    """(skipped, differ): the keys not compared, and the compared keys whose
    made values differ between the trees."""
    base_stored, head_stored = entries(base_stored), entries(head_stored)
    base_made, head_made = entries(base_made), entries(head_made)
    keys = sorted(base_stored.keys() | head_stored.keys())
    pinned = [k for k in keys if k in base_stored and base_stored[k] == head_stored.get(k)]
    skipped = [k for k in keys if k not in pinned]
    differ = [k for k in pinned if base_made.get(k) != head_made.get(k)]
    return skipped, differ


def main(paths: list[str]) -> int:
    docs = []
    for path in paths:
        with open(path) as handle:
            docs.append(json.load(handle))
    skipped, differ = compare(*docs)
    print("entries whose committed value moved or is new, not compared:", skipped or "none")
    print("compared entries that differ between the trees:", differ or "none")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
