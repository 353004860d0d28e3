"""Rewrite tests/golden/digests.json from the outputs of the code in this checkout.

Usage, from anywhere: python tests/golden/update.py

It prints each output whose digest it adds, drops or changes, for the
CHANGES.md entry that names them.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from tests.test_golden import DIGESTS, blas, digests, versions, write_outputs  # noqa: E402


def changes(old: dict[str, str], new: dict[str, str]) -> list[str]:
    """One line per output whose digest new adds, drops or changes against old."""
    lines = []
    for name in sorted(old.keys() | new.keys()):
        if name not in old:
            lines.append(f"added {name}")
        elif name not in new:
            lines.append(f"dropped {name}")
        elif old[name] != new[name]:
            lines.append(f"changed {name}")
    return lines


def main() -> None:
    old = json.loads(DIGESTS.read_text())["digests"] if DIGESTS.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        write_outputs(Path(tmp) / "out", Path(tmp) / "inputs")
        record = {"versions": versions(), "blas": blas(), "digests": digests(Path(tmp) / "out")}
    DIGESTS.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    lines = changes(old, record["digests"])
    print("\n".join(lines or ["no digest changed"]))
    print(f"wrote {len(record['digests'])} digests to {DIGESTS}")


if __name__ == "__main__":
    main()
