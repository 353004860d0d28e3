"""Rewrite tests/golden/digests.json from the outputs of the code in this checkout.

Usage, from anywhere: python tests/golden/update.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from tests.test_golden import DIGESTS, digests, versions, write_outputs  # noqa: E402


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        write_outputs(Path(tmp) / "out", Path(tmp) / "inputs")
        record = {"versions": versions(), "digests": digests(Path(tmp) / "out")}
    DIGESTS.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(record['digests'])} digests to {DIGESTS}")


if __name__ == "__main__":
    main()
