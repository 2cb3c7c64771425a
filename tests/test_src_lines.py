"""scripts/src_lines.py on a closed stdout."""

from __future__ import annotations

import sys
from pathlib import Path

from conftest import run_with_closed_stdout

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "src_lines.py"


def test_a_closed_stdout_exits_141_silently():
    """As ``src_lines.py | head -1`` does once head has read its line."""
    assert run_with_closed_stdout(sys.executable, str(SCRIPT)) == (141, "")
