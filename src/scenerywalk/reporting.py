"""Deterministic CSV/JSON emission with provenance columns.

Output bytes are a pure function of the data: floats are formatted with
%.12g, JSON keys are sorted, and the provenance string hashes the run
parameters (never wall-clock time), so identical configurations produce
byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import sys
from typing import Iterable, Sequence

from . import __version__


def format_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def provenance_string(params: dict) -> str:
    """Short git-describe-style run identifier: version plus parameter hash."""
    blob = json.dumps(params, sort_keys=True, default=str).encode()
    return f"scenerywalk-{__version__}+{hashlib.sha256(blob).hexdigest()[:8]}"


def render_csv(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_value(v) for v in row))
    return "\n".join(lines) + "\n"


def render_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, default=format_value) + "\n"


def write_text(path, text: str) -> None:
    """Write-once text output; refuses to clobber an existing file.

    The file is created in exclusive mode, so a file that appears after the
    call starts is refused too, never overwritten.
    """
    if path in ("-", None):
        sys.stdout.write(text)
        return
    try:
        with open(path, "x", encoding="utf-8") as fh:
            fh.write(text)
    except FileExistsError:
        raise FileExistsError(f"refusing to overwrite existing output {path}") from None
