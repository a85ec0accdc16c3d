"""Provenance stamps for benchmark artifacts.

A wall-clock number is only comparable to another wall-clock number from
the *same* machine; an artifact without provenance invites exactly that
silent cross-machine diff.  :func:`provenance` captures where and when an
artifact was produced (host fields, git revision, timestamp), so a reader
can tell which numbers are comparable.

This module is deliberately host-facing: wall-clock reads are the point
(the lint exemptions say so inline), and none of these values may ever
flow into simulator state.
"""

from __future__ import annotations

import os
import platform
import socket
import subprocess
from datetime import datetime, timezone
from typing import Any


def git_revision(cwd: str | None = None) -> str:
    """The current ``HEAD`` hash, or ``"unknown"`` outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if out.returncode != 0:
        return "unknown"
    return out.stdout.strip() or "unknown"


def provenance() -> dict[str, Any]:
    """The stamp a benchmark artifact embeds under ``"provenance"``."""
    return {
        "git_rev": git_revision(),
        "timestamp": datetime.now(timezone.utc).isoformat(  # repro: noqa[RL003] — artifact stamp, not model state
            timespec="seconds"
        ),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "hostname": socket.gethostname(),
        "cpu_count": os.cpu_count() or 1,
    }

