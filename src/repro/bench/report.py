"""Table formatting and provenance shared by the benchmark CLIs."""

from __future__ import annotations

import os
import platform
import subprocess
import sys
import time

from repro import config


def provenance() -> dict:
    """The stamp every ``BENCH_*.json`` carries: when, on what interpreter
    and host, at which revision, under which settings."""
    sha = subprocess.run(["git", "describe", "--always", "--dirty"],
                         capture_output=True, text=True).stdout.strip()
    return {"created_unix": int(time.time()),
            "python": sys.version.split()[0],
            "platform": platform.platform(), "cpus": os.cpu_count(),
            "git_sha": sha or None, "config": config.effective()}


def format_table(headers: list[str], rows: list[list[str]],
                 title: str = "") -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(str(cell)))

    def fmt(row):
        return "  ".join(str(c).rjust(w) for c, w in zip(row, widths))

    out = []
    if title:
        out.append(title)
    out.append(fmt(headers))
    out.append("  ".join("-" * w for w in widths))
    out.extend(fmt(r) for r in rows)
    return "\n".join(out)


def us(seconds: float) -> str:
    """Microseconds with one decimal, the paper's Table 1 unit."""
    return f"{seconds * 1e6:.1f}"


def mbs(bytes_per_sec: float) -> str:
    return f"{bytes_per_sec / 1e6:.2f}"
