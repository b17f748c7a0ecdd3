"""Result persistence: key-value manifests and CSV tables.

The on-disk layout is a results directory holding a `manifest.txt` of flat
`key = value` lines and CSV tables written with the stdlib csv module.
Everything round-trips through plain text so runs are diff-able and citable.
"""

from __future__ import annotations

import csv
import time
from pathlib import Path

import numpy as np

from .errors import ConfigError


def write_manifest(path, entries: dict) -> None:
    """Write a flat key = value manifest; values are stringified."""
    lines = [f"{k} = {entries[k]}" for k in entries]
    Path(path).write_text("\n".join(lines) + "\n")


def read_manifest(path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"manifest not found: {path}")
    entries = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"malformed manifest line: {raw!r}", line=lineno)
        key, _, value = line.partition("=")
        entries[key.strip()] = value.strip()
    return entries


def base_manifest(**extra) -> dict:
    """Common manifest header: package versions and timestamp."""
    import scipy

    from . import __version__

    return {
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "regnets_version": __version__,
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
        **extra,
    }


def write_csv(path, header: list, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _fmt(v):
    if isinstance(v, complex):
        return repr(v)
    if isinstance(v, float) or isinstance(v, np.floating):
        return f"{float(v):.17g}"
    return v


def read_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    return header, rows
