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
import scipy

from . import __version__
from .errors import ConfigError


def write_manifest(path, entries: dict) -> None:
    """Write a flat key = value manifest; values are stringified."""
    lines = [f"{k} = {entries[k]}" for k in entries]
    Path(path).write_text("\n".join(lines) + "\n")


def _read_key_values(path, what: str) -> tuple[dict, dict]:
    """Flat key = value lines, # comments skipped -> (entries, line of each key).
    A missing, unreadable or non-UTF-8 file, a line without '=' and a repeated
    key raise ConfigError; what names the file in the message."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError(f"{what} not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from None
    entries, lines = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {raw!r}", line=lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        if key in entries:
            raise ConfigError(f"duplicate key {key!r}", line=lineno)
        entries[key], lines[key] = value.strip(), lineno
    return entries, lines


def read_manifest(path) -> dict:
    return _read_key_values(path, "manifest")[0]


def base_manifest(**extra) -> dict:
    """Common manifest header: package versions and timestamp."""
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
    """(header, rows); an unreadable, non-UTF-8 or empty file raises ConfigError."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    if not rows:
        raise ConfigError(f"cannot read {path}: the file is empty")
    return rows[0], rows[1:]
