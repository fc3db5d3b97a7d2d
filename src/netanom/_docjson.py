"""Canonical JSON helpers shared by the versioned document formats.

Floats are emitted through Python's shortest round-trip repr, so every
serialized number reloads to the exact same double. Digests are computed
over the canonical (sorted-key, no-whitespace) encoding.
"""

from __future__ import annotations

import hashlib
import json


def canonical_dumps(obj) -> str:
    """Stable, whitespace-free encoding used for hashing and checksums."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def pretty_dumps(obj) -> str:
    """Deterministic human-readable encoding used for files on disk."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def parse_json(data: bytes | str, error: type[Exception], what: str):
    """The JSON document ``data``, UTF-8 if bytes. Bytes that are not UTF-8,
    text that is not JSON and a document nested too deeply to parse raise
    ``error`` naming ``what``."""
    try:
        return json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise error(f"{what} is not valid JSON: {exc}") from exc


def digest_of(obj) -> str:
    return hashlib.sha256(canonical_dumps(obj).encode("utf-8")).hexdigest()


def digest_of_file(path) -> str:
    """sha256 of a file's bytes, read 1 MiB at a time."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            h.update(chunk)
    return h.hexdigest()
