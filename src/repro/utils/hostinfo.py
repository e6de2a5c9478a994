"""Host identity helpers for cross-host artifacts.

Distributed campaigns aggregate per-process artifacts (trace shards, metric
shards) from several machines into one directory; a bare ``pid`` key collides
as soon as two hosts contribute.  :func:`host_tag` is the sanitized hostname
used to namespace those artifacts — filesystem-safe, stable for the life of
the process, and cheap to call from hot paths (cached after the first call).
"""

from __future__ import annotations

import re
from functools import lru_cache


@lru_cache(maxsize=1)
def host_tag() -> str:
    """This machine's hostname, sanitized for filenames and JSON keys."""
    import socket  # only traced or distributed runs need it

    try:
        name = socket.gethostname()
    except OSError:  # pragma: no cover - gethostname practically never fails
        name = ""
    tag = re.sub(r"[^A-Za-z0-9._-]+", "-", name or "").strip("-.")
    return tag or "host"
