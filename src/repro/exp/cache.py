"""Content-addressed on-disk result cache.

A sweep point's result is a pure function of (evaluator, point spec,
the program text it compiles, the repro code version). The cache key is
the SHA-256 of exactly that tuple in canonical JSON, so:

* editing a workload's source changes ``program_text`` → new key,
* changing any config field changes the spec → new key,
* editing ANY file under ``src/repro`` changes the code fingerprint →
  every key rolls over (simulator behaviour may have changed; stale
  cycle counts are worse than a cold cache — this is what makes it safe
  for the benchmarks to cache by default),
* a new repro release changes the version → same rollover.

Layout: ``<root>/sweep/<key[:2]>/<key>.json`` — two-level fanout keeps
directories small. Writes are atomic (tmp file + rename), so a killed
sweep never leaves a half-written entry; a corrupted or unreadable
entry is evicted and recomputed, never fatal.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro import __version__

#: environment override for the cache root (the CLI's --cache-dir wins)
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_dir() -> Path:
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro"


def write_atomic(path: Path, *chunks: bytes) -> None:
    """Write ``chunks`` to ``path`` through a tmp file and ``os.replace``
    (creating the parent directory): readers see the old file or the
    whole new one, never a torn write."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


_fingerprint: Optional[str] = None


def code_fingerprint() -> str:
    """SHA-256 over the contents of every ``repro`` source file,
    computed once per process. Folding this into every cache key means
    a result can only ever be replayed by the exact code that produced
    it — local edits between releases cannot serve stale results."""
    global _fingerprint
    if _fingerprint is None:
        root = Path(__file__).resolve().parent.parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode("utf-8"))
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _fingerprint = digest.hexdigest()
    return _fingerprint


def canonical_json(obj: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, no NaN. Raises
    ``TypeError`` on non-JSON values — a spec that cannot serialise
    canonically cannot be cached (or shipped to a worker) correctly."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


class ResultCache:
    """Content-addressed store for sweep-point results."""

    def __init__(self, root: Optional[Union[str, Path]] = None):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.hits = 0       # get() served a valid entry
        self.misses = 0     # get() found nothing usable
        self.evictions = 0  # corrupted entries dropped

    # -- keys -------------------------------------------------------------

    def key(self, evaluator: str, spec: Dict[str, Any],
            program_text: str = "") -> str:
        payload = canonical_json({
            "evaluator": evaluator,
            "spec": spec,
            "program": program_text,
            "version": __version__,
            "code": code_fingerprint(),
        })
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def path_for(self, key: str) -> Path:
        return self.root / "sweep" / key[:2] / (key + ".json")

    # -- entries ----------------------------------------------------------

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The cached record for ``key``, or None. A missing entry is a
        plain miss; an unreadable one is evicted and reported as a miss
        (it will be recomputed and rewritten)."""
        path = self.path_for(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                entry = json.load(fh)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError):
            self._evict(path)
            self.misses += 1
            return None
        if not isinstance(entry, dict) or entry.get("key") != key \
                or "record" not in entry:
            self._evict(path)
            self.misses += 1
            return None
        self.hits += 1
        return entry["record"]

    def counters(self) -> Dict[str, int]:
        """Hit/miss/corruption counters for the sweep telemetry block."""
        return {"hits": self.hits, "misses": self.misses,
                "corruption_evictions": self.evictions}

    def put(self, key: str, record: Dict[str, Any]) -> None:
        """Store ``record`` atomically (tmp + rename: concurrent workers
        racing on the same key both write complete entries, last one
        wins — they are identical by construction)."""
        entry = {"key": key, "version": __version__, "record": record}
        write_atomic(self.path_for(key), json.dumps(entry).encode("utf-8"))

    def _evict(self, path: Path) -> None:
        self.evictions += 1
        try:
            os.unlink(path)
        except OSError:
            pass

    def __repr__(self):
        return f"<ResultCache {self.root}>"
