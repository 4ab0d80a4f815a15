"""Content-addressed on-disk object cache.

Stores serialized pre-link :class:`~repro.link.objfile.UObject` blobs
under their :func:`~repro.build.serialize.object_cache_key` digest:

    <root>/<first two hex chars>/<digest>.uo

Each entry carries a sha256 of its payload, as a JSON object
``{"sha256":"<hex>","object":<payload>}`` whose prefix has a fixed
length, so reading it back needs no JSON parse.  An entry whose digest
does not match — a flipped operand digit still decodes as a valid
object — is never served: ``get`` counts it as
``build.cache.bad_entry`` and reports a miss, so the unit is rebuilt.

Writes are atomic (temp file + ``os.replace``) so concurrent builders
— several processes sharing one cache directory — never observe torn
entries, and a crash mid-write leaves no partial entry behind.  Reads
bump the entry mtime, which drives least-recently-used eviction when
``max_entries`` is set.

Every operation flows through ``repro.obs`` counters:
``build.cache.hit``, ``build.cache.miss``, ``build.cache.bad_entry``,
``build.cache.store`` and ``build.cache.evict`` (all zero-cost while no
registry is active).
"""

from __future__ import annotations

import hashlib
import os
import tempfile

from ..obs import events

_SUFFIX = ".uo"
_HEAD = b'{"sha256":"'
_MID = b'","object":'
_PAYLOAD_AT = len(_HEAD) + 64 + len(_MID)


def _frame(payload: bytes) -> bytes:
    digest = hashlib.sha256(payload).hexdigest().encode()
    return _HEAD + digest + _MID + payload + b"}"


def _unframe(entry: bytes) -> bytes | None:
    """The payload of a well-framed entry whose digest matches, else
    None."""
    if not (
        entry.startswith(_HEAD)
        and entry.startswith(_MID, _PAYLOAD_AT - len(_MID))
        and entry.endswith(b"}")
    ):
        return None
    payload = entry[_PAYLOAD_AT:-1]
    digest = entry[len(_HEAD) : len(_HEAD) + 64]
    if hashlib.sha256(payload).hexdigest().encode() != digest:
        return None
    return payload


class ObjectCache:
    """A content-addressed store of serialized compilation units."""

    def __init__(self, root: str, max_entries: int | None = None):
        self.root = str(root)
        self.max_entries = max_entries
        os.makedirs(self.root, exist_ok=True)

    # -- addressing --------------------------------------------------------

    def _path(self, digest: str) -> str:
        return os.path.join(self.root, digest[:2], digest + _SUFFIX)

    def path_for(self, digest: str) -> str:
        """On-disk location for ``digest`` (whether or not it exists)."""
        return self._path(digest)

    # -- primitives --------------------------------------------------------

    def get(self, digest: str) -> bytes | None:
        """The stored blob for ``digest``, or None on a miss (including
        an entry that fails its integrity digest)."""
        path = self._path(digest)
        try:
            with open(path, "rb") as handle:
                entry = handle.read()
        except OSError:
            events.counter("build.cache.miss").inc()
            return None
        data = _unframe(entry)
        if data is None:
            events.counter("build.cache.bad_entry").inc()
            events.counter("build.cache.miss").inc()
            return None
        try:
            os.utime(path)  # LRU touch
        except OSError:
            pass
        events.counter("build.cache.hit").inc()
        return data

    def put(self, digest: str, data: bytes) -> None:
        """Store ``data`` under ``digest`` atomically."""
        path = self._path(digest)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(_frame(data))
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        events.counter("build.cache.store").inc()
        if self.max_entries is not None:
            self._evict(keep=path)

    def _evict(self, keep: str) -> None:
        entries = self.entries()
        excess = len(entries) - self.max_entries
        if excess <= 0:
            return
        # Oldest mtime first; never evict the entry just written.
        entries.sort(key=lambda e: (e[2], e[0]))
        for digest, _, _ in entries:
            if excess <= 0:
                break
            path = self._path(digest)
            if path == keep:
                continue
            try:
                os.unlink(path)
            except OSError:
                continue
            events.counter("build.cache.evict").inc()
            excess -= 1

    # -- inspection --------------------------------------------------------

    def entries(self) -> list[tuple[str, int, float]]:
        """All entries as (digest, size bytes, mtime), unsorted."""
        found: list[tuple[str, int, float]] = []
        try:
            shards = os.listdir(self.root)
        except OSError:
            return found
        for shard in shards:
            shard_dir = os.path.join(self.root, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in os.listdir(shard_dir):
                if not name.endswith(_SUFFIX):
                    continue
                path = os.path.join(shard_dir, name)
                try:
                    stat = os.stat(path)
                except OSError:
                    continue
                found.append(
                    (name[: -len(_SUFFIX)], stat.st_size, stat.st_mtime)
                )
        return found

    def stats(self) -> dict:
        """Summary used by ``python -m repro cache stats``."""
        entries = self.entries()
        return {
            "root": self.root,
            "entries": len(entries),
            "bytes": sum(size for _, size, _ in entries),
        }

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for digest, _, _ in self.entries():
            try:
                os.unlink(self._path(digest))
                removed += 1
            except OSError:
                continue
        return removed
