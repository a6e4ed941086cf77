"""Persistent outcome-stream cache: memoize content walks to disk.

The content walk is the wall-clock bulk of every figure regeneration, and
its result — the :class:`~repro.hierarchy.events.OutcomeStream`, the
walk's L1-miss record — is a pure function of ``(workload, machine,
policy, refs, seed, replacement, coherent)``: exactly the identity
:meth:`SimConfig.cache_key <repro.sim.config.SimConfig.cache_key>`
already pins for the in-process runner cache.  This module extends that
cache across processes: records are stored one file per entry under a
cache directory (default ``.repro-cache/``), keyed by ``(workload,
*cache_key(), SCHEMA_VERSION)``.

Only the record is persisted (:data:`~repro.hierarchy.events.RECORD_FIELDS`:
the misses with their PCs, per-core totals and CPIs, the LLC events and
final LLC contents) — never the per-access arrays, so a warm run needs
neither them nor the workload.  Two digests travel in each entry's
metadata: the walk's content **fingerprint** (computed over the full
per-access arrays at walk time; what goldens and checked mode pin), and
the **record digest** over every persisted array
(:meth:`~repro.hierarchy.events.OutcomeStream.record_digest`), which is
**re-verified on load** — a corrupt, truncated or tampered entry is
discarded with a warning and the walk re-runs; a cached stream is never
trusted on faith.

Entry layout (schema 3, suffix :data:`ENTRY_SUFFIX`), one contiguous
file that one read returns whole::

    magic      8 bytes   b"RPSTRM\x01\x00" (format name + layout version)
    length     8 bytes   little-endian header length H (a multiple of 8)
    header     H bytes   ASCII JSON, space-padded: the metadata (key,
                         fingerprint, record digest, level count, access
                         count, schema version) and "arrays", one
                         [name, dtype, count, offset] row per
                         RECORD_FIELDS array, offset counted from the
                         first byte after the header
    arrays               the raw arrays in RECORD_FIELDS order, each
                         starting 8-byte aligned, zero bytes between

A reader accepts exactly that layout: the magic, the header bounds, every
pinned field with its pinned dtype in order, each array at the offset the
layout puts it, zero padding, and no byte after the last array.  A
flipped byte therefore fails the header parse, the layout check or the
record digest; a cut file fails the bounds check.  Arrays are read-only
``np.frombuffer`` views of the one ``bytes`` object the read returned.
``repro cache ls`` reads only the 16 fixed bytes and the header.  On a
2-vCPU host a 552-miss entry (tiny machine, 1500 refs/core) loads in
~0.22 ms and a 54k-miss entry (scaled machine, 40k refs/core) in ~6.7 ms,
~90 % of it the blake2b re-verification; the schema-2 ``.npz`` entries
these replace took ~1.5 and ~11.2 ms.

Opt-in wiring (never on by default):

``SimConfig(stream_cache="dir")``
    per-config cache directory;
``REPRO_STREAM_CACHE=dir``
    environment-wide: ``1``/``true``/``yes``/``on`` selects the default
    ``.repro-cache/``; any other non-empty value *is* the directory;
    ``0``/``false``/``off``/``no``/empty disables.

``repro cache {ls,clear,verify}`` inspects, empties and re-digests
the cache from the command line.  Bumping :data:`SCHEMA_VERSION` after any
change to the stream layout or the content walk's semantics invalidates
every existing entry (the version is part of the key, so old files simply
stop being addressed; ``repro cache clear`` reclaims the space).
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro import faults, telemetry
from repro.hierarchy.events import RECORD_FIELDS, OutcomeStream

__all__ = [
    "CACHE_ENV",
    "DEFAULT_CACHE_DIR",
    "ENTRY_SUFFIX",
    "SCHEMA_VERSION",
    "CacheEntry",
    "StreamCache",
    "resolve_cache",
    "stream_key",
]

#: Bump when the OutcomeStream layout or content-walk semantics change:
#: the version is part of every key, so old entries become unreachable.
SCHEMA_VERSION = 3

#: Environment switch (see module docstring for the value grammar).
CACHE_ENV = "REPRO_STREAM_CACHE"

DEFAULT_CACHE_DIR = ".repro-cache"

#: File suffix of a cache entry (schema 2 and older wrote ``.npz``).
ENTRY_SUFFIX = ".stream"

_TRUTHY = frozenset({"1", "true", "yes", "on"})
_FALSY = frozenset({"", "0", "false", "off", "no"})

_MAGIC = b"RPSTRM\x01\x00"
_PREFIX = len(_MAGIC) + 8          # magic + header length
_ALIGN = 8


def _aligned(n: int) -> int:
    return -(-n // _ALIGN) * _ALIGN


def _header_bytes(header: dict) -> bytes:
    """Magic, header length and the space-padded ASCII JSON ``header``."""
    text = json.dumps(header, separators=(",", ":")).encode("ascii")
    text += b" " * (_aligned(len(text)) - len(text))
    return _MAGIC + len(text).to_bytes(8, "little") + text


def _write_record(fh, meta: dict, arrays: dict) -> None:
    """Write one entry to the binary file ``fh``: the header, then each
    :data:`RECORD_FIELDS` array of ``arrays`` straight from its buffer
    (no joined copy of the entry)."""
    arrays = [np.ascontiguousarray(arrays[name], dtype=dtype)
              for name, dtype in RECORD_FIELDS]
    rows, offset = [], 0
    for (name, dtype), arr in zip(RECORD_FIELDS, arrays):
        rows.append([name, dtype, len(arr), offset])
        offset = _aligned(offset + arr.nbytes)
    fh.write(_header_bytes({**meta, "arrays": rows}))
    written = 0
    for (_name, _dtype, _count, at), arr in zip(rows, arrays):
        if at > written:
            fh.write(bytes(at - written))
        fh.write(arr.data)
        written = at + arr.nbytes


def _header_length(prefix: bytes, size: int) -> int:
    """The header length from the 16 fixed bytes, bounds-checked
    against a file of ``size`` bytes."""
    if len(prefix) < _PREFIX or prefix[:len(_MAGIC)] != _MAGIC:
        raise ValueError("not a stream-cache entry (bad magic)")
    length = int.from_bytes(prefix[len(_MAGIC):_PREFIX], "little")
    if length % _ALIGN or _PREFIX + length > size:
        raise ValueError(f"header length {length} out of bounds")
    return length


def _parse_record(data: bytes) -> tuple[dict, dict]:
    """``(meta, arrays)`` from one whole entry; arrays are read-only views.

    Raises :class:`ValueError` (or :class:`KeyError`/:class:`TypeError`
    on a malformed header) unless ``data`` is exactly the layout
    :func:`_write_record` produces for the pinned fields.
    """
    start = _PREFIX + _header_length(data[:_PREFIX], len(data))
    meta = json.loads(data[_PREFIX:start].decode("ascii"))
    rows = meta["arrays"]
    if len(rows) != len(RECORD_FIELDS):
        raise ValueError(f"{len(rows)} arrays in the header, "
                         f"{len(RECORD_FIELDS)} expected")
    arrays, end = {}, start
    for (name, dtype), row in zip(RECORD_FIELDS, rows):
        got_name, got_dtype, count, offset = row
        if (got_name, got_dtype) != (name, dtype):
            raise ValueError(f"header field {got_name!r} {got_dtype!r}, "
                             f"expected {name!r} {dtype!r}")
        at = start + offset
        if (not isinstance(count, int) or count < 0
                or at != _aligned(end) or any(data[end:at])):
            raise ValueError(f"array {name!r} is not where the layout "
                             f"puts it (count {count}, offset {offset})")
        end = at + count * np.dtype(dtype).itemsize
        if end > len(data):
            raise ValueError(f"array {name!r} ends past the file "
                             f"({end} > {len(data)} bytes)")
        arrays[name] = np.frombuffer(data, dtype=dtype, count=count, offset=at)
    if end != len(data):
        raise ValueError(f"{len(data) - end} stray bytes after the arrays")
    return meta, arrays


def stream_key(workload_name: str, config) -> tuple:
    """The disk-cache identity of one content trajectory."""
    return (workload_name, *config.cache_key(), SCHEMA_VERSION)


def resolve_cache(config=None) -> "StreamCache | None":
    """The active cache for ``config``, or ``None`` when caching is off.

    An explicit ``SimConfig.stream_cache`` wins; otherwise the
    ``REPRO_STREAM_CACHE`` environment variable is consulted.
    """
    explicit = getattr(config, "stream_cache", None) if config is not None else None
    if explicit:
        return StreamCache(explicit)
    env = os.environ.get(CACHE_ENV, "").strip()
    if env.lower() in _FALSY:
        return None
    if env.lower() in _TRUTHY:
        return StreamCache(DEFAULT_CACHE_DIR)
    return StreamCache(env)


@dataclass(frozen=True)
class CacheEntry:
    """One on-disk cache file, as reported by ``repro cache ls``."""

    path: Path
    key: tuple | None          # None when the metadata is unreadable
    fingerprint: str | None
    num_accesses: int | None
    size_bytes: int

    @property
    def ok(self) -> bool:
        return self.key is not None


class StreamCache:
    """Digest-verified on-disk store of L1-miss records."""

    def __init__(self, directory: "str | Path") -> None:
        self.directory = Path(directory)

    # ------------------------------------------------------------- naming
    def path_for(self, key: tuple) -> Path:
        """Deterministic file path: human-readable prefix + key digest.

        The digest alone identifies the entry (the prefix is for ``ls``
        readability); collisions across different keys are caught at load
        time because the full key is stored inside the file.
        """
        digest = hashlib.blake2b(
            repr(key).encode(), digest_size=10
        ).hexdigest()
        human = "-".join(re.sub(r"[^A-Za-z0-9_.]+", "_", str(part)) for part in key)
        return self.directory / f"{human[:80]}-{digest}{ENTRY_SUFFIX}"

    # --------------------------------------------------------------- save
    def save(self, key: tuple, stream: OutcomeStream) -> "Path | None":
        """Persist ``stream`` under ``key``; returns ``None`` on give-up.

        The write is atomic — bytes go to a uniquely named temp file
        (outside the entry namespace, so a killed writer never leaves
        a half entry *or* a phantom ``ls`` row) and ``os.replace`` makes
        the entry visible only once complete.  Write failures (ENOSPC, an
        injected ``streamcache.save`` fault) are retried under the bounded
        deterministic-backoff policy — including the directory creation,
        which can hit the same permission/ENOSPC errors as the write
        itself; when every attempt fails, or the failure is not an I/O
        error at all (a bad array handed to the writer), the save is
        skipped with a warning — a cache is an accelerator, never a
        correctness dependency, so the run continues uncached.
        """
        path = self.path_for(key)
        meta = {
            "key": list(key),
            "fingerprint": stream.fingerprint(),
            "record_digest": stream.record_digest(),
            "num_levels": stream.num_levels,
            "num_accesses": stream.num_accesses,
            "schema_version": SCHEMA_VERSION,
        }
        arrays = {name: getattr(stream, name) for name, _ in RECORD_FIELDS}
        policy = faults.retry_policy()
        try:
            return faults.run_with_retries(
                "streamcache.save",
                lambda: self._write_entry(path, key, meta, arrays),
                policy,
                retriable=(OSError,),
                detail=path.name,
            )
        except faults.RetryExhausted as exc:
            faults.handled("streamcache.save", "skipped_save",
                           entry=path.name, error=str(exc.last))
            warnings.warn(
                f"stream-cache save of {path.name} failed after "
                f"{policy.attempts} attempts ({exc.last}); continuing uncached",
                RuntimeWarning,
                stacklevel=2,
            )
            return None
        except Exception as exc:
            # Non-I/O failures (a key that is not JSON, a bad array handed
            # to the writer) are permanent — retrying cannot help — but
            # they still must not crash the run: skip the save, same as an
            # exhausted retry.
            faults.handled("streamcache.save", "skipped_save",
                           entry=path.name,
                           error=f"{exc.__class__.__name__}: {exc}")
            warnings.warn(
                f"stream-cache save of {path.name} failed "
                f"({exc.__class__.__name__}: {exc}); continuing uncached",
                RuntimeWarning,
                stacklevel=2,
            )
            return None

    def _write_entry(self, path: Path, key: tuple, meta: dict, arrays: dict) -> Path:
        """One atomic write attempt (the ``streamcache.save`` fault site)."""
        self.directory.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
        fired = faults.check("streamcache.save", key=str(key[0]))
        try:
            if fired is not None and fired.kind == "enospc":
                raise faults.InjectedFault(
                    28, f"injected ENOSPC writing {tmp.name}"  # errno.ENOSPC
                )
            with open(tmp, "wb") as fh:
                # Uncompressed on purpose: the records are mostly
                # high-entropy block addresses and PCs (deflate saves
                # little) and a compressed write dominated cold-run
                # wall time.
                _write_record(fh, meta, arrays)
            if fired is not None and fired.kind == "partial_write":
                # A writer killed mid-flush: the temp file is truncated and
                # the rename never happens — the entry must stay invisible.
                data = tmp.read_bytes()
                tmp.write_bytes(data[: len(data) // 2])
                raise faults.InjectedFault(
                    5, f"injected crash mid-write of {tmp.name}"  # errno.EIO
                )
            os.replace(tmp, path)
        except BaseException:
            # Any failure — OSError, an error inside the writer, even
            # KeyboardInterrupt — must not leak the temp file: a sweep of
            # workers each leaking one tmp per attempt fills the disk the
            # cache was supposed to save.
            try:
                tmp.unlink()
            except OSError:
                pass
            raise
        telemetry.count("stream_cache.save")
        return path

    # --------------------------------------------------------------- load
    def load(self, key: tuple) -> "OutcomeStream | None":
        """Load and *verify* the entry for ``key``.

        Returns ``None`` (after discarding the file with a warning) when
        the entry is missing, unreadable, stored under a different key
        (digest collision or tampering), or fails record-digest
        re-verification.  A returned stream is therefore bit-identical to
        the one the walk produced.
        """
        path = self.path_for(key)
        if not path.exists():
            telemetry.count("stream_cache.miss")
            return None
        try:
            # Transient I/O errors (including injected ``io_error`` faults)
            # are retried under the bounded deterministic-backoff policy;
            # anything else — bad magic, a header that does not parse, an
            # array out of bounds — is a permanent fault and falls
            # straight through to the discard.
            stream, meta = faults.run_with_retries(
                "streamcache.load",
                lambda: self._read_checked(path, key),
                faults.retry_policy(),
                retriable=(OSError,),
                detail=path.name,
            )
        except faults.RetryExhausted as exc:
            if isinstance(exc.last, FileNotFoundError):
                # A concurrent clear()/discard deleted the entry between
                # our existence check and the read: an ordinary miss, not
                # a corrupt entry — nothing to discard or warn about.
                telemetry.count("stream_cache.miss")
                return None
            self._discard(path, f"unreadable after retries ({exc.last})")
            return None
        except Exception as exc:  # bad magic/header/layout, cut file…
            self._discard(path, f"unreadable ({exc.__class__.__name__}: {exc})")
            return None
        if tuple(meta.get("key", ())) != key:
            self._discard(path, "stored under a different key")
            return None
        if stream.record_digest() != meta.get("record_digest"):
            self._discard(path, "record digest mismatch (stale or corrupt)")
            return None
        telemetry.count("stream_cache.hit")
        return stream

    def _read_checked(self, path: Path, key: tuple) -> tuple[OutcomeStream, dict]:
        """One read attempt (the ``streamcache.load`` fault site).

        ``io_error`` raises a transient :class:`OSError` (retried);
        ``corrupt`` / ``short_read`` damage the on-disk entry itself, so
        the read fails permanently and the discard-and-re-walk recovery
        path runs — exactly what a real bad sector produces.
        """
        fired = faults.check("streamcache.load", key=str(key[0]))
        if fired is not None:
            if fired.kind == "io_error":
                raise faults.InjectedFault(
                    5, f"injected transient read error on {path.name}"
                )
            faults.damage_file(path, fired)
        return self._read(path)

    def _read(self, path: Path) -> tuple[OutcomeStream, dict]:
        meta, arrays = _parse_record(path.read_bytes())
        return (
            OutcomeStream(
                **arrays,
                num_levels=int(meta["num_levels"]),
                content_fingerprint=str(meta["fingerprint"]),
            ),
            meta,
        )

    def _discard(self, path: Path, reason: str) -> None:
        # Structured event + counter for the manifest; the warning stays
        # for callers that only watch the warnings stream.  This *is* the
        # recovery path for a bad entry — the caller re-walks — so it is
        # also recorded as a handled fault.
        telemetry.count("stream_cache.reject")
        telemetry.event("stream_cache.discard", entry=path.name, reason=reason)
        faults.handled("streamcache.load", "discard_rewalk",
                       entry=path.name, reason=reason)
        warnings.warn(
            f"discarding stream-cache entry {path.name}: {reason}",
            RuntimeWarning,
            stacklevel=3,
        )
        try:
            path.unlink()
        except OSError:
            pass

    # ---------------------------------------------------------- inventory
    def entries(self) -> list[CacheEntry]:
        """All cache files, with metadata where readable (for ``ls``).

        The directory is shared: a concurrent writer's ``load`` discard or
        another process's ``clear()`` can delete a file between the glob
        and our ``stat``/read.  A vanished entry is simply skipped — it no
        longer exists, so it is not part of the inventory — rather than
        aborting the listing (exactly the race two sweep workers sharing
        one cache hit constantly).
        """
        out = []
        if not self.directory.is_dir():
            return out
        for path in sorted(self.directory.glob(f"*{ENTRY_SUFFIX}")):
            try:
                size = path.stat().st_size
            except OSError:
                continue  # deleted between glob and stat
            try:
                # Only the fixed prefix and the header are read: ``ls``
                # over a large cache never touches an array.
                with path.open("rb") as fh:
                    length = _header_length(fh.read(_PREFIX), size)
                    meta = json.loads(fh.read(length).decode("ascii"))
                out.append(
                    CacheEntry(
                        path=path,
                        key=tuple(meta.get("key", ())) or None,
                        fingerprint=meta.get("fingerprint"),
                        num_accesses=int(meta["num_accesses"]),
                        size_bytes=size,
                    )
                )
            except FileNotFoundError:
                continue  # deleted between stat and read
            except Exception:
                out.append(CacheEntry(path=path, key=None, fingerprint=None,
                                      num_accesses=None, size_bytes=size))
        return out

    def verify(self) -> tuple[list[Path], list[Path]]:
        """Re-digest every entry; returns ``(ok, bad)`` path lists.

        Bad entries (unreadable, or whose arrays no longer hash to the
        stored record digest) are **not** deleted here — ``verify`` is a
        read-only audit; ``load`` and ``clear`` do the discarding.
        """
        ok, bad = [], []
        for entry in self.entries():
            if entry.key is None:
                bad.append(entry.path)
                continue
            try:
                stream, meta = self._read(entry.path)
            except FileNotFoundError:
                continue  # deleted since entries(); nothing left to audit
            except Exception:
                bad.append(entry.path)
                continue
            if stream.record_digest() == meta.get("record_digest"):
                ok.append(entry.path)
            else:
                bad.append(entry.path)
        return ok, bad

    def clear(self) -> int:
        """Delete every cache file; returns the number removed.

        Also sweeps ``*.tmp-*`` leftovers from writers that died before
        their atomic rename (they are invisible to ``ls`` and ``verify``
        but still hold disk space), and the ``*.npz`` entries of schema 2
        and older, which no key addresses any more.
        """
        removed = 0
        if not self.directory.is_dir():
            return removed
        for pattern in (f"*{ENTRY_SUFFIX}", f"*{ENTRY_SUFFIX}.tmp-*",
                        "*.npz", "*.npz.tmp-*"):
            for path in self.directory.glob(pattern):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    def discard_bad(self) -> list[Path]:
        """Delete every entry :meth:`verify` flags; returns what was removed.

        The mutating companion to the read-only audit — ``repro cache
        verify --discard`` uses it so a cache poisoned by a crash can be
        repaired in one command (and still exits non-zero, so CI notices).
        """
        _ok, bad = self.verify()
        removed = []
        for path in bad:
            try:
                path.unlink()
                removed.append(path)
            except OSError:
                pass
            telemetry.count("stream_cache.reject")
            telemetry.event("stream_cache.discard", entry=path.name,
                            reason="failed verify (--discard)")
        return removed
