"""``repro.store`` — the content-addressed result store.

The spec side of the API has one canonical identity,
:meth:`~repro.spec.RunSpec.spec_digest`; this module gives the *result*
side the matching persistence layer.  A :class:`ResultStore` is a
file-backed map ``spec_digest -> RunRecord`` where a
:class:`RunRecord` is the versioned, JSON-serializable snapshot of one
execution: the spec that ran, the result digest, the summary
statistics, timings, and provenance (code version, tier, worker
counts).

Design rules
------------
* **Content addressing.**  Records are keyed by the spec digest, so
  equal experiments share one slot: a sweep, a campaign, and an ad-hoc
  ``repro run`` all hit the same cache entry, and recomputing a cell
  can only ever rewrite identical bytes (modulo timings).
* **Atomic writes.**  ``put`` writes to a temporary file in the record
  directory and ``os.replace``\\ s it into place.  Readers therefore
  never observe a torn record: two writers racing on one digest end
  with either writer's complete payload, and a reader that overlaps a
  write sees one of the two complete versions.
* **Versioned schema, no migration.**  Every record carries
  ``record_version``, and ``from_dict`` reads only the current one.
  An *older* record is stale, like one of another
  :data:`MODEL_VERSION`: :meth:`ResultStore.get` reads it as a miss,
  and recomputing the cell overwrites it.  (Every schema before
  version 3 predates ``model_version``, so no older record could be
  served anyway.)  An unknown *newer* version raises
  :class:`StoreError` instead of silently misreading.
* **Stdlib only.**  Like :mod:`repro.spec`, the store imports no
  third-party packages, so config and report tooling can read stores
  without paying for NumPy.
* **Model-versioned reads.**  A record stores the :data:`MODEL_VERSION`
  it was computed under in ``provenance``; :meth:`ResultStore.get`
  serves only records of the current version, so a store written
  before a change to the model semantics recomputes instead of serving
  stale results.
* **A cache hit is one file read, one JSON parse and one snapshot
  hash.**  ``get`` joins the record path as a string
  (:meth:`ResultStore.path_for` still checks the digest and returns a
  :class:`~pathlib.Path`), and :meth:`RunRecord.from_dict` checks keys
  against a field-name set built once.  Nothing is skipped:
  ``record_version``, unknown fields, field types, the digest claim,
  the model-version rule and the ``on_corrupt`` modes all hold on
  every read, and so does the key rule: the spec snapshot must be
  what :func:`canonical_spec_dict` writes for the key, its
  :func:`~repro.spec.canonical_json` hashing to it.  Every reader
  (``get``, ``stats``, ``prune``, the campaign runner) applies these
  rules through :meth:`ResultStore._classify`.  :func:`repro.api.run`
  parses the snapshot only when a caller reads the result's ``spec``.
  Turning the ``repro.store`` logger to DEBUG makes ``get`` say what
  it decided for each digest: hit, missing, stale (with the record's
  model or schema version) or corrupt read as a miss.

The consumers are :func:`repro.api.run` (``store=`` gives any caller
skip-if-cached execution), :mod:`repro.parallel.sweep` (``--store``),
:mod:`repro.campaign` (resumable grids), and the verify subsystem's
golden files (pinned :meth:`RunRecord.pinned_dict` payloads).
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Iterator

from repro.spec import SpecError, canonical_json

__all__ = [
    "MODEL_VERSION",
    "RECORD_VERSION",
    "ResultStore",
    "RunRecord",
    "StoreError",
    "canonical_spec_dict",
]

#: Schema version of the serialized record form.  Bump it when the
#: record shape changes; records of older versions then read as stale.
RECORD_VERSION = 3

#: Version of the model semantics behind every stored result.  Bump it
#: with any change that moves a result digest or a pinned counter (the
#: files under ``tests/golden``): records of any other version, or of
#: none, then read as misses and are recomputed.
MODEL_VERSION = 2


class StoreError(RuntimeError):
    """A result record failed to read or validate."""


class _OlderRecordVersion(StoreError):
    """A record of an older schema: stale, not corrupt."""


def canonical_spec_dict(spec) -> dict:
    """The spec snapshot a record stores: canonical w.r.t. the digest.

    ``spec_digest`` deliberately excludes scheduling and prose fields
    (``execution.workers``, ``execution.quick``, ``description``,
    ``tags``); two specs differing only there share one store slot, so
    the snapshot pins those fields to their defaults.  This is what
    makes the store's byte-identity contract hold no matter which
    caller (``repro run --store``, a sweep, a campaign, ``repro verify
    --store``) computed the record first.
    """
    return spec.evolve(**{
        "description": "",
        "tags": [],
        "execution.workers": 1,
        "execution.quick": False,
    }).to_dict()


# ----------------------------------------------------------------------
# The record.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunRecord:
    """One persisted execution result, keyed by its spec digest.

    ``summary``/``extra`` are the scalar statistics of
    :class:`repro.api.RunResult`; ``spec`` is the full serialized
    :class:`~repro.spec.RunSpec` snapshot (so a store is self-describing
    — any record can be re-run without the file that produced it);
    ``provenance`` records how the result was produced (code version,
    requested and effective worker counts) without affecting identity.
    """

    spec_digest: str
    name: str
    tier: str
    seed: int
    digest: str | None
    summary: dict[str, float] = field(default_factory=dict)
    extra: dict[str, float] = field(default_factory=dict)
    elapsed_s: float = 0.0
    spec: dict | None = None
    provenance: dict[str, Any] = field(default_factory=dict)
    #: Unix timestamp of when the record was computed (``None`` when
    #: unknown).  Wall-clock bookkeeping like ``elapsed_s``:
    #: age/size-based store eviction reads it, but it is excluded from
    #: :meth:`pinned_dict` so reports and goldens stay byte-stable
    #: across recomputation.
    created_at: float | None = None
    record_version: int = RECORD_VERSION

    def __post_init__(self) -> None:
        if not self.spec_digest:
            raise StoreError("record needs a non-empty spec_digest")
        if self.record_version != RECORD_VERSION:
            raise StoreError(
                f"RunRecord is always the current schema "
                f"(version {RECORD_VERSION}); got {self.record_version!r}"
            )

    # -- construction --------------------------------------------------
    @classmethod
    def from_result(cls, result) -> RunRecord:
        """Build a record from a computed :class:`repro.api.RunResult`.

        Record content is canonical w.r.t. the spec digest: the spec
        snapshot goes through :func:`canonical_spec_dict` and the
        execution-dependent ``extra`` markers (``workers_effective``,
        the DES tier's ``shard_refused``) move into ``provenance`` —
        recomputing a record can then only ever rewrite identical
        bytes (modulo the non-pinned ``elapsed_s``/``provenance``
        fields), regardless of the worker count or prose of the spec
        that triggered it.
        """
        import time

        from repro._version import __version__

        provenance = {
            "code_version": __version__,
            "model_version": MODEL_VERSION,
            "workers": result.spec.execution.workers,
            "workers_effective": int(result.extra["workers_effective"]),
        }
        if "shard_refused" in result.extra:
            provenance["shard_refused"] = bool(result.extra["shard_refused"])
        return cls(
            spec_digest=result.spec.spec_digest(),
            name=result.spec.name,
            tier=result.tier,
            seed=result.seed,
            digest=result.digest,
            summary=dict(result.summary),
            extra={k: v for k, v in result.extra.items()
                   if k not in ("workers_effective", "shard_refused")},
            elapsed_s=round(float(result.elapsed_s), 3),
            spec=canonical_spec_dict(result.spec),
            provenance=provenance,
            created_at=round(time.time(), 3),
        )

    # -- serialization -------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-JSON representation (the on-disk form)."""
        return {
            "record_version": self.record_version,
            "spec_digest": self.spec_digest,
            "name": self.name,
            "tier": self.tier,
            "seed": self.seed,
            "digest": self.digest,
            "summary": dict(self.summary),
            "extra": dict(self.extra),
            "elapsed_s": self.elapsed_s,
            "spec": self.spec,
            "provenance": dict(self.provenance),
            "created_at": self.created_at,
        }

    def pinned_dict(self) -> dict:
        """The deterministic subset of :meth:`to_dict`.

        Drops ``elapsed_s``, ``provenance`` and ``created_at`` — the
        only fields that legitimately differ between two executions of
        one spec — so reports and golden files built from pinned dicts
        are byte-identical whether a cell was computed or served from
        the store.
        """
        out = self.to_dict()
        del out["elapsed_s"], out["provenance"], out["created_at"]
        return out

    @classmethod
    def from_dict(cls, data: dict) -> RunRecord:
        """Parse a record of the current schema version.

        A record of an older version raises :class:`StoreError` (a
        subclass :meth:`ResultStore.get` reads as stale).
        """
        if not isinstance(data, dict):
            raise StoreError(f"record must be an object, got {type(data).__name__}")
        version = data.get("record_version", 1)
        if not isinstance(version, int) or isinstance(version, bool):
            raise StoreError(f"bad record_version {version!r}")
        if version > RECORD_VERSION:
            raise StoreError(
                f"record_version {version} is newer than this build "
                f"reads (version {RECORD_VERSION}); upgrade the package "
                "or prune the store"
            )
        if version < RECORD_VERSION:
            raise _OlderRecordVersion(
                f"record_version {version} is older than this build "
                f"reads (version {RECORD_VERSION})"
            )
        if not data.keys() <= _RECORD_FIELDS:
            unknown = sorted(data.keys() - _RECORD_FIELDS)
            raise StoreError(
                f"unknown record field(s): {', '.join(unknown)}"
            )
        try:
            record = cls(**data)
        except TypeError as exc:
            raise StoreError(f"incomplete record: {exc}") from None
        for name, value, kind in (
            ("spec_digest", record.spec_digest, str),
            ("tier", record.tier, str),
            ("summary", record.summary, dict),
            ("extra", record.extra, dict),
            ("provenance", record.provenance, dict),
        ):
            if not isinstance(value, kind):
                raise StoreError(
                    f"record field {name!r} must be {kind.__name__}, "
                    f"got {value!r}"
                )
        return record

    def to_json(self) -> str:
        """JSON text (sorted keys, trailing newline)."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


_RECORD_FIELDS = frozenset(f.name for f in fields(RunRecord))


def _snapshot_fault(snapshot, key: str) -> str | None:
    """Why ``snapshot`` is not what :func:`canonical_spec_dict` writes
    for the spec of digest ``key``, or ``None`` when it is."""
    execution = snapshot.get("execution") if type(snapshot) is dict else None
    workers = execution.get("workers") if type(execution) is dict else None
    if not (type(workers) is int and workers == 1
            and execution.get("quick") is False
            and snapshot.get("description") == ""
            and snapshot.get("tags") == []):
        return "holds no spec snapshot with default workers and prose"
    try:
        digest = hashlib.sha256(canonical_json(snapshot).encode()).hexdigest()
    except SpecError as exc:
        return f"holds a bad spec snapshot: {exc}"
    if digest != key:
        return (f"holds the spec snapshot of {snapshot.get('name')!r} "
                f"({digest[:12]}…), expected {key[:12]}…")
    return None


def _log_decision(log, spec_digest: str, status: str, found) -> None:
    """One DEBUG line on ``log`` saying what :meth:`ResultStore.get` made
    of the record for ``spec_digest``."""
    prefix = spec_digest[:12]
    if status == "ok":
        log.debug("%s: hit, record served", prefix)
    elif status == "missing":
        log.debug("%s: missing, no record", prefix)
    elif status == "stale":
        log.debug("%s: stale, %s; a miss", prefix, found)
    else:
        log.debug("%s: corrupt, read as a miss: %s", prefix, found)


# ----------------------------------------------------------------------
# The store.
# ----------------------------------------------------------------------
class ResultStore:
    """File-backed content-addressed store of :class:`RunRecord`\\ s.

    Layout: ``root/<digest[:2]>/<digest>.json`` — two-level fan-out so
    million-cell campaign stores never put a million entries in one
    directory.  All operations are safe under concurrent writers (see
    the module docstring's atomicity rule).
    """

    def __init__(self, root: str | Path, create: bool = True) -> None:
        self.root = Path(root)
        if create:
            self.root.mkdir(parents=True, exist_ok=True)
        elif not self.root.is_dir():
            raise StoreError(f"result store {self.root} does not exist")

    def __repr__(self) -> str:
        return f"ResultStore({str(self.root)!r})"

    # -- paths ---------------------------------------------------------
    def path_for(self, spec_digest: str) -> Path:
        """On-disk path of the record for ``spec_digest``."""
        return Path(self._record_path(spec_digest))

    def _record_path(self, spec_digest: str) -> str:
        """:meth:`path_for` as a string, joined without pathlib objects
        (the cache-hit path reads through it)."""
        if (not spec_digest or "/" in spec_digest or "\\" in spec_digest
                or "." in spec_digest):
            raise StoreError(f"bad spec digest {spec_digest!r}")
        return os.path.join(self.root, spec_digest[:2], spec_digest + ".json")

    # -- core operations -----------------------------------------------
    def put(self, record: RunRecord) -> Path:
        """Persist ``record`` atomically; returns the record path.

        The write goes to a uniquely named temporary file in the final
        directory and is renamed into place, so a concurrent reader
        sees either the previous complete record or the new one —
        never a prefix.  The last writer wins.
        """
        path = self.path_for(record.spec_digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            prefix=f".{record.spec_digest[:8]}-", suffix=".tmp",
            dir=path.parent,
        )
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(record.to_json())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    def get(
        self, spec_digest: str, on_corrupt: str = "raise"
    ) -> RunRecord | None:
        """Load the record for ``spec_digest`` (``None`` when absent).

        A record computed under another :data:`MODEL_VERSION` (or one
        that records none) is a miss, never an error: recomputing the
        cell overwrites it.  ``on_corrupt`` selects what an unreadable
        record does: ``"raise"`` (default) raises :class:`StoreError` so
        corruption is never silent; ``"miss"`` treats it as a cache miss
        — the campaign runner's choice, because recomputing the cell
        rewrites a good record over the bad one.
        """
        if on_corrupt not in ("raise", "miss"):
            raise ValueError(
                f"on_corrupt must be 'raise' or 'miss', got {on_corrupt!r}"
            )
        status, found = self._classify(spec_digest)
        if status == "corrupt" and on_corrupt == "raise":
            raise StoreError(found)
        # Not imported here, to keep it off the import path: a program
        # that turned DEBUG on has imported ``logging`` itself.
        logging = sys.modules.get("logging")
        if logging and logging.getLogger(__name__).isEnabledFor(logging.DEBUG):
            _log_decision(logging.getLogger(__name__), spec_digest, status,
                          found)
        return found if status == "ok" else None

    def _classify(self, spec_digest: str) -> tuple[str, Any]:
        """What the record file for ``spec_digest`` holds.

        ``("ok", record)`` for a record :meth:`get` serves, ``("stale",
        reason)`` for a readable one of an older ``record_version`` or
        computed under another :data:`MODEL_VERSION` (or none),
        ``("corrupt", reason)`` for one that cannot be read, does not
        parse, claims another digest or holds a spec snapshot that does
        not hash to it (see the module docstring), and ``("missing",
        None)`` when there is no file.
        """
        try:
            with open(self._record_path(spec_digest)) as fh:
                text = fh.read()
        except FileNotFoundError:
            return "missing", None
        except OSError as exc:
            return "corrupt", (f"cannot read record "
                               f"{self.path_for(spec_digest)}: {exc}")
        try:
            record = RunRecord.from_dict(json.loads(text))
        except _OlderRecordVersion as exc:
            return "stale", str(exc)
        except (StoreError, ValueError) as exc:
            return "corrupt", (f"corrupt record "
                               f"{self.path_for(spec_digest)}: {exc}")
        if record.spec_digest != spec_digest:
            # A renamed/copied file: content addressing makes the
            # mismatch detectable, so detect it.
            return "corrupt", (
                f"record {self.path_for(spec_digest)} claims spec_digest "
                f"{record.spec_digest[:12]}…, expected {spec_digest[:12]}…"
            )
        if record.provenance.get("model_version") != MODEL_VERSION:
            return "stale", (
                f"record of model_version "
                f"{record.provenance.get('model_version')!r} (this build "
                f"serves {MODEL_VERSION})"
            )
        fault = _snapshot_fault(record.spec, spec_digest)
        if fault:
            return "corrupt", f"record {self.path_for(spec_digest)} {fault}"
        return "ok", record

    def contains(self, spec_digest: str) -> bool:
        """Whether a record file exists for ``spec_digest``.

        Existence only — a truncated record still "exists"; use
        :meth:`get` with ``on_corrupt='miss'`` when a readable record
        is required.
        """
        return self.path_for(spec_digest).exists()

    __contains__ = contains

    def digests(self) -> Iterator[str]:
        """All record digests in the store, in sorted order."""
        if not self.root.is_dir():
            return
        for path in sorted(self.root.glob("??/*.json")):
            yield path.stem

    def __len__(self) -> int:
        return sum(1 for _ in self.digests())

    # -- maintenance ---------------------------------------------------
    def prune(
        self,
        keep: "set[str] | None" = None,
        drop_corrupt: bool = False,
    ) -> dict[str, int]:
        """Delete records and report what happened.

        With ``keep`` given, every record whose digest is not in the
        set is removed (a campaign prunes to its own cell set this
        way).  With ``drop_corrupt=True``, records :meth:`get` would
        not serve are removed too: corrupt ones and stale ones (another
        model version).  Returns ``{"removed", "kept",
        "corrupt_removed", "stale_removed"}`` counts.
        """
        removed = kept = corrupt_removed = stale_removed = 0
        for digest in list(self.digests()):
            path = self.path_for(digest)
            if keep is not None and digest not in keep:
                path.unlink(missing_ok=True)
                removed += 1
                continue
            if drop_corrupt:
                status, _ = self._classify(digest)
                if status != "ok":
                    path.unlink(missing_ok=True)
                    if status == "stale":
                        stale_removed += 1
                    else:
                        corrupt_removed += 1
                    continue
            kept += 1
        return {
            "removed": removed,
            "kept": kept,
            "corrupt_removed": corrupt_removed,
            "stale_removed": stale_removed,
        }

    def stats(self, known: "dict | None" = None) -> dict[str, Any]:
        """Aggregate store statistics.

        ``n_records``/``total_bytes`` count record files; of those,
        ``n_stale`` were computed under another model version and
        ``n_corrupt`` are unreadable or not their key's record.
        ``by_tier`` histograms the records :meth:`get` serves.  ``known`` maps
        digests to what :meth:`_classify` made of them already, so the
        walk reads those records no more.
        """
        known = known or {}
        n = total = corrupt = stale = 0
        by_tier: dict[str, int] = {}
        for digest in self.digests():
            n += 1
            try:
                total += self.path_for(digest).stat().st_size
            except OSError:
                pass
            status, record = known.get(digest) or self._classify(digest)
            if status == "ok":
                by_tier[record.tier] = by_tier.get(record.tier, 0) + 1
            elif status == "stale":
                stale += 1
            else:
                corrupt += 1
        return {
            "root": str(self.root),
            "n_records": n,
            "n_corrupt": corrupt,
            "n_stale": stale,
            "total_bytes": total,
            "by_tier": dict(sorted(by_tier.items())),
        }
