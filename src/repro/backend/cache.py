"""The cost journal: paid-for what-if costs kept on disk.

One JSONL file format serves every use of a cost that outlives its
session, in three modes of :class:`PersistentWhatIfCache`:

* **cache** (read-write) — ``--whatif-cache DIR``: one shard file per
  backend fingerprint, read on first use; new costs are added on flush,
  so later sessions recall pairs instead of pricing them again;
* **record** (write) — ``--backend-trace PATH`` on a pricing backend:
  every cost the session resolves, written whole on flush;
* **replay** (strict read) — ``--backend replay --backend-trace PATH``:
  read at open, and a miss raises
  :class:`~repro.exceptions.TraceMissError`.

A file is a header line carrying the identity facts and their
fingerprint::

    {"fingerprint": "...", "identity": {...}, "type": "header", "version": 2}

then one line per (query, normalized configuration), sorted::

    {"cost": 123456.789, "key": ["lineitem(l_orderkey)"], "qid": "q03",
     "type": "cost"}

``key`` is :func:`canonical_key`: the sorted
:meth:`~repro.catalog.Index.display` strings of the configuration, ``[]``
for the empty one. Python's JSON float round-trip is exact, so recalled
and replayed costs are bit-identical to priced ones.

Discipline (REP101): journals sit at the *pricing* seam, below the
in-memory what-if cache and the budget policy. A recalled or replayed
cost replaces the cost-model (or EXPLAIN round-trip) work of a call —
never its budget charge, cache commit, call-log entry, or ``whatif_call``
event. Warm and replayed sessions therefore produce bit-identical budget
accounting and event streams while pricing nothing.

Keying and invalidation: the fingerprint hashes everything a pricing
depends on — backend name, workload content (qids, SQL, weights), catalog
statistics, and normalization mode; noisy adds its seed, postgres its
DSN/schema/server identity. Any change lands in a fresh cache shard, so
stale costs are unreachable rather than detected; replay checks the
recorded workload fingerprint instead.

Concurrent writers: seed workers share a cache shard. A cache flush holds
an exclusive ``flock`` on the cache directory while it re-reads the
shard's header and then either appends (the header is ours; a version-1
cache shard counts) or writes a temporary file in the same directory and
moves it into place with ``os.replace`` (the shard is missing, stale or
foreign). So of two writers that both found no usable shard, one creates
it and the other appends to it, and no lock file is left behind. A
recorded trace is replaced whole. Appends are one write of whole lines.
Every line is a JSON object that ends with its closing brace, so a torn
or spliced line does not parse, and the cache loader skips it.
"""

from __future__ import annotations

import contextlib
import fcntl
import hashlib
import json
import os
import uuid
from pathlib import Path

from repro.exceptions import TraceError, TraceMissError

#: Bump when the file layout changes: a cache shard of another version is
#: rewritten, and a trace of another version is refused.
JOURNAL_VERSION = 2

#: The header fields of the version-1 cache shards, whose cost lines and
#: fingerprints are those of version 2: such a shard stays valid in cache
#: mode and is appended to, not replaced.
_V1_CACHE_HEADER = {"cache_version": 1, "trace_version": 1}

#: Query-id prefix of the ground-truth costs a backend prices apart from
#: its search costs (the noisy backend's clean costs), so that one journal
#: holds both and a replay serves each from its own lines. A workload with
#: qids ``X`` and ``truth:X`` would share those lines under such a backend.
TRUTH_TAG = "truth:"

#: Journal modes (see the module docstring).
CACHE, RECORD, REPLAY = "cache", "record", "replay"

#: A canonical configuration key: sorted index display strings.
TraceKey = tuple[str, ...]

#: ``--whatif-cache`` values that select the default directory.
_DEFAULT_SELECTORS = frozenset({"1", "default", "auto"})


def canonical_key(key: frozenset) -> TraceKey:
    """Serialise a configuration into its canonical journal key."""
    return tuple(sorted(ix.display() for ix in key))


def default_cache_dir() -> Path:
    """``$XDG_CACHE_HOME/repro`` (``~/.cache/repro`` by default)."""
    base = os.environ.get("XDG_CACHE_HOME")
    root = Path(base) if base else Path.home() / ".cache"
    return root / "repro"


def resolve_cache_dir(selection: str | Path) -> Path:
    """Map a ``--whatif-cache`` value to a directory path."""
    text = str(selection)
    if text in _DEFAULT_SELECTORS:
        return default_cache_dir()
    return Path(text).expanduser()


def stable_digest(payload) -> str:
    """sha256 hex digest of a JSON-serialisable payload, key-order stable."""
    material = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def workload_fingerprint(workload) -> str:
    """Content hash over the workload's queries and catalog statistics.

    Two workloads with the same name but different scale factors (and so
    different row counts / NDVs) must land in different shard files: the
    analytic cost of a pair depends on the statistics, not just the SQL.
    """
    schema = workload.schema
    tables = [
        [
            table.name,
            table.row_count,
            [
                [
                    column.name,
                    column.ctype.value,
                    column.stats.distinct_count,
                    column.stats.min_value,
                    column.stats.max_value,
                    column.stats.null_fraction,
                    column.stats.avg_width,
                ]
                for column in table.columns
            ],
        ]
        for table in schema.tables
    ]
    keys = [
        [fk.child_table, fk.child_column, fk.parent_table, fk.parent_column]
        for fk in schema.foreign_keys
    ]
    queries = [[query.qid, query.sql, query.weight] for query in workload]
    return stable_digest(
        {
            "workload": workload.name,
            "schema": schema.name,
            "tables": tables,
            "foreign_keys": keys,
            "queries": queries,
        }
    )


def identity_fingerprint(identity: dict) -> str:
    """The shard-selecting fingerprint of a backend identity mapping."""
    return stable_digest(identity)


class PersistentWhatIfCache:
    """One journal file: ``get``/``put`` in memory, ``flush`` to disk.

    Args:
        location: In ``cache`` mode, the cache directory (or a
            ``--whatif-cache`` selector such as ``default``); the shard
            inside it is ``whatif-<fingerprint[:16]>.jsonl``. In ``record``
            and ``replay`` mode, the trace file itself.
        identity: Backend identity facts (see
            :meth:`~repro.optimizer.whatif.WhatIfOptimizer.cache_identity`),
            hashed into the fingerprint and written in the header. Replay
            takes them from the header instead.
        mode: ``cache`` reads the shard on first use, skipping torn lines
            and treating a foreign or stale file as empty; ``record``
            starts empty and replaces the file on flush; ``replay`` reads
            the file at construction and :meth:`get` raises on a miss.

    Raises:
        TraceError: In replay mode, for an unreadable file, a malformed
            line, or a missing or unsupported header.
    """

    def __init__(
        self, location: str | Path, identity: dict | None = None, *, mode: str = CACHE
    ):
        if mode not in (CACHE, RECORD, REPLAY):
            raise ValueError(f"unknown journal mode {mode!r}")
        self._mode = mode
        self._identity = None if identity is None else dict(identity)
        self._fingerprint = (
            None if identity is None else identity_fingerprint(self._identity)
        )
        if mode == CACHE:
            self._dir = resolve_cache_dir(location)
            self._path = self._dir / f"whatif-{self._fingerprint[:16]}.jsonl"
        else:
            self._path = Path(location)
            self._dir = self._path.parent
        self._costs: dict[tuple[str, TraceKey], float] | None = None
        self._fresh: dict[tuple[str, TraceKey], float] = {}
        #: Whether the file is known to start with our header, so that a
        #: flush appends to it.
        self._ours = False
        if mode == RECORD:
            self._costs = {}
        elif mode == REPLAY:
            self._load()

    @property
    def path(self) -> Path:
        """The file backing this journal."""
        return self._path

    @property
    def mode(self) -> str:
        return self._mode

    @property
    def fingerprint(self) -> str | None:
        return self._fingerprint

    @property
    def identity(self) -> dict | None:
        """The identity facts (read from the header in replay mode)."""
        return None if self._identity is None else dict(self._identity)

    def __len__(self) -> int:
        return len(self._load())

    def _load(self) -> dict[tuple[str, TraceKey], float]:
        if self._costs is not None:
            return self._costs
        costs: dict[tuple[str, TraceKey], float] = {}
        self._costs = costs
        strict = self._mode == REPLAY
        try:
            text = self._path.read_text(encoding="utf-8")
        except OSError as exc:
            if strict:
                raise TraceError(f"cannot read trace {self._path}: {exc}") from exc
            return costs
        header_ok = False
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
                if not header_ok:
                    self._check_header(entry)
                    header_ok = True
                elif entry["type"] == "cost":
                    costs[(entry["qid"], tuple(entry["key"]))] = float(entry["cost"])
                else:
                    raise ValueError(f"unexpected {entry['type']!r} line")
            except (KeyError, TypeError, ValueError) as exc:
                if strict:
                    raise TraceError(
                        f"{self._path}:{lineno}: malformed journal line: {exc!r}"
                    ) from exc
                if not header_ok:
                    break
                # A torn concurrent append: drop the partial line.
        if header_ok:
            self._ours = True
        elif strict:
            raise TraceError(f"{self._path}: trace has no header line")
        # Otherwise a foreign or stale file sits at our shard name: ignore
        # its contents; the next flush replaces it unless another writer
        # has done so first.
        return costs

    def _check_header(self, entry: dict) -> None:
        if entry["type"] != "header":
            raise ValueError("the first line is not a journal header")
        version = entry.get("version")
        legacy = self._mode == CACHE and all(
            entry.get(field) == value for field, value in _V1_CACHE_HEADER.items()
        )
        if version != JOURNAL_VERSION and not legacy:
            raise ValueError(
                f"unsupported journal version {version!r} (expected {JOURNAL_VERSION})"
            )
        if self._identity is None:
            self._identity = dict(entry["identity"])
            self._fingerprint = identity_fingerprint(self._identity)
        if entry.get("fingerprint") != self._fingerprint:
            raise ValueError("the header fingerprint does not match its identity")

    def get(self, qid: str, key: TraceKey) -> float | None:
        """The journaled cost for a canonical (qid, key) pair, if any.

        Raises:
            TraceMissError: In replay mode, when the pair is missing.
        """
        cost = self._load().get((qid, key))
        if cost is None and self._mode == REPLAY:
            raise TraceMissError(
                f"trace {self._path} has no cost for query {qid!r} under "
                f"configuration {list(key)} — the replayed run diverged "
                "from the recorded one",
                qid=qid,
                key=key,
            )
        return cost

    def put(self, qid: str, key: TraceKey, cost: float) -> None:
        """Remember a resolved cost (queued for the next :meth:`flush`)."""
        costs = self._load()
        entry = (qid, key)
        if entry in costs:
            return
        costs[entry] = cost
        self._fresh[entry] = cost

    def _header_line(self) -> str:
        return json.dumps(
            {
                "type": "header",
                "version": JOURNAL_VERSION,
                "fingerprint": self._fingerprint,
                "identity": self._identity,
            },
            sort_keys=True,
        )

    @staticmethod
    def _lines(entries: dict[tuple[str, TraceKey], float]) -> str:
        return "".join(
            json.dumps(
                {"type": "cost", "qid": qid, "key": list(key), "cost": entries[(qid, key)]},
                sort_keys=True,
            )
            + "\n"
            for qid, key in sorted(entries)
        )

    def _append(self, text: str) -> None:
        # Unbuffered O_APPEND: the lines go out in one write.
        with open(self._path, "ab", buffering=0) as handle:
            handle.write(text.encode("utf-8"))

    def _holds_our_header(self) -> bool:
        """Whether the file on disk now starts with our header."""
        try:
            with open(self._path, encoding="utf-8") as handle:
                self._check_header(json.loads(handle.readline()))
        except (OSError, KeyError, TypeError, ValueError):
            return False
        return True

    def _replace(self) -> None:
        """Write the header and every entry, sorted, over the file."""
        temp = self._dir / f".{self._path.name}.{uuid.uuid4().hex}.tmp"
        try:
            with open(temp, "x", encoding="utf-8") as out:
                out.write(self._header_line() + "\n" + self._lines(self._costs))
            os.replace(temp, self._path)
        finally:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(temp)

    def flush(self) -> int:
        """Write queued entries to the file; returns the cost lines written.

        A cache shard that holds our header gets the new entries appended.
        Otherwise the header and every entry, sorted (deterministic files
        for deterministic runs), go to a temporary file that replaces the
        shard or the recorded trace. In cache mode the header check and
        the write happen under an exclusive lock on the directory, so a
        shard another writer has just created is appended to, not
        replaced. Replay journals never write.
        """
        if self._costs is None or self._mode == REPLAY:
            return 0
        if not self._fresh and self._ours:
            return 0
        self._dir.mkdir(parents=True, exist_ok=True)
        if self._mode == RECORD:
            self._replace()
            written = len(self._costs)
        else:
            with _locked(self._dir):
                if self._ours or self._holds_our_header():
                    self._append(self._lines(self._fresh))
                    written = len(self._fresh)
                else:
                    self._replace()
                    written = len(self._costs)
        self._fresh = {}
        self._ours = True
        return written


@contextlib.contextmanager
def _locked(directory: Path):
    """Hold an exclusive ``flock`` on ``directory`` itself (no lock file)."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        yield
    finally:
        os.close(fd)  # closing the descriptor releases the lock
