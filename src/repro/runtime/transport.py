"""Pluggable data-plane transports: how payload arrays reach workers.

The scheduler used to pickle fully materialized partition matrices into
every :class:`repro.runtime.worker.WorkerTask`.  That makes the
coordinator both partition *and* serialize all data serially — the exact
copy-heavy data plane the HCube design is meant to avoid.  A
:class:`Transport` decouples the two concerns:

- ``publish(key, array)`` stages a *source* array once, coordinator-side;
- ``make_ref(key, rows)`` mints a small picklable :class:`ArrayRef`
  descriptor selecting a row subset of the published array;
- :func:`resolve_array_ref` (top-level, spawn-safe) turns a descriptor
  back into a concrete array on the worker.

Three backends, looked up through a string-keyed registry
(:func:`register_transport` / :func:`available_transports`, mirroring
:mod:`repro.engines.registry`):

- :class:`PickleTransport` — descriptors carry the sliced partition
  itself (arrays are pickled across the process boundary); the
  default.
- :class:`SharedMemoryTransport` — each source array is copied once into
  a ``multiprocessing.shared_memory`` block; descriptors carry only
  ``(block name, dtype, shape, row indices)``, so large matrices cross
  the process boundary zero-copy and workers slice their own partitions
  locally.  Partitioning work moves off the coordinator.
- ``tcp`` (:class:`repro.net.transport.TcpTransport`, registered lazily
  so importing this module never opens a socket) — sources are PUT into
  a TCP block store and descriptors carry ``(host, port, block_id,
  dtype, shape, rows)``, so *remote* workers fetch and slice their own
  partitions.  The multi-machine data plane; see docs/net.md.

Lifetime rules (see docs/data_plane.md): the coordinator owns every
segment it publishes; ``teardown()`` closes and unlinks all of them and
is idempotent.  Executors call it from ``close()`` so segments are
reclaimed even when a worker task crashes mid-run.  Workers must *copy*
what they need out of a segment before returning (``resolve_array_ref``
does — fancy indexing copies) and never unlink.
"""

from __future__ import annotations

import os
import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from ..errors import ConfigError
from ..obs.metrics import METRICS
from ..obs.tracing import current_tracer

__all__ = [
    "TRANSPORT_ENV_VAR",
    "REF_HEADER_BYTES",
    "ArrayRef",
    "resolve_array_ref",
    "TransportStats",
    "Transport",
    "PickleTransport",
    "SharedMemoryTransport",
    "TransportSpec",
    "register_transport",
    "available_transports",
    "transport_class",
    "default_transport_name",
    "create_transport",
]

#: Environment variable selecting the default transport backend.
TRANSPORT_ENV_VAR = "REPRO_TRANSPORT"

#: Accounted fixed size of one descriptor (kind, block name, dtype,
#: shape) — the part of a ref that is not the payload.
REF_HEADER_BYTES = 64


@dataclass(frozen=True)
class ArrayRef:
    """A picklable reference to (a row subset of) a published array.

    ``kind == "inline"`` carries the partition in ``data`` (the pickle
    data plane); ``kind == "shm"`` carries only the segment name plus the
    row selection, and the worker slices the shared block itself;
    ``kind == "tcp"`` additionally carries the block store's ``(host,
    port)`` so workers on *other machines* fetch the block over a socket
    and slice locally.
    """

    kind: str                          # "inline" | "shm" | "tcp"
    shape: tuple[int, ...]             # shape of the *source* array
    dtype: str
    data: np.ndarray | None = None     # inline payload (already sliced)
    block: str | None = None           # segment name / block-store id
    rows: np.ndarray | None = None     # row indices into the source
    host: str | None = None            # block store address (tcp only)
    port: int | None = None

    @property
    def num_rows(self) -> int:
        if self.rows is not None:
            return int(self.rows.shape[0])
        if self.data is not None:
            return int(self.data.shape[0])
        return int(self.shape[0]) if self.shape else 0

    @property
    def payload_bytes(self) -> int:
        """Bytes this descriptor adds to a pickled task payload."""
        size = REF_HEADER_BYTES
        if self.data is not None:
            size += int(self.data.nbytes)
        if self.rows is not None:
            size += int(self.rows.nbytes)
        return size


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to a named segment without taking tracker ownership.

    On Python >= 3.13 ``track=False`` skips resource-tracker
    registration entirely.  On older versions attaching re-registers the
    name with the resource tracker; because fork/spawn pool workers
    share the coordinator's tracker process (the fd travels in the spawn
    preparation data) and the tracker keeps a *set* per resource type,
    that re-registration is an idempotent no-op and the coordinator's
    ``unlink()`` at teardown removes the single entry — so no "leaked
    shared_memory" warnings and no premature unlinks.  Only the
    publishing side ever unlinks.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track flag; see docstring
        return shared_memory.SharedMemory(name=name)


def resolve_array_ref(ref) -> np.ndarray:
    """Materialize a descriptor into a concrete array (worker-side).

    Top-level and self-contained on purpose (spawn-safe).  Accepts plain
    ndarrays unchanged so legacy payloads keep working.  The returned
    array never aliases shared memory — workers may outlive segments.
    """
    if isinstance(ref, np.ndarray):
        return ref
    if ref.kind == "inline":
        arr = ref.data
        if arr is None:
            arr = np.empty(ref.shape, dtype=np.dtype(ref.dtype))
        if ref.rows is not None:
            arr = arr[ref.rows]
        return arr
    if ref.kind == "tcp":
        from ..net.blockstore import fetch_block_array

        with current_tracer().span("resolve_ref", cat="transport",
                                   kind="tcp", block=ref.block,
                                   rows=ref.num_rows):
            arr = fetch_block_array(ref.host, ref.port, ref.block,
                                    shape=ref.shape,
                                    dtype=np.dtype(ref.dtype))
            # The fetched block is a (read-only) process-wide cache
            # entry; fancy indexing copies, .copy() covers the
            # whole-array case.
            return arr[ref.rows] if ref.rows is not None else arr.copy()
    if ref.kind != "shm":
        raise ConfigError(f"unknown ArrayRef kind {ref.kind!r}")
    with current_tracer().span("resolve_ref", cat="transport",
                               kind="shm", block=ref.block,
                               rows=ref.num_rows):
        seg = _attach_segment(ref.block)
        try:
            view = np.ndarray(ref.shape, dtype=np.dtype(ref.dtype),
                              buffer=seg.buf)
            # Fancy indexing copies; .copy() covers the whole-array case.
            arr = view[ref.rows] if ref.rows is not None else view.copy()
        finally:
            seg.close()
    return arr


@dataclass
class TransportStats:
    """What one transport epoch moved, from the coordinator's view.

    ``published_bytes`` are bytes staged into shared/remote blocks (one
    memcpy per source array; shm and tcp only); ``shipped_bytes`` are
    bytes that enter pickled task payloads — full partitions under
    pickle, descriptor bytes (row indices + header) under shm/tcp.  The
    acceptance check for the descriptor-only planes is
    ``shipped_bytes(shm|tcp) < shipped_bytes(pickle)`` on the same run.

    ``fetched_blocks``/``fetched_bytes`` count what workers pulled back
    out of the staging area (tcp only: the block store's GET counters,
    collected at teardown); ``freed_blocks`` counts blocks reclaimed at
    teardown (shm segments unlinked, tcp blocks freed).
    """

    published_blocks: int = 0
    published_bytes: int = 0
    shipped_refs: int = 0
    shipped_bytes: int = 0
    fetched_blocks: int = 0
    fetched_bytes: int = 0
    freed_blocks: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "published_blocks": self.published_blocks,
            "published_bytes": self.published_bytes,
            "shipped_refs": self.shipped_refs,
            "shipped_bytes": self.shipped_bytes,
            "fetched_blocks": self.fetched_blocks,
            "fetched_bytes": self.fetched_bytes,
            "freed_blocks": self.freed_blocks,
        }


class Transport(ABC):
    """Stages source arrays and mints worker-facing descriptors.

    Thread-safety contract (pipelined epochs): ``publish``, ``make_ref``
    and ``teardown`` may be called from concurrent coordinator threads —
    the parallel routing pool publishes sources while the streaming
    scheduler mints descriptors.  Implementations serialize staging and
    stats updates on :attr:`_lock` (a re-entrant lock, so a locked
    ``publish`` may call locked helpers).  Workers only *resolve* refs
    (read-only) and need no lock.
    """

    name: str = "abstract"

    def __init__(self):
        self.stats = TransportStats()
        #: Final counters of the most recent non-empty epoch, frozen by
        #: ``teardown()``.  Engines read this *after* releasing the
        #: epoch's resources, so per-run ``data_plane`` reports include
        #: teardown-time counters (blocks freed, bytes workers fetched).
        self.last_epoch = TransportStats()
        #: Serializes publish/make_ref/teardown across coordinator
        #: threads (see class docstring).
        self._lock = threading.RLock()
        #: Optional per-query epoch id (stamped by
        #: :class:`repro.runtime.executor.ExecutorView`).  The scheduler
        #: prefixes publish keys with it, so queries running concurrently
        #: against one shared staging area never collide on key names.
        self.epoch: str | None = None

    def setup(self) -> None:
        """Acquire transport resources (idempotent; optional)."""

    @abstractmethod
    def publish(self, key: str, array: np.ndarray) -> str:
        """Stage ``array`` under ``key`` (idempotent per key)."""

    @abstractmethod
    def make_ref(self, key: str, rows: np.ndarray | None = None
                 ) -> ArrayRef:
        """A descriptor for ``rows`` of the array published under ``key``."""

    def teardown(self) -> None:
        """Release everything published this epoch (idempotent).

        Freezes the epoch's counters — possibly all zero, for an epoch
        that never published — into :attr:`last_epoch` and starts a
        fresh :attr:`stats` epoch.  Engines read :attr:`last_epoch`
        immediately after their own teardown, so per-run ``data_plane``
        reports include teardown-time counters.

        Also folds the frozen epoch into the global ``transport.*``
        metrics counters (see docs/observability.md): subclasses finish
        their own stat updates (segments freed, fetch counters
        collected) *before* delegating here, so the metrics see final
        numbers.  Repeat teardowns freeze an all-zero epoch and record
        nothing.
        """
        with self._lock:
            self.last_epoch = self.stats
            self.stats = TransportStats()
            for stat_name, value in self.last_epoch.as_dict().items():
                if value:
                    METRICS.counter(f"transport.{stat_name}").inc(value)

    def __enter__(self) -> "Transport":
        self.setup()
        return self

    def __exit__(self, *exc) -> None:
        self.teardown()

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"

    # -- shared helpers --------------------------------------------------------

    def _record_shipped(self, ref: ArrayRef) -> ArrayRef:
        with self._lock:
            self.stats.shipped_refs += 1
            self.stats.shipped_bytes += ref.payload_bytes
        return ref

    @staticmethod
    def _normalize_rows(rows) -> np.ndarray | None:
        if rows is None:
            return None
        return np.ascontiguousarray(np.asarray(rows, dtype=np.int64))


class PickleTransport(Transport):
    """The default data plane: partitions travel inside the pickle."""

    name = "pickle"

    def __init__(self):
        super().__init__()
        self._published: dict[str, np.ndarray] = {}

    def publish(self, key: str, array: np.ndarray) -> str:
        with self._lock:
            if key not in self._published:
                with current_tracer().span("publish", cat="transport",
                                           transport=self.name, key=key,
                                           bytes=int(array.nbytes)):
                    self._published[key] = np.ascontiguousarray(array)
        return key

    def make_ref(self, key: str, rows: np.ndarray | None = None
                 ) -> ArrayRef:
        with self._lock:
            src = self._published[key]
        rows = self._normalize_rows(rows)
        part = src if rows is None else np.ascontiguousarray(src[rows])
        ref = ArrayRef(kind="inline", shape=tuple(part.shape),
                       dtype=str(part.dtype), data=part)
        return self._record_shipped(ref)

    def teardown(self) -> None:
        with self._lock:
            self._published.clear()
            super().teardown()


class SharedMemoryTransport(Transport):
    """Zero-copy plane: sources live in shared memory, refs carry rows."""

    name = "shm"

    def __init__(self):
        super().__init__()
        # key -> (segment name | None for empty arrays, shape, dtype)
        self._meta: dict[str, tuple[str | None, tuple[int, ...], str]] = {}
        self._segments: dict[str, shared_memory.SharedMemory] = {}

    @property
    def active_segments(self) -> tuple[str, ...]:
        """Names of segments currently owned (empty after teardown)."""
        return tuple(self._segments)

    def publish(self, key: str, array: np.ndarray) -> str:
        with self._lock:
            if key in self._meta:
                return key
            arr = np.ascontiguousarray(array)
            if arr.nbytes == 0:
                # SharedMemory cannot hold zero bytes; empty arrays ship
                # as (tiny) inline refs instead.
                self._meta[key] = (None, tuple(arr.shape), str(arr.dtype))
                return key
            with current_tracer().span("publish", cat="transport",
                                       transport=self.name, key=key,
                                       bytes=int(arr.nbytes)):
                seg = shared_memory.SharedMemory(create=True,
                                                 size=arr.nbytes)
                np.ndarray(arr.shape, dtype=arr.dtype,
                           buffer=seg.buf)[...] = arr
            self._segments[seg.name] = seg
            self._meta[key] = (seg.name, tuple(arr.shape), str(arr.dtype))
            self.stats.published_blocks += 1
            self.stats.published_bytes += int(arr.nbytes)
        return key

    def make_ref(self, key: str, rows: np.ndarray | None = None
                 ) -> ArrayRef:
        with self._lock:
            block, shape, dtype = self._meta[key]
        rows = self._normalize_rows(rows)
        if block is None or (rows is not None and rows.shape[0] == 0):
            empty_shape = ((0,) + shape[1:]) if rows is not None else shape
            ref = ArrayRef(kind="inline", shape=empty_shape, dtype=dtype,
                           data=np.empty(empty_shape, dtype=np.dtype(dtype)))
        else:
            ref = ArrayRef(kind="shm", shape=shape, dtype=dtype,
                           block=block, rows=rows)
        return self._record_shipped(ref)

    def teardown(self) -> None:
        with self._lock:
            for seg in self._segments.values():
                try:
                    seg.close()
                    seg.unlink()
                    self.stats.freed_blocks += 1
                except FileNotFoundError:  # pragma: no cover - gone
                    pass
            self._segments.clear()
            self._meta.clear()
            super().teardown()


@dataclass(frozen=True)
class TransportSpec:
    """One registered transport: key, class path, one-line summary.

    ``module``/``attr`` keep the registration lazy — registering ``tcp``
    must not import :mod:`repro.net` (and certainly not open sockets)
    until someone actually asks for it.
    """

    key: str
    module: str
    attr: str
    summary: str = ""

    def load(self) -> type:
        import importlib

        return getattr(importlib.import_module(self.module), self.attr)


_TRANSPORT_REGISTRY: dict[str, TransportSpec] = {}


def register_transport(key: str, cls: type | None = None, *,
                       lazy: str | None = None, summary: str = "") -> None:
    """Register a transport class under ``key``.

    Pass either a concrete ``cls`` or a ``lazy`` ``"module:attr"`` path
    (resolved on first :func:`create_transport` call).  Mirrors
    :mod:`repro.engines.registry`: re-registering an existing key is a
    :class:`ConfigError`.
    """
    if key in _TRANSPORT_REGISTRY:
        raise ConfigError(f"transport {key!r} is already registered")
    if (cls is None) == (lazy is None):
        raise ConfigError("register_transport needs exactly one of "
                          "cls= or lazy='module:attr'")
    if cls is not None:
        # Already imported, so load() is a cheap sys.modules lookup.
        module, attr = cls.__module__, cls.__qualname__
    else:
        module, _, attr = lazy.partition(":")
    _TRANSPORT_REGISTRY[key] = TransportSpec(key=key, module=module,
                                             attr=attr, summary=summary)


def available_transports() -> tuple[str, ...]:
    """Registered transport keys, in registration order."""
    return tuple(_TRANSPORT_REGISTRY)


def transport_class(name: str) -> type:
    """The :class:`Transport` subclass registered under ``name``."""
    try:
        spec = _TRANSPORT_REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"unknown transport {name!r}; "
            f"choose from {available_transports()}") from None
    return spec.load()


def default_transport_name(fallback: str = "pickle") -> str:
    """Transport name from ``REPRO_TRANSPORT`` (default ``fallback``)."""
    name = os.environ.get(TRANSPORT_ENV_VAR, fallback)
    if name not in _TRANSPORT_REGISTRY:
        raise ConfigError(
            f"{TRANSPORT_ENV_VAR} must be one of {available_transports()}, "
            f"got {name!r}")
    return name


def create_transport(name: "str | Transport | None" = None) -> Transport:
    """Instantiate a transport by name (``pickle``/``shm``/``tcp``).

    ``None`` resolves through :func:`default_transport_name`; an existing
    :class:`Transport` instance passes through unchanged.  Unknown names
    — whether from an argument or from ``REPRO_TRANSPORT`` — raise
    :class:`ConfigError` naming the registered transports.
    """
    if isinstance(name, Transport):
        return name
    if name is None:
        name = default_transport_name()
    return transport_class(name)()


register_transport("pickle", PickleTransport,
                   summary="partitions travel inside pickled payloads")
register_transport("shm", SharedMemoryTransport,
                   summary="zero-copy shared-memory blocks, same host")
register_transport("tcp", lazy="repro.net.transport:TcpTransport",
                   summary="TCP block store for multi-machine clusters")
