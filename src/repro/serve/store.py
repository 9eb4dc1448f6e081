"""Read-only serving stores: where a trained model lives while it serves.

Training placements (:mod:`repro.core.stores`) carry optimizer state and
gradient plumbing; serving needs none of that — just the committed
``(N, 59)`` parameter matrix, gatherable per view. Two placements:

* :class:`InMemoryServingStore` — the whole packed matrix resident in
  host memory. Fast, simple, and what the render farm publishes to its
  workers.
* :class:`PagedServingStore` — the out-of-core tier for models larger
  than the host budget (TideGS's regime, inference-side): the geometric
  columns (17%) stay resident for culling, while the non-geometric
  columns are spatially sharded into memory-mapped page files and at
  most ``resident`` shards occupy host DRAM at once. Residency reuses
  the training tier's LRU machinery (:class:`~repro.core.stores.\
ResidentSet`), page traffic is metered on the
  :class:`~repro.core.systems.TransferLedger` page channel, and a
  capacity-capped :class:`~repro.sim.memory.MemoryTracker` *enforces*
  the byte budget — an accounting bug raises instead of silently
  overshooting.

Both expose the same three-method surface the frame renderer needs:
``geometry()`` for culling, ``gather(ids)`` for the visible rows, and
``num_rows``. Placement never changes pixels: a paged gather returns the
same bytes an in-memory gather would.
"""

from __future__ import annotations

import os
import tempfile
import time

import numpy as np

from ..core import integrity as _integrity
from ..core.checkpoint import CheckpointReader
from ..core.integrity import CorruptPageError, atomic_write_bytes
from ..core.pagecodec import get_page_codec
from ..core.splitting import spatial_partition
from ..core.stores import ResidentSet
from ..core.systems import TransferLedger
from ..gaussians import layout
from ..sim.memory import MemoryTracker
from ..telemetry import metrics as _metrics
from ..telemetry import trace as _trace
from ..telemetry.trace import span as _span

__all__ = [
    "InMemoryServingStore",
    "PageQuarantinedError",
    "PagedServingStore",
    "ServingStore",
]


class PageQuarantinedError(RuntimeError):
    """A serving shard's page failed integrity checks and was fenced off.

    Raised on the page-in that detects the corruption and on every later
    attempt to touch the quarantined shard — requests needing it fail
    individually (and are reported) while the rest of the model keeps
    serving; the store as a whole never crashes on a bad page.
    """


def _members(ids: np.ndarray, rows: np.ndarray):
    """``(sel, local)``: positions within ``ids`` of this shard's members
    and their shard-local row indices (rows sorted ascending)."""
    if rows.size == 0 or ids.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    pos = np.searchsorted(rows, ids)
    pos = np.clip(pos, 0, rows.size - 1)
    hit = rows[pos] == ids
    sel = np.nonzero(hit)[0]
    return sel, pos[sel]


class ServingStore:
    """Read-only model placement surface the frame renderer draws from."""

    @property
    def num_rows(self) -> int:
        """Number of Gaussians in the served model."""
        raise NotImplementedError

    @property
    def dtype(self):
        """Floating dtype of the served parameters."""
        raise NotImplementedError

    @property
    def model_bytes(self) -> int:
        """fp32-equivalent bytes of the full packed parameter matrix."""
        return layout.param_bytes(self.num_rows)

    def geometry(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Resident ``(means, log_scales, quats)`` for frustum culling."""
        raise NotImplementedError

    def gather(self, ids: np.ndarray) -> np.ndarray:
        """Packed ``(M, 59)`` rows for ``ids`` (copy)."""
        raise NotImplementedError

    def close(self) -> None:
        """Release any backing resources (idempotent)."""

    def __enter__(self) -> "ServingStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class InMemoryServingStore(ServingStore):
    """The whole committed model resident in host memory.

    Args:
        params: packed ``(N, 59)`` matrix.
        copy: defensively copy ``params`` (the render farm's workers wrap
            shared-memory views without copying).
    """

    def __init__(self, params: np.ndarray, copy: bool = True):
        if params.ndim != 2 or params.shape[1] != layout.PARAM_DIM:
            raise ValueError(
                f"params must be (N, {layout.PARAM_DIM}), got {params.shape}"
            )
        self.params = params.copy() if copy else params

    @classmethod
    def from_model(cls, model) -> "InMemoryServingStore":
        """Wrap a :class:`~repro.gaussians.model.GaussianModel` (copy)."""
        return cls(model.params)

    @classmethod
    def from_checkpoint(cls, path: str) -> "InMemoryServingStore":
        """Load the committed model of a checkpoint, any placement."""
        from ..core.checkpoint import resume_model

        return cls(resume_model(path).params, copy=False)

    @property
    def num_rows(self) -> int:
        return self.params.shape[0]

    @property
    def dtype(self):
        return self.params.dtype

    def geometry(self):
        return (
            self.params[:, layout.MEAN_SLICE],
            self.params[:, layout.SCALE_SLICE],
            self.params[:, layout.QUAT_SLICE],
        )

    def gather(self, ids: np.ndarray) -> np.ndarray:
        return self.params[ids]  # advanced indexing already copies


class _ServeShard:
    """One spatial shard's non-geometric page: a memmap file plus an
    optional paged-in host copy, driven through the shared
    :class:`~repro.core.stores.ResidentSet` (which calls :meth:`spill`
    on the LRU shard to make room — the same protocol the training
    tier's :class:`~repro.core.stores.DiskStore` speaks)."""

    def __init__(self, store: "PagedServingStore", index: int, num_rows: int):
        self._store = store
        self.index = index
        self.num_rows = num_rows
        self.codec = store.codec
        #: encoded on-disk bytes of the sealed page (0 = raw/unsealed:
        #: the ledger then meters fp32-equivalent bytes on both sides)
        self.disk_nbytes = 0
        self.page_path = ""
        if num_rows:
            # the build buffer is always a raw memmap — checkpoint blocks
            # stream into it incrementally; :meth:`seal` encodes it once
            # building is done (non-raw codecs only)
            path = os.path.join(store.page_dir, f"serve_shard{index}.dat")
            self._mm = np.memmap(
                path, dtype=store.dtype, mode="w+",
                shape=(num_rows, layout.NON_GEOMETRIC_DIM),
            )
            self.page_path = path
        else:  # zero bytes cannot be memory-mapped
            self._mm = np.empty(
                (0, layout.NON_GEOMETRIC_DIM), dtype=store.dtype
            )
        self.values: np.ndarray | None = None

    def flush(self) -> None:
        """Flush the page file (no-op for an empty shard)."""
        if isinstance(self._mm, np.memmap):
            self._mm.flush()

    def seal(self) -> None:
        """Finish building: under a non-raw codec, encode the build
        memmap into the shard's page file (framed with the GSP1 integrity
        header, written atomically) and delete the raw buffer (serving
        then decodes whole pages); raw pages flush and record a CRC
        sidecar. One shard's rows are transient at a time."""
        if self.codec.name == "raw" or not self.num_rows:
            self.flush()
            if self.page_path:
                _integrity.write_array_sidecar(
                    self.page_path, np.ascontiguousarray(self._mm)
                )
            return
        buf = self.codec.encode_page(np.asarray(self._mm))
        enc_path = os.path.join(
            self._store.page_dir,
            f"serve_shard{self.index}.{self.codec.name}.pagez",
        )
        atomic_write_bytes(enc_path, buf)
        build_path = self.page_path
        self._mm = None
        os.remove(build_path)
        self.page_path = enc_path
        self.disk_nbytes = len(buf)

    def _read_page(self) -> np.ndarray:
        """Read + validate the page (:class:`~repro.core.integrity.
        CorruptPageError` on a torn or bit-rotted file)."""
        if self._mm is not None:  # raw (or not yet sealed)
            arr = np.array(self._mm)
            if self.page_path:
                _integrity.verify_sidecar(self.page_path, arr)
            return arr
        with open(self.page_path, "rb") as fh:
            buf = fh.read()
        return self.codec.decode_page(
            buf,
            (self.num_rows, layout.NON_GEOMETRIC_DIM),
            self._store.dtype,
            path=self.page_path,
        )

    @property
    def is_resident(self) -> bool:
        return self.values is not None

    @property
    def state_bytes(self) -> int:
        """fp32-equivalent bytes of the paged columns."""
        return layout.param_bytes(self.num_rows, layout.NON_GEOMETRIC_DIM)

    def write(self, local_rows, values: np.ndarray) -> None:
        """Fill page-file rows (build time only, before serving starts)."""
        if self._mm is None:
            raise RuntimeError(
                f"serve shard {self.index} is sealed; pages are read-only"
            )
        self._mm[local_rows] = values
        self.flush()
        # a write invalidates any CRC sidecar a previous seal recorded
        if self.page_path:
            side = _integrity.sidecar_path(self.page_path)
            if os.path.exists(side):
                os.unlink(side)

    def page_in(self) -> None:
        """Make the shard's columns host-resident (LRU-admitting).

        A page that fails integrity validation quarantines the shard:
        this call — and every later one for the same shard — raises
        :class:`PageQuarantinedError`, leaving the rest of the store
        serving.
        """
        store = self._store
        quarantined = store.quarantined.get(self.index)
        if quarantined is not None:
            raise PageQuarantinedError(
                f"serving shard {self.index} is quarantined: {quarantined}"
            )
        if self.is_resident:
            store.resident_set.touch(self)
            return
        store.resident_set.admit(self)  # spills the LRU shard first
        tok = _trace.begin("serve/page_in", "page")
        try:
            self.values = self._read_page()
        except CorruptPageError as exc:
            store.resident_set.drop(self)
            store._quarantine(self, exc)
        finally:
            if tok is not None:
                _trace.end(tok)
                _metrics.get_registry().histogram(
                    "page_in_seconds", store="serve"
                ).observe(time.perf_counter() - tok[3])
        store.host_memory.allocate("serve_resident_shards", self.state_bytes)
        store.ledger.record_page_in(
            self.state_bytes, self.disk_nbytes or None
        )

    def spill(self) -> None:
        """Drop the host copy (the page file stays authoritative)."""
        if not self.is_resident:
            return
        store = self._store
        with _span("serve/page_out", "page", shard=self.index):
            self.values = None
            store.resident_set.drop(self)
            store.host_memory.free(
                "serve_resident_shards", self.state_bytes
            )
            # serving pages are immutable: a spill writes nothing to disk
            store.ledger.record_page_out(self.state_bytes, 0)


class PagedServingStore(ServingStore):
    """Serve a model larger than host memory by paging shard columns.

    The geometric block ``(N, 10)`` stays resident (every request culls
    against it); the non-geometric ``(N, 49)`` lives in per-shard memmap
    page files under ``page_dir`` and at most ``resident`` shards are
    paged into host DRAM at once, where::

        resident = (host_budget_bytes - geo_bytes) // worst_shard_bytes

    A :class:`~repro.sim.memory.MemoryTracker` capped at
    ``host_budget_bytes`` charges the geometric block and every page-in,
    so the budget is enforced, not just reported; page traffic lands on
    the ledger's ``page_in``/``page_out`` channel.

    Args:
        geo: resident geometric columns ``(N, 10)``.
        shard_rows: sorted disjoint global row ids per shard (a
            :func:`~repro.core.splitting.spatial_partition`).
        host_budget_bytes: byte cap on tracked host memory.
        page_dir: directory of the page files (a temporary directory
            that dies with the store when ``None``).
        ledger: transfer ledger for the page channel (fresh when
            ``None``).
        codec: page codec name (see :mod:`repro.core.pagecodec`). Under
            a non-raw codec each shard's page is stored encoded (sealed
            once building finishes) and decoded on page-in; the ledger's
            ``page_in_disk_bytes`` then meters the encoded size next to
            the fp32-equivalent ``page_in_bytes``.
    """

    def __init__(
        self,
        geo: np.ndarray,
        shard_rows: list[np.ndarray],
        host_budget_bytes: int,
        page_dir: str | None = None,
        ledger: TransferLedger | None = None,
        codec: str = "raw",
    ):
        if geo.ndim != 2 or geo.shape[1] != layout.GEOMETRIC_DIM:
            raise ValueError(
                f"geo must be (N, {layout.GEOMETRIC_DIM}), got {geo.shape}"
            )
        self.geo = np.ascontiguousarray(geo)
        self.codec = get_page_codec(codec)
        self.shard_rows = [np.asarray(r, dtype=np.int64) for r in shard_rows]
        if int(sum(r.size for r in self.shard_rows)) != geo.shape[0]:
            raise ValueError("shard rows must partition the model's rows")
        self.ledger = ledger if ledger is not None else TransferLedger()
        geo_bytes = layout.param_bytes(self.num_rows, layout.GEOMETRIC_DIM)
        worst = max(
            layout.param_bytes(int(r.size), layout.NON_GEOMETRIC_DIM)
            for r in self.shard_rows
        )
        resident = (host_budget_bytes - geo_bytes) // max(worst, 1)
        if resident < 1:
            raise ValueError(
                f"host budget {host_budget_bytes} cannot hold the resident "
                f"geometry ({geo_bytes} B) plus one shard page ({worst} B)"
            )
        # validated: only now create anything that close() must release
        if page_dir is None:
            self._page_tmp = tempfile.TemporaryDirectory(prefix="gsscale-serve-")
            self.page_dir = self._page_tmp.name
        else:
            self._page_tmp = None
            self.page_dir = page_dir
            os.makedirs(page_dir, exist_ok=True)
        self.host_memory = MemoryTracker(capacity_bytes=host_budget_bytes)
        self.host_memory.allocate("serve_geo", geo_bytes)
        self.resident_set = ResidentSet(min(int(resident), len(self.shard_rows)))
        #: shard index -> corruption detail for pages fenced off by a
        #: failed integrity check (surfaced in serving stats)
        self.quarantined: dict[int, str] = {}
        self.shards = [
            _ServeShard(self, k, int(r.size))
            for k, r in enumerate(self.shard_rows)
        ]

    def _quarantine(self, shard: _ServeShard, exc: CorruptPageError) -> None:
        """Fence off a corrupt shard page and re-raise as quarantined."""
        detail = str(exc)
        self.quarantined[shard.index] = detail
        raise PageQuarantinedError(
            f"serving shard {shard.index} quarantined: {detail}"
        ) from exc

    # -- construction ------------------------------------------------------
    def seal(self) -> None:
        """Finish building every shard page (encode under a non-raw
        codec); pages are read-only afterwards."""
        for shard in self.shards:
            shard.seal()

    @classmethod
    def from_model(
        cls,
        model,
        host_budget_bytes: int,
        num_shards: int = 4,
        page_dir: str | None = None,
        ledger: TransferLedger | None = None,
        codec: str = "raw",
    ) -> "PagedServingStore":
        """Shard a in-memory model into page files and serve it paged."""
        params = model.params
        shard_rows = spatial_partition(
            params[:, layout.MEAN_SLICE], num_shards
        )
        store = cls(
            params[:, layout.GEOMETRIC_SLICE],
            shard_rows,
            host_budget_bytes,
            page_dir=page_dir,
            ledger=ledger,
            codec=codec,
        )
        for shard, rows in zip(store.shards, store.shard_rows):
            if rows.size:
                shard.write(slice(None), params[rows][:, layout.NON_GEOMETRIC_SLICE])
        store.seal()
        return store

    @classmethod
    def from_checkpoint(
        cls,
        path: str,
        host_budget_bytes: int,
        num_shards: int = 4,
        page_dir: str | None = None,
        ledger: TransferLedger | None = None,
        codec: str = "raw",
    ) -> "PagedServingStore":
        """Open a trained checkpoint for paged serving.

        Streams the checkpoint block by block through
        :class:`~repro.core.checkpoint.CheckpointReader`: the packed
        ``(N, 59)`` matrix is never materialized — only the geometric
        columns (resident anyway) plus one checkpoint block at a time —
        so a spilled out-of-core checkpoint opens for serving within
        roughly the same host footprint it trained under.
        """
        with CheckpointReader(path) as reader:
            geo = reader.assemble_columns(layout.GEOMETRIC_SLICE)
            shard_rows = spatial_partition(
                geo[:, layout.MEAN_SLICE], num_shards
            )
            store = cls(
                geo, shard_rows, host_budget_bytes,
                page_dir=page_dir, ledger=ledger, codec=codec,
            )
            # global row -> (owning serve shard, local row)
            n = reader.num_gaussians
            shard_of = np.empty(n, dtype=np.int64)
            local_of = np.empty(n, dtype=np.int64)
            for k, rows in enumerate(store.shard_rows):
                shard_of[rows] = k
                local_of[rows] = np.arange(rows.size)
            base = layout.NON_GEOMETRIC_SLICE.start
            for rows, csl, values in reader.iter_column_blocks(
                layout.NON_GEOMETRIC_SLICE
            ):
                if rows is None:
                    rows = np.arange(n)
                cols = slice(csl.start - base, csl.stop - base)
                for k in np.unique(shard_of[rows]):
                    sel = shard_of[rows] == k
                    store.shards[k]._mm[local_of[rows[sel]], cols] = values[sel]
            store.seal()
        return store

    # -- serving surface ---------------------------------------------------
    @property
    def num_rows(self) -> int:
        return self.geo.shape[0]

    @property
    def dtype(self):
        return self.geo.dtype

    @property
    def resident_budget(self) -> int:
        """How many shard pages may be host-resident at once."""
        return self.resident_set.budget

    def geometry(self):
        return (
            self.geo[:, layout.MEAN_SLICE],
            self.geo[:, layout.SCALE_SLICE],
            self.geo[:, layout.QUAT_SLICE],
        )

    def gather(self, ids: np.ndarray) -> np.ndarray:
        out = np.empty((ids.size, layout.PARAM_DIM), dtype=self.dtype)
        out[:, layout.GEOMETRIC_SLICE] = self.geo[ids]
        for shard, rows in zip(self.shards, self.shard_rows):
            sel, local = _members(ids, rows)
            if sel.size == 0:
                continue
            # copy while resident: a later shard's admit may spill this one
            shard.page_in()
            out[sel, layout.NON_GEOMETRIC_SLICE] = shard.values[local]
        return out

    def gather_shard(
        self, k: int, ids: np.ndarray, local: np.ndarray
    ) -> np.ndarray:
        """Packed rows of shard ``k``'s members only.

        ``ids`` are the members' global row ids and ``local`` their
        shard-local rows (a :func:`_members` pair). Exactly one page is
        touched, so the per-shard serving path
        (:func:`repro.serve.farm.render_frame_sharded`) holds at most one
        shard's compact rows at a time instead of the visible union.
        """
        out = np.empty((local.size, layout.PARAM_DIM), dtype=self.dtype)
        out[:, layout.GEOMETRIC_SLICE] = self.geo[ids]
        shard = self.shards[k]
        shard.page_in()
        out[:, layout.NON_GEOMETRIC_SLICE] = shard.values[local]
        return out

    def page_paths(self) -> list[tuple[str, int, str]]:
        """``(page file path, row count, codec name)`` per shard (path
        ``""`` when empty).

        The render farm's sharded publish hands these to its workers,
        which re-open the pages read-only — memory-mapping raw pages,
        decoding encoded ones — instead of receiving a packed copy of
        the model.
        """
        specs: list[tuple[str, int, str]] = []
        for shard in self.shards:
            if shard.num_rows and shard.page_path:
                # an unsealed non-raw shard still serves its raw build
                # memmap; only a sealed page needs the worker to decode
                name = "raw" if shard._mm is not None else shard.codec.name
                specs.append((shard.page_path, shard.num_rows, name))
            else:
                specs.append(("", shard.num_rows, "raw"))
        return specs

    def close(self) -> None:
        for shard in self.shards:
            shard.spill()
            shard._mm = None
        if self._page_tmp is not None:
            self._page_tmp.cleanup()
            self._page_tmp = None
