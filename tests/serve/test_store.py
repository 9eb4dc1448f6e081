"""Serving-store tests: paged placement changes accounting, never pixels.

The acceptance bar for the paged tier: a model larger than the host byte
budget serves with every tracked host byte under the budget (capacity-
enforced, not just reported), page traffic quantized in whole shard
pages on the ledger's disk channel, and gathers bit-identical to the
in-memory store.
"""

import os
import tempfile

import numpy as np
import pytest

from repro.core import GSScaleConfig, create_system
from repro.core.checkpoint import CheckpointReader, resume_model, save_checkpoint
from repro.datasets import SyntheticSceneConfig, build_scene
from repro.gaussians import layout
from repro.serve import InMemoryServingStore, PagedServingStore


@pytest.fixture(scope="module")
def scene():
    return build_scene(
        SyntheticSceneConfig(
            num_points=240, width=36, height=28,
            num_train_cameras=6, num_test_cameras=2,
            altitude=12.0, seed=11,
        )
    )


def tight_budget(n: int, num_shards: int = 4, shards_resident: int = 1) -> int:
    """Geometry + ``shards_resident`` worst-case shard pages."""
    worst = -(-n // num_shards)
    return layout.param_bytes(n, layout.GEOMETRIC_DIM) + (
        shards_resident * layout.param_bytes(worst, layout.NON_GEOMETRIC_DIM)
    )


class TestInMemoryStore:
    def test_gather_and_geometry_match_model(self, scene):
        model = scene.oracle
        store = InMemoryServingStore.from_model(model)
        ids = np.arange(0, model.num_gaussians, 3)
        assert np.array_equal(store.gather(ids), model.params[ids])
        means, log_scales, quats = store.geometry()
        assert np.array_equal(means, model.means)
        assert np.array_equal(log_scales, model.log_scales)
        assert np.array_equal(quats, model.quats)

    def test_copy_decouples_from_model(self, scene):
        model = scene.oracle.copy()
        store = InMemoryServingStore.from_model(model)
        model.params[:] = 0.0
        assert not np.array_equal(store.params, model.params)

    def test_rejects_wrong_width(self):
        with pytest.raises(ValueError, match="params"):
            InMemoryServingStore(np.zeros((4, 10)))


class TestPagedStore:
    def test_gather_bit_identical_to_in_memory(self, scene):
        model = scene.oracle
        n = model.num_gaussians
        paged = PagedServingStore.from_model(model, tight_budget(n))
        rng = np.random.default_rng(0)
        for _ in range(4):
            ids = np.sort(rng.choice(n, size=60, replace=False))
            assert np.array_equal(paged.gather(ids), model.params[ids])
        paged.close()

    def test_budget_enforced_while_model_larger(self, scene):
        model = scene.oracle
        n = model.num_gaussians
        budget = tight_budget(n)
        paged = PagedServingStore.from_model(model, budget)
        assert paged.model_bytes > budget  # the model cannot be hosted whole
        rng = np.random.default_rng(1)
        for _ in range(6):
            ids = np.sort(rng.choice(n, size=80, replace=False))
            paged.gather(ids)
            assert paged.host_memory.live_bytes <= budget
        # tracker-verified: capacity equals the budget, so an accounting
        # bug would have raised MemoryError above
        assert paged.host_memory.capacity_bytes == budget
        assert paged.host_memory.peak_bytes <= budget
        paged.close()

    def test_page_traffic_quantized_on_ledger(self, scene):
        model = scene.oracle
        n = model.num_gaussians
        paged = PagedServingStore.from_model(model, tight_budget(n))
        assert paged.resident_budget == 1
        paged.gather(np.arange(n))  # touches every shard, in shard order
        ledger = paged.ledger
        sizes = [
            layout.param_bytes(int(r.size), layout.NON_GEOMETRIC_DIM)
            for r in paged.shard_rows
        ]
        # each shard pages in exactly once; all but the last spill to make
        # room for the next — whole shard pages, nothing partial
        assert ledger.page_in_count == len(sizes)
        assert ledger.page_in_bytes == sum(sizes)
        assert ledger.page_out_count == len(sizes) - 1
        assert ledger.page_out_bytes == sum(sizes[:-1])
        paged.close()

    def test_lru_revisit_does_not_repage(self, scene):
        model = scene.oracle
        n = model.num_gaussians
        paged = PagedServingStore.from_model(
            model, tight_budget(n, shards_resident=4)
        )
        assert paged.resident_budget == 4
        ids = paged.shard_rows[0][:10]
        paged.gather(ids)
        pages = paged.ledger.page_in_count
        paged.gather(ids)  # resident: a touch, not a page-in
        assert paged.ledger.page_in_count == pages
        paged.close()

    def test_budget_too_small_raises(self, scene):
        model = scene.oracle
        with pytest.raises(ValueError, match="host budget"):
            PagedServingStore.from_model(
                model, layout.param_bytes(model.num_gaussians, layout.GEOMETRIC_DIM)
            )

    def test_rejected_budget_creates_no_page_dir(self, scene, tmp_path, monkeypatch):
        """Validation runs before the temporary page directory exists, so
        a rejected store leaves nothing behind."""
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        model = scene.oracle
        # the held traceback keeps any half-built store (and its
        # directory) alive until the listing below
        with pytest.raises(ValueError, match="host budget") as rejected:
            PagedServingStore.from_model(
                model, layout.param_bytes(model.num_gaussians, layout.GEOMETRIC_DIM)
            )
        assert os.listdir(tmp_path) == []
        del rejected

    def test_explicit_page_dir_is_used(self, scene, tmp_path):
        model = scene.oracle
        paged = PagedServingStore.from_model(
            model, tight_budget(model.num_gaussians),
            page_dir=str(tmp_path / "pages"),
        )
        files = os.listdir(tmp_path / "pages")
        pages = [f for f in files if not f.endswith(".crc")]
        sidecars = [f for f in files if f.endswith(".crc")]
        assert len(pages) == len(paged.shards)
        # sealing a raw page records its CRC sidecar next to it
        assert len(sidecars) == len(paged.shards)
        paged.close()


class TestPagedStoreCodecs:
    """Compressed serving pages: the codec changes bytes on disk, never
    the served values (bit-exactly for lossless, within half-precision
    tolerance for float16) — and the ledger's disk channel meters the
    encoded size next to the fp32-equivalent accounting."""

    def test_lossless_gather_bit_identical(self, scene):
        model = scene.oracle
        n = model.num_gaussians
        paged = PagedServingStore.from_model(
            model, tight_budget(n), codec="lossless"
        )
        rng = np.random.default_rng(2)
        for _ in range(4):
            ids = np.sort(rng.choice(n, size=70, replace=False))
            assert np.array_equal(paged.gather(ids), model.params[ids])
        paged.close()

    def test_float16_gather_tolerance_geometry_exact(self, scene):
        model = scene.oracle
        n = model.num_gaussians
        paged = PagedServingStore.from_model(
            model, tight_budget(n), codec="float16"
        )
        ids = np.arange(n)
        got = paged.gather(ids)
        # geometric columns never touch the codec: bit-exact
        np.testing.assert_array_equal(
            got[:, layout.GEOMETRIC_SLICE],
            model.params[:, layout.GEOMETRIC_SLICE],
        )
        np.testing.assert_allclose(
            got[:, layout.NON_GEOMETRIC_SLICE],
            model.params[:, layout.NON_GEOMETRIC_SLICE],
            rtol=2e-3, atol=1e-6,
        )
        paged.close()

    def test_disk_channel_meters_encoded_bytes(self, scene):
        model = scene.oracle
        n = model.num_gaussians
        stores = {
            name: PagedServingStore.from_model(
                model, tight_budget(n), codec=name
            )
            for name in ("raw", "float16", "lossless")
        }
        try:
            for s in stores.values():
                s.gather(np.arange(n))  # page every shard in once
            raw, f16, loz = (
                stores[k].ledger for k in ("raw", "float16", "lossless")
            )
            # accounting side is placement-independent
            assert f16.page_in_bytes == raw.page_in_bytes
            assert loz.page_in_bytes == raw.page_in_bytes
            # raw: both sides agree; f16: ~2x (2 bytes/value + a 2-byte
            # per-column scale header); lossless: encoded, just different
            assert raw.page_in_disk_bytes == raw.page_in_bytes
            assert 1.5 < f16.page_in_bytes / f16.page_in_disk_bytes <= 2.0
            assert 0 < loz.page_in_disk_bytes != loz.page_in_bytes
        finally:
            for s in stores.values():
                s.close()


class TestCheckpointOpen:
    @pytest.fixture(scope="class")
    def checkpoint(self, scene, tmp_path_factory):
        cfg = GSScaleConfig(
            system="outofcore", num_shards=4, resident_shards=1,
            scene_extent=scene.extent, mem_limit=1.0, seed=0,
            engine="vectorized",
        )
        path = str(tmp_path_factory.mktemp("ck") / "serve_ck.npz")
        with create_system(scene.initial.copy(), cfg) as system:
            for i in range(6):
                system.step(scene.train_cameras[i % 6], scene.train_images[i % 6])
            save_checkpoint(path, system)
        return path

    def test_reader_blocks_cover_all_columns(self, checkpoint):
        with CheckpointReader(checkpoint) as reader:
            cols = np.zeros(layout.PARAM_DIM, dtype=np.int64)
            for info in reader.blocks():
                rows = (
                    reader.num_gaussians if info.rows is None else info.rows.size
                )
                cols[info.start : info.stop] += rows
            assert (cols == reader.num_gaussians).all()

    def test_assemble_matches_resume_model(self, checkpoint):
        ref = resume_model(checkpoint)
        with CheckpointReader(checkpoint) as reader:
            geo = reader.assemble_columns(layout.GEOMETRIC_SLICE)
            sh = reader.assemble_columns(layout.SH_SLICE)
        assert np.array_equal(geo, ref.params[:, layout.GEOMETRIC_SLICE])
        assert np.array_equal(sh, ref.params[:, layout.SH_SLICE])

    def test_assemble_uncovered_columns_raises(self, checkpoint, tmp_path):
        with CheckpointReader(checkpoint) as reader:
            with pytest.raises(ValueError, match="cover"):
                reader.assemble_columns(slice(0, layout.PARAM_DIM + 1))

    def test_paged_from_checkpoint_matches_resume(self, checkpoint):
        ref = resume_model(checkpoint)
        n = ref.num_gaussians
        paged = PagedServingStore.from_checkpoint(
            checkpoint, tight_budget(n), num_shards=4
        )
        ids = np.arange(n)
        assert np.array_equal(paged.gather(ids), ref.params[ids])
        assert paged.host_memory.peak_bytes <= paged.host_memory.capacity_bytes
        paged.close()

    def test_paged_from_checkpoint_with_lossless_codec(self, checkpoint):
        """Opening a trained checkpoint straight into compressed serving
        pages loses nothing: gathers still match ``resume_model``."""
        ref = resume_model(checkpoint)
        n = ref.num_gaussians
        paged = PagedServingStore.from_checkpoint(
            checkpoint, tight_budget(n), num_shards=4, codec="lossless"
        )
        assert np.array_equal(paged.gather(np.arange(n)), ref.params)
        assert paged.ledger.page_in_disk_bytes != paged.ledger.page_in_bytes
        paged.close()

    def test_render_service_forwards_codec(self, checkpoint):
        """``RenderService.from_checkpoint(codec=...)`` reaches the paged
        store — the serving entry point can select compressed pages."""
        from repro.serve import RenderService

        ref = resume_model(checkpoint)
        service = RenderService.from_checkpoint(
            checkpoint, host_budget_bytes=tight_budget(ref.num_gaussians),
            num_shards=4, codec="float16",
        )
        try:
            assert service.store.codec.name == "float16"
            n = ref.num_gaussians
            gathered = service.store.gather(np.arange(n))
            geo = layout.GEOMETRIC_SLICE
            assert np.array_equal(gathered[:, geo], ref.params[:, geo])
        finally:
            service.store.close()

    def test_from_checkpoint_respects_shard_count(self, checkpoint):
        ref = resume_model(checkpoint)
        paged = PagedServingStore.from_checkpoint(
            checkpoint, tight_budget(ref.num_gaussians, num_shards=2),
            num_shards=2,
        )
        assert len(paged.shards) == 2
        assert np.array_equal(
            paged.gather(np.arange(ref.num_gaussians)), ref.params
        )
        paged.close()


class TestEmptyShards:
    """More shards than splats: the partitioner pads empty shards, whose
    zero-row pages must build, seal, page, and gather under every codec
    (regression guard for the patch pipeline's tiny-cell outputs)."""

    @pytest.mark.parametrize("codec", ("raw", "float16", "lossless"))
    def test_paged_store_with_empty_shards(self, scene, codec):
        model = scene.oracle.select(np.arange(3))
        paged = PagedServingStore.from_model(
            model, tight_budget(3, num_shards=8), num_shards=8, codec=codec
        )
        assert len(paged.shards) == 8
        assert any(r.size == 0 for r in paged.shard_rows)
        gathered = paged.gather(np.arange(3))
        geo = layout.GEOMETRIC_SLICE
        ng = layout.NON_GEOMETRIC_SLICE
        assert np.array_equal(gathered[:, geo], model.params[:, geo])
        if codec == "float16":  # lossy on the paged block, by design
            np.testing.assert_allclose(
                gathered[:, ng], model.params[:, ng], rtol=2e-3, atol=1e-6
            )
        else:
            assert np.array_equal(gathered[:, ng], model.params[:, ng])
        assert paged.gather(np.empty(0, dtype=np.int64)).shape == (
            0,
            layout.PARAM_DIM,
        )
        paged.close()

    def test_in_memory_store_empty_gather(self, scene):
        store = InMemoryServingStore.from_model(scene.oracle)
        ids = np.empty(0, dtype=np.int64)
        assert store.gather(ids).shape == (0, layout.PARAM_DIM)
