"""Sharded serving tests: the gather-free frame path and its farm fan-out.

``render_frame_sharded`` composites one paged shard at a time through the
fragment transmittance merge; it must match the joint ``render_frame`` of
the same store to compositing-rounding precision, the farmed execution
must be bit-identical to inline, and the published shared segment must
carry only the geometric block + shard ids — never the packed matrix.
"""

import numpy as np
import pytest

from repro.datasets import SyntheticSceneConfig, build_scene
from repro.gaussians import layout
from repro.render import RasterConfig, shutdown_raster_pools
from repro.serve import (
    FrameTask,
    LODSet,
    PagedServingStore,
    RenderFarm,
    default_serve_raster_config,
)
from repro.serve.farm import render_frame, render_frame_sharded

ATOL = 1e-9


@pytest.fixture(scope="module", autouse=True)
def _reap_pools():
    yield
    shutdown_raster_pools()


@pytest.fixture(scope="module")
def scene():
    return build_scene(
        SyntheticSceneConfig(
            num_points=180, width=32, height=24,
            num_train_cameras=4, num_test_cameras=2,
            altitude=12.0, seed=9,
        )
    )


def budget(n, num_shards=4, shards_resident=1):
    worst = -(-n // num_shards)
    return layout.param_bytes(n, layout.GEOMETRIC_DIM) + (
        shards_resident * layout.param_bytes(worst, layout.NON_GEOMETRIC_DIM)
    )


@pytest.fixture(scope="module")
def paged(scene):
    n = scene.oracle.num_gaussians
    with PagedServingStore.from_model(scene.oracle, budget(n)) as store:
        yield store


def make_tasks(scene, lod_set, config=None):
    # full precision by default: the strict 1e-9 parity bound compares
    # two different compositing algorithms, which float32 blurs to ~2e-4
    config = config or RasterConfig()
    return [
        FrameTask(
            camera=cam, lod=i % lod_set.num_levels,
            sh_degree=lod_set.sh_degree(i % lod_set.num_levels),
            config=config,
        )
        for i, cam in enumerate(scene.train_cameras)
    ]


class TestShardedFrame:
    def test_matches_joint_render_frame(self, scene, paged):
        lod_set = LODSet.build(scene.oracle.params)
        for task in make_tasks(scene, lod_set):
            joint = render_frame(paged, lod_set.drop_level, task)
            sharded = render_frame_sharded(paged, lod_set.drop_level, task)
            np.testing.assert_allclose(sharded, joint, atol=ATOL, rtol=0)

    def test_no_lod_filtering(self, scene, paged):
        task = make_tasks(scene, LODSet.build(scene.oracle.params))[0]
        joint = render_frame(paged, None, task)
        sharded = render_frame_sharded(paged, None, task)
        np.testing.assert_allclose(sharded, joint, atol=ATOL, rtol=0)

    def test_float32_serve_config_close(self, scene, paged):
        """The default float32 serving config stays within float32
        compositing tolerance of the joint render."""
        lod_set = LODSet.build(scene.oracle.params)
        task = make_tasks(scene, lod_set, default_serve_raster_config())[0]
        joint = render_frame(paged, lod_set.drop_level, task)
        sharded = render_frame_sharded(paged, lod_set.drop_level, task)
        assert sharded.dtype == np.float32
        np.testing.assert_allclose(sharded, joint, atol=5e-3, rtol=0)

    def test_empty_view_is_background(self, scene, paged):
        """A camera seeing no splats must return the background fill."""
        from repro.cameras import Camera

        away = Camera.look_at(
            [0.0, 0.0, 500.0], [0.0, 0.0, 1000.0],
            width=32, height=24, near=0.5, far=2.0,
        )
        task = FrameTask(
            camera=away, lod=0, sh_degree=3,
            config=default_serve_raster_config(),
            background=np.array([0.25, 0.5, 0.75]),
        )
        image = render_frame_sharded(paged, None, task)
        assert image.shape == (24, 32, 3)
        np.testing.assert_allclose(image[:, :, 0], 0.25)
        np.testing.assert_allclose(image[:, :, 2], 0.75)


class TestShardedFarm:
    def test_pooled_batch_bit_identical_to_inline(self, scene, paged):
        lod_set = LODSet.build(scene.oracle.params)
        tasks = make_tasks(scene, lod_set)
        inline = RenderFarm(workers=0)
        inline.publish_sharded(paged, lod_set.drop_level)
        pooled = RenderFarm(workers=2)
        pooled.publish_sharded(paged, lod_set.drop_level)
        try:
            a = inline.render_batch(tasks)
            b = pooled.render_batch(tasks)
            assert len(a) == len(b) == len(tasks)
            for x, y in zip(a, b):
                assert np.array_equal(x, y)
        finally:
            inline.close()
            pooled.close()

    def test_published_segment_excludes_packed_matrix(self, scene, paged):
        """The shared segment ships geometry + shard ids only — the
        (N, 59) union is never packed on either side of the fan-out."""
        farm = RenderFarm(workers=2)
        farm.publish_sharded(paged, None)
        try:
            assert farm.published
            names = {m[0] for m in farm._metas}
            assert "params" not in names
            assert {"geo", "shard_rows_flat", "shard_offsets"} <= names
            # and the page files reach workers as paths, not bytes
            assert len(farm._page_specs) == len(paged.shard_rows)
        finally:
            farm.close()
        assert not farm.published

    def test_worker_decode_parity_under_codecs(self, scene, paged):
        """Workers decode compressed pages themselves (the page spec ships
        a path + codec name, never decoded bytes): pooled rendering stays
        bit-identical to inline for every codec, and the lossless store
        renders bit-identically to the raw one."""
        n = scene.oracle.num_gaussians
        lod_set = LODSet.build(scene.oracle.params)
        tasks = make_tasks(scene, lod_set)
        baseline = None
        for codec in ("lossless", "float16"):
            store = PagedServingStore.from_model(
                scene.oracle, budget(n), codec=codec
            )
            inline = RenderFarm(workers=0)
            inline.publish_sharded(store, lod_set.drop_level)
            pooled = RenderFarm(workers=2)
            pooled.publish_sharded(store, lod_set.drop_level)
            try:
                names = {spec[2] for spec in pooled._page_specs}
                assert names == {codec}
                a = inline.render_batch(tasks)
                b = pooled.render_batch(tasks)
                for x, y in zip(a, b):
                    assert np.array_equal(x, y)
                if codec == "lossless":
                    baseline = a
            finally:
                inline.close()
                pooled.close()
                store.close()
        # lossless pages are pure placement: same pixels as the raw store
        raw_farm = RenderFarm(workers=0)
        raw_farm.publish_sharded(paged, lod_set.drop_level)
        try:
            for x, y in zip(baseline, raw_farm.render_batch(tasks)):
                assert np.array_equal(x, y)
        finally:
            raw_farm.close()

    def test_republish_plain_after_sharded(self, scene, paged):
        """publish_sharded then publish must fully swap the dispatch."""
        from repro.serve import InMemoryServingStore

        lod_set = LODSet.build(scene.oracle.params)
        task = make_tasks(scene, lod_set)[:1]
        farm = RenderFarm(workers=0)
        farm.publish_sharded(paged, lod_set.drop_level)
        sharded = farm.render_batch(task)[0]
        farm.publish(
            InMemoryServingStore.from_model(scene.oracle),
            lod_set.drop_level,
        )
        joint = farm.render_batch(task)[0]
        farm.close()
        np.testing.assert_allclose(sharded, joint, atol=ATOL, rtol=0)
