"""Tests for checkpoint save/resume."""

import gc
import warnings

import numpy as np
import pytest

from repro.core import GSScaleConfig, create_system
from repro.core.checkpoint import (
    CheckpointReader,
    load_checkpoint,
    resume_model,
    save_checkpoint,
)
from repro.core.integrity import CorruptCheckpointError
from repro.datasets import SyntheticSceneConfig, build_scene


@pytest.fixture(scope="module")
def scene():
    return build_scene(
        SyntheticSceneConfig(
            num_points=140, width=24, height=18,
            num_train_cameras=3, num_test_cameras=1,
            altitude=9.0, seed=101,
        )
    )


#: systems the running test built, closed at its teardown
_built = []


@pytest.fixture(autouse=True)
def _close_built():
    yield
    while _built:
        _built.pop().close()


def built(system):
    """Register ``system`` for closing when the test ends; returns it."""
    _built.append(system)
    return system


def cfg(scene, system):
    return GSScaleConfig(
        system=system, scene_extent=scene.extent, ssim_lambda=0.0,
        mem_limit=1.0, seed=0,
    )


def steps(system, scene, count, start=0):
    for i in range(start, start + count):
        system.step(
            scene.train_cameras[i % 3], scene.train_images[i % 3]
        )


@pytest.mark.parametrize(
    "system_name", ["gpu_only", "baseline_offload", "gsscale_no_deferred",
                    "gsscale"]
)
class TestResume:
    def test_resume_continues_identically(self, tmp_path, scene, system_name):
        """train 6 == train 3, checkpoint, restore, train 3."""
        path = str(tmp_path / f"{system_name}.npz")

        straight = built(create_system(scene.initial.copy(), cfg(scene, system_name)))
        steps(straight, scene, 6)
        straight.finalize()

        first = built(create_system(scene.initial.copy(), cfg(scene, system_name)))
        steps(first, scene, 3)
        save_checkpoint(path, first)

        resumed = built(create_system(scene.initial.copy(), cfg(scene, system_name)))
        load_checkpoint(path, resumed)
        steps(resumed, scene, 3, start=3)
        resumed.finalize()

        # checkpointing commits pending gradients, which reorders the
        # forwarding pipeline's commit point — identical math, so results
        # must agree to float/approximation tolerance
        np.testing.assert_allclose(
            resumed.materialized_model().params,
            straight.materialized_model().params,
            rtol=1e-6,
            atol=1e-8,
        )

    def test_iteration_counter_restored(self, tmp_path, scene, system_name):
        path = str(tmp_path / f"{system_name}_it.npz")
        s = built(create_system(scene.initial.copy(), cfg(scene, system_name)))
        steps(s, scene, 4)
        save_checkpoint(path, s)
        fresh = built(create_system(scene.initial.copy(), cfg(scene, system_name)))
        load_checkpoint(path, fresh)
        assert fresh.iteration == 4


class TestMidRunEquivalence:
    """Save at step N, resume, train N more: bit-compare against an
    uninterrupted 2N-step run.

    Checkpointing commits pending/lazy state, so the uninterrupted control
    finalizes at step N too (identical math at the same point); with that
    alignment, every placement — including the sharded and out-of-core
    systems — must agree to the last bit.
    """

    N = 3

    @pytest.mark.parametrize(
        "system_name,extra",
        [
            ("gpu_only", {}),
            ("baseline_offload", {}),
            ("sharded", {"num_shards": 3}),
            ("outofcore", {"num_shards": 3, "resident_shards": 1}),
            # deep out-of-core tier: the lossless page codec, write-behind
            # spilling, and the depth-2 staging queue are all pure placement
            # — each must checkpoint/resume bit-exactly too
            (
                "outofcore",
                {"num_shards": 3, "resident_shards": 1,
                 "page_codec": "lossless"},
            ),
            (
                "outofcore",
                {"num_shards": 3, "resident_shards": 1,
                 "write_behind": True},
            ),
            (
                "outofcore",
                {"num_shards": 3, "resident_shards": 1,
                 "page_codec": "lossless", "write_behind": True,
                 "async_prefetch": True, "prefetch_depth": 2},
            ),
        ],
    )
    def test_resume_bit_identical(self, tmp_path, scene, system_name, extra):
        n = self.N
        config = cfg(scene, system_name)
        for key, value in extra.items():
            setattr(config, key, value)

        def fresh():
            import dataclasses

            return built(create_system(
                scene.initial.copy(), dataclasses.replace(config)
            ))

        straight = fresh()
        steps(straight, scene, n)
        straight.finalize()  # align with save_checkpoint's settling point
        steps(straight, scene, n, start=n)
        straight.finalize()

        path = str(tmp_path / f"{system_name}_midrun.npz")
        first = fresh()
        steps(first, scene, n)
        save_checkpoint(path, first)

        resumed = fresh()
        load_checkpoint(path, resumed)
        assert resumed.iteration == n
        steps(resumed, scene, n, start=n)
        resumed.finalize()

        np.testing.assert_array_equal(
            resumed.materialized_model().params,
            straight.materialized_model().params,
        )

    def test_checkpoint_written_mid_write_behind(self, tmp_path, scene):
        """A checkpoint taken right after a step — with dirty page-outs
        from that step still queued on the background writer — must equal
        the synchronous-spill checkpoint array for array: ``save_checkpoint``
        fences the writer before serializing. Resuming from it then
        continues bit-identically."""

        def build(write_behind):
            config = cfg(scene, "outofcore")
            config.num_shards = 3
            config.resident_shards = 1
            config.write_behind = write_behind
            import dataclasses

            return built(create_system(
                scene.initial.copy(), dataclasses.replace(config)
            ))

        paths = {}
        for wb in (False, True):
            s = build(wb)
            steps(s, scene, self.N)
            # deliberately no flush/finalize here: with write-behind on,
            # the last step's page-outs are (or were) in flight
            if wb:
                assert s.write_behind_jobs > 0
            path = str(tmp_path / f"wb_{wb}.npz")
            save_checkpoint(path, s)
            paths[wb] = path
        with np.load(paths[False]) as sync, np.load(paths[True]) as behind:
            assert set(sync.files) == set(behind.files)
            for key in sync.files:
                np.testing.assert_array_equal(
                    sync[key], behind[key], err_msg=key
                )

        resumed = build(True)
        load_checkpoint(paths[True], resumed)
        steps(resumed, scene, self.N, start=self.N)
        resumed.finalize()

        straight = build(False)
        steps(straight, scene, self.N)
        straight.finalize()
        steps(straight, scene, self.N, start=self.N)
        straight.finalize()
        np.testing.assert_array_equal(
            resumed.materialized_model().params,
            straight.materialized_model().params,
        )

    def test_outofcore_resume_matches_sharded_resume(self, tmp_path, scene):
        """Placement changes nothing across a checkpoint boundary either:
        the resumed out-of-core run equals the resumed in-memory run."""
        results = {}
        for name, extra in (
            ("sharded", {"num_shards": 3}),
            ("outofcore", {"num_shards": 3, "resident_shards": 1}),
        ):
            config = cfg(scene, name)
            for key, value in extra.items():
                setattr(config, key, value)
            s = built(create_system(scene.initial.copy(), config))
            steps(s, scene, self.N)
            path = str(tmp_path / f"{name}_cross.npz")
            save_checkpoint(path, s)
            import dataclasses

            resumed = built(create_system(
                scene.initial.copy(), dataclasses.replace(config)
            ))
            load_checkpoint(path, resumed)
            steps(resumed, scene, self.N, start=self.N)
            resumed.finalize()
            results[name] = resumed.materialized_model().params
        np.testing.assert_array_equal(
            results["sharded"], results["outofcore"]
        )


class TestValidation:
    def test_system_mismatch_rejected(self, tmp_path, scene):
        path = str(tmp_path / "a.npz")
        s = built(create_system(scene.initial.copy(), cfg(scene, "gpu_only")))
        steps(s, scene, 1)
        save_checkpoint(path, s)
        other = built(create_system(scene.initial.copy(), cfg(scene, "gsscale")))
        with pytest.raises(ValueError):
            load_checkpoint(path, other)

    def test_resume_model_extraction(self, tmp_path, scene):
        for name in ("gpu_only", "gsscale"):
            path = str(tmp_path / f"{name}_m.npz")
            s = built(create_system(scene.initial.copy(), cfg(scene, name)))
            steps(s, scene, 2)
            save_checkpoint(path, s)
            model = resume_model(path)
            np.testing.assert_allclose(
                model.params, s.materialized_model().params, rtol=1e-12
            )


def _write_checkpoint(path, num_gaussians, blocks):
    """Hand-craft a version-2 checkpoint from ``(prefix, start, stop,
    rows, params)`` block tuples — the reader's format contract, without
    going through a training system."""
    arrays = {
        "version": np.array(2),
        "system": np.array("synthetic"),
        "iteration": np.array(0),
        "num_gaussians": np.array(num_gaussians),
    }
    for prefix, start, stop, rows, params in blocks:
        p = f"{prefix}_" if prefix else ""
        arrays[p + "params"] = params
        arrays[p + "cols"] = np.array([start, stop])
        if rows is not None:
            arrays[p + "rows"] = np.asarray(rows)
    np.savez_compressed(path, **arrays)
    return str(path)


class TestTornArchive:
    def test_torn_archive_closes_its_file(self, tmp_path, scene):
        """An archive that starts like a zip but does not parse raises
        CorruptCheckpointError without leaking the opened file."""
        good = str(tmp_path / "good.npz")
        s = built(create_system(scene.initial.copy(), cfg(scene, "gsscale")))
        save_checkpoint(good, s)
        with open(good, "rb") as fh:
            data = fh.read()
        torn = tmp_path / "torn.npz"
        torn.write_bytes(data[: len(data) // 2])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            for open_torn in (
                lambda: load_checkpoint(str(torn), s),
                lambda: CheckpointReader(str(torn)),
            ):
                try:
                    open_torn()
                except CorruptCheckpointError:
                    pass
                else:
                    pytest.fail("torn archive was accepted")
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


class TestReaderEdgeCases:
    """Lazy ``CheckpointReader`` against hand-crafted block layouts: the
    shapes real spilled/sharded checkpoints can take (a spatial shard that
    owns zero Gaussians, a block only partially overlapping the requested
    columns, half-precision blocks next to float64 geometry) plus the
    coverage failure the reader must refuse."""

    def test_empty_shard_block(self, tmp_path):
        """A spatial shard can own zero Gaussians (nothing landed in its
        cell); its zero-row block must assemble cleanly and count nothing
        toward coverage."""
        n = 6
        full = np.arange(n * 4, dtype=np.float64).reshape(n, 4)
        path = _write_checkpoint(
            tmp_path / "empty.npz", n,
            [
                ("geo", 0, 2, None, full[:, 0:2]),
                ("shard0", 2, 4, np.arange(n), full[:, 2:4]),
                ("shard1", 2, 4, np.empty(0, dtype=np.int64),
                 np.empty((0, 2), dtype=np.float64)),
            ],
        )
        with CheckpointReader(path) as reader:
            assert len(reader.blocks()) == 3
            np.testing.assert_array_equal(
                reader.assemble_columns(slice(0, 4)), full
            )

    def test_partial_final_block(self, tmp_path):
        """Requested columns that only clip the final block: the reader
        slices the overlap instead of loading (or double-counting) the
        whole block."""
        n = 5
        full = np.arange(n * 6, dtype=np.float64).reshape(n, 6)
        path = _write_checkpoint(
            tmp_path / "partial.npz", n,
            [
                ("a", 0, 3, None, full[:, 0:3]),
                ("b", 3, 6, None, full[:, 3:6]),
            ],
        )
        with CheckpointReader(path) as reader:
            np.testing.assert_array_equal(
                reader.assemble_columns(slice(2, 5)), full[:, 2:5]
            )
            # request entirely inside the final block
            np.testing.assert_array_equal(
                reader.assemble_columns(slice(4, 6)), full[:, 4:6]
            )
            # iteration yields only the overlapping slices
            spans = [
                (csl.start, csl.stop, values.shape)
                for _, csl, values in reader.iter_column_blocks(slice(2, 5))
            ]
            assert spans == [(2, 3, (n, 1)), (3, 5, (n, 2))]

    def test_uncovered_columns_raise(self, tmp_path):
        n = 4
        full = np.ones((n, 3))
        path = _write_checkpoint(
            tmp_path / "gap.npz", n, [("a", 0, 3, None, full)]
        )
        with CheckpointReader(path) as reader:
            with pytest.raises(ValueError, match="does not cover"):
                reader.assemble_columns(slice(0, 5))
            with pytest.raises(ValueError, match="does not cover"):
                reader.assemble_columns(slice(10, 12))

    def test_missing_shard_rows_raise(self, tmp_path):
        """Row coverage counts too: a sharded column range where one
        shard's rows are absent is an incomplete checkpoint, not zeros."""
        n = 6
        rows = np.arange(3)  # shard covering half the rows only
        path = _write_checkpoint(
            tmp_path / "rows.npz", n,
            [("shard0", 0, 2, rows, np.ones((3, 2)))],
        )
        with CheckpointReader(path) as reader:
            with pytest.raises(ValueError, match="does not cover"):
                reader.assemble_columns(slice(0, 2))

    def test_mixed_dtype_blocks_promote(self, tmp_path):
        """float16 blocks next to float64 blocks assemble at float64 —
        whichever order the blocks arrive in, no block loses precision."""
        n = 4
        f64 = np.linspace(1.0, 2.0, n * 2).reshape(n, 2)
        f16 = np.linspace(-1.0, 1.0, n * 2).reshape(n, 2).astype(np.float16)
        for order_flip in (False, True):
            blocks = [
                ("lo", 0, 2, None, f16 if order_flip else f64),
                ("hi", 2, 4, None, f64 if order_flip else f16),
            ]
            path = _write_checkpoint(
                tmp_path / f"mixed{order_flip}.npz", n, blocks
            )
            with CheckpointReader(path) as reader:
                out = reader.assemble_columns(slice(0, 4))
                assert out.dtype == np.float64
                lo, hi = (f16, f64) if order_flip else (f64, f16)
                # f16 -> f64 upcast is exact: bit-compare both halves
                np.testing.assert_array_equal(out[:, 0:2], lo.astype(np.float64))
                np.testing.assert_array_equal(out[:, 2:4], hi.astype(np.float64))
