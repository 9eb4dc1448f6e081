"""Round-trip tests for model / trace persistence."""

import numpy as np
import pytest

from repro import io
from repro.datasets import WorkloadTrace, get_scene, synthesize_trace
from repro.gaussians import GaussianModel, layout


def make_model(n=12, seed=0):
    rng = np.random.default_rng(seed)
    return GaussianModel(rng.normal(size=(n, layout.PARAM_DIM)))


class TestNpz:
    def test_roundtrip(self, tmp_path):
        m = make_model()
        path = str(tmp_path / "model.npz")
        io.save_model(path, m)
        loaded = io.load_model(path)
        np.testing.assert_array_equal(loaded.params, m.params)

    def test_wrong_file_rejected(self, tmp_path):
        path = str(tmp_path / "junk.npz")
        np.savez(path, other=np.zeros(3))
        with pytest.raises(ValueError):
            io.load_model(path)


class TestPly:
    def test_roundtrip(self, tmp_path):
        m = make_model(n=7, seed=1)
        path = str(tmp_path / "scene.ply")
        io.export_ply(path, m)
        loaded = io.import_ply(path)
        np.testing.assert_allclose(loaded.params, m.params, rtol=1e-6)

    def test_single_gaussian(self, tmp_path):
        m = make_model(n=1, seed=2)
        path = str(tmp_path / "one.ply")
        io.export_ply(path, m)
        loaded = io.import_ply(path)
        assert loaded.num_gaussians == 1
        np.testing.assert_allclose(loaded.params, m.params, rtol=1e-6)

    def test_header_layout(self, tmp_path):
        m = make_model(n=2)
        path = str(tmp_path / "h.ply")
        io.export_ply(path, m)
        with open(path) as fh:
            text = fh.read()
        assert "element vertex 2" in text
        assert "property float f_dc_0" in text
        assert "property float f_rest_44" in text
        assert "property float rot_3" in text
        # 59 float properties total per vertex
        assert text.count("property float") == layout.PARAM_DIM

    def test_not_ply_rejected(self, tmp_path):
        path = tmp_path / "x.ply"
        path.write_text("hello\n")
        with pytest.raises(ValueError):
            io.import_ply(str(path))

    def test_renders_identically_after_roundtrip(self, tmp_path):
        """A round-tripped model must produce the same image."""
        from repro.cameras import Camera
        from repro.render import render

        rng = np.random.default_rng(3)
        m = GaussianModel.from_point_cloud(
            rng.uniform(-1, 1, (30, 3)), rng.uniform(0, 1, (30, 3)),
            dtype=np.float64,
        )
        cam = Camera.look_at([0, -3, 0.5], [0, 0, 0], width=24, height=18)
        path = str(tmp_path / "r.ply")
        io.export_ply(path, m)
        m2 = io.import_ply(path)
        img1 = render(m, cam).image
        img2 = render(m2, cam).image
        np.testing.assert_allclose(img1, img2, atol=1e-6)


class TestTrace:
    def test_roundtrip(self, tmp_path):
        trace = synthesize_trace(get_scene("rubble"), num_views=20, seed=5)
        path = str(tmp_path / "trace.json")
        io.save_trace(path, trace)
        loaded = io.load_trace(path)
        assert loaded.scene_name == trace.scene_name
        assert loaded.total_gaussians == trace.total_gaussians
        np.testing.assert_allclose(loaded.active_ratios, trace.active_ratios)

    def test_loaded_trace_usable_in_sim(self, tmp_path):
        from repro.sim import get_platform, simulate_epoch

        trace = WorkloadTrace("t", 1_000_000, np.array([0.1, 0.2]))
        path = str(tmp_path / "t.json")
        io.save_trace(path, trace)
        loaded = io.load_trace(path)
        res = simulate_epoch(
            get_platform("laptop_4070m"), loaded, "gsscale", 1_000_000
        )
        assert not res.oom
