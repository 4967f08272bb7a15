"""Scenes: bad sizes are rejected, and culling each primitive to its screen window renders
the scenes a whole-frame ray cast does, bit for bit.
Dataset files: one record whose samples read back in index order; d_max is shared and
validated on read, the arrays must be exactly <i>.image and <i>.depth; writes replace what
was there whole or not at all.
Augmentation flips image and depth together and swaps image channels only."""

import re

import numpy as np
import pytest

from guidedepth import data as D
from guidedepth import gdt
from guidedepth.tensor import Tensor


@pytest.mark.parametrize(
    "kw, message",
    [
        (dict(height=0), "height must be an integer >= 1, got 0"),
        (dict(width=-8), "width must be an integer >= 1, got -8"),
        (dict(height=2.5), "height must be an integer >= 1, got 2.5"),
    ],
    ids=["zero-height", "negative-width", "float-height"],
)
def test_scene_spec_rejects_bad_sizes_naming_field_and_value(kw, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        D.generate_scene(0, **kw)


CULL_CASES = {
    "default-96x128": ({}, {}),
    "default-64x208": (dict(height=64, width=208), {}),
    # the middle ray column has x = 0 (the slab test divides by zero) and the middle row y = 0
    "odd-size": (dict(height=25, width=33), {}),
    "boxes-reach-the-camera": ({}, dict(Z_RANGE=(0.0, 0.2), D_MIN=0.1, SIZE_RANGE=(0.2, 0.5))),
    "windows-cover-the-frame": ({}, dict(SIZE_RANGE=(0.3, 0.6))),
    "no-primitives": ({}, dict(N_PRIMITIVES=0)),
}


@pytest.mark.parametrize("size, constants", CULL_CASES.values(), ids=CULL_CASES.keys())
def test_culled_scenes_equal_whole_frame_scenes(monkeypatch, size, constants):
    for name, value in constants.items():
        monkeypatch.setattr(D, name, value)
    culled = [D.generate_scene(seed, **size) for seed in range(8)]
    monkeypatch.setattr(D, "_window", lambda rays, lo, hi: np.s_[:, :])
    for seed, sample in enumerate(culled):
        whole = D.generate_scene(seed, **size)
        assert np.array_equal(sample.image.data, whole.image.data)
        assert np.array_equal(sample.depth.data, whole.depth.data)


def test_window_holds_every_hit_and_is_the_frame_for_a_box_reaching_the_camera():
    rays = D._view_rays(96, 128)
    lo, hi = np.array([0.3, -0.2, 4.0]), np.array([0.9, 0.1, 5.0])
    inside = np.zeros((96, 128), dtype=bool)
    inside[D._window(rays, lo, hi)] = True
    _, _, hit = D._hit_box(rays, lo, hi)
    assert hit.any() and not (hit & ~inside).any()
    assert inside.sum() < 0.01 * inside.size
    assert D._window(rays, lo - [0.0, 0.0, 4.0], hi) == np.s_[:, :]


def test_view_rays_are_shared_read_only_and_left_unchanged():
    rays = D._view_rays(16, 24)
    before = rays.copy()
    with pytest.raises(ValueError, match="read-only"):
        rays[0, 0, 0] = 1.0
    for seed in (3, 4):
        D.generate_scene(seed, height=16, width=24)
        assert D._view_rays(16, 24) is rays
    assert np.array_equal(rays, before)


def test_sample_with_a_four_channel_image_rejected():
    with pytest.raises(ValueError, match=re.escape("DepthSample: image must be (1, 3, h, w), got (1, 4, 6, 8)")):
        D.DepthSample(Tensor(np.zeros((1, 4, 6, 8))), Tensor(np.ones((1, 1, 6, 8))), D.D_MAX)


def test_sample_with_a_depth_of_another_size_rejected():
    message = "DepthSample: depth (1, 1, 6, 7) does not match image (1, 3, 6, 8)"
    with pytest.raises(ValueError, match=re.escape(message)):
        D.DepthSample(Tensor(np.zeros((1, 3, 6, 8))), Tensor(np.ones((1, 1, 6, 7))), D.D_MAX)


@pytest.mark.parametrize("d_max", [-1.0, 0.0, float("inf"), float("nan")])
def test_sample_with_a_d_max_not_finite_and_positive_rejected(d_max):
    """``write_dataset`` would write such a sample and ``read_dataset`` refuse it,
    and ``evaluate`` would score it against a depth cap that means nothing."""
    with pytest.raises(ValueError, match=re.escape(f"DepthSample: d_max must be finite and > 0, got {d_max}")):
        D.DepthSample(Tensor(np.zeros((1, 3, 6, 8))), Tensor(np.ones((1, 1, 6, 8))), d_max)


def _dataset(directory, seeds=(3, 4)):
    samples = [D.generate_scene(s, height=16, width=24) for s in seeds]
    D.write_dataset(directory, samples)
    return samples


def _same(back, samples):
    return len(back) == len(samples) and all(
        b.image.data.tobytes() == s.image.data.tobytes()
        and b.depth.data.tobytes() == s.depth.data.tobytes()
        and b.d_max == s.d_max
        for b, s in zip(back, samples)
    )


def test_sample_roundtrip_bitwise(tmp_path):
    samples = _dataset(tmp_path / "ds")
    assert _same(D.read_dataset(tmp_path / "ds"), samples)


def test_samples_read_back_in_index_order(tmp_path):
    """Twelve samples: in string order 10 and 11 would come before 2."""
    samples = _dataset(tmp_path / "ds", seeds=range(12))
    assert _same(D.read_dataset(tmp_path / "ds"), samples)


def test_mixed_d_max_refused(tmp_path):
    first, second = _dataset(tmp_path / "ds")
    second.d_max = 20.0
    with pytest.raises(ValueError, match=r"one d_max, the samples have \[10.0, 20.0\]"):
        D.write_dataset(tmp_path / "ds", [first, second])
    assert [s.d_max for s in D.read_dataset(tmp_path / "ds")] == [10.0, 10.0]


@pytest.mark.parametrize(
    "meta",
    [
        "",
        "d_max = nan\n",
        "d_max = inf\n",
        "d_max = 0.0\n",
        "d_max = -2\n",
        "d_max = ten\n",
        "d_max = 10.0\nd_max: 5\n",
        "d_max = 10.0\nd_max = 20.0\n",
    ],
)
def test_bad_d_max_rejected_naming_meta_file(tmp_path, meta):
    _dataset(tmp_path / "ds")
    (tmp_path / "ds" / "meta").write_text(meta)
    with pytest.raises(ValueError, match="d_max") as info:
        D.read_dataset(tmp_path / "ds")
    assert str(tmp_path / "ds" / "meta") in str(info.value)


def test_sample_layout(tmp_path):
    _dataset(tmp_path / "ds")
    names = ["0.depth.gdt", "0.image.gdt", "1.depth.gdt", "1.image.gdt", "meta"]
    assert sorted(p.name for p in (tmp_path / "ds").iterdir()) == names
    assert (tmp_path / "ds" / "meta").read_text() == "d_max = 10.0\n"


def test_sample_missing_array_named(tmp_path):
    _dataset(tmp_path / "ds")
    (tmp_path / "ds" / "1.depth.gdt").unlink()
    with pytest.raises(ValueError, match=re.escape("missing ['1.depth'], extra []")) as info:
        D.read_dataset(tmp_path / "ds")
    assert str(tmp_path / "ds") in str(info.value)


@pytest.mark.parametrize("name", ["0.mask", "01.depth", "image"])
def test_extra_array_named(tmp_path, name):
    _dataset(tmp_path / "ds")
    gdt.write_array(tmp_path / "ds" / f"{name}.gdt", np.zeros((1, 1, 16, 24), np.float32))
    with pytest.raises(ValueError, match=re.escape(repr(name))):
        D.read_dataset(tmp_path / "ds")


def test_sample_of_mismatched_sizes_named(tmp_path):
    _dataset(tmp_path / "ds")
    gdt.write_array(tmp_path / "ds" / "1.depth.gdt", np.ones((1, 1, 8, 24), np.float32))
    with pytest.raises(ValueError, match="sample 1 has no image and depth of one size"):
        D.read_dataset(tmp_path / "ds")


def test_failed_write_sample_keeps_earlier_sample(tmp_path, monkeypatch):
    old = _dataset(tmp_path / "ds")
    write, calls = gdt.write_array, []

    def failing_write(path, arr):
        calls.append(path)
        if len(calls) == 3:
            raise OSError("disk full")
        write(path, arr)

    monkeypatch.setattr(gdt, "write_array", failing_write)
    with pytest.raises(OSError, match="disk full"):
        _dataset(tmp_path / "ds", seeds=(5, 6))
    monkeypatch.undo()
    assert _same(D.read_dataset(tmp_path / "ds"), old)
    assert [p.name for p in tmp_path.iterdir()] == ["ds"]


def test_read_dataset_skips_hidden_directories(tmp_path):
    samples = _dataset(tmp_path)
    (tmp_path / ".ipynb_checkpoints").mkdir()
    gdt.write_array(tmp_path / ".2.image.gdt", np.zeros((1, 3, 16, 24), np.float32))
    assert _same(D.read_dataset(tmp_path), samples)


def test_read_dataset_directory_without_meta_named(tmp_path):
    _dataset(tmp_path / "ds")
    (tmp_path / "ds" / "meta").unlink()
    with pytest.raises(FileNotFoundError) as info:
        D.read_dataset(tmp_path / "ds")
    assert str(tmp_path / "ds" / "meta") in str(info.value)


def test_write_dataset_replaces_a_larger_one(tmp_path):
    _dataset(tmp_path / "ds", seeds=range(4))
    samples = _dataset(tmp_path / "ds")
    assert _same(D.read_dataset(tmp_path / "ds"), samples)
    assert len(list((tmp_path / "ds").iterdir())) == 5
    assert [p.name for p in tmp_path.iterdir()] == ["ds"]


def test_write_dataset_rejects_no_samples(tmp_path):
    with pytest.raises(ValueError) as info:
        D.write_dataset(tmp_path / "ds", [])
    assert str(tmp_path / "ds") in str(info.value)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("entry", ["file", "directory"])
def test_write_dataset_refuses_directory_with_other_entries(tmp_path, entry):
    _dataset(tmp_path / "ds")
    stray = tmp_path / "ds" / "notes"
    if entry == "file":
        stray.write_text("keep me")
    else:
        stray.mkdir()
    with pytest.raises(FileExistsError, match="ds"):
        _dataset(tmp_path / "ds")
    assert stray.exists()
    names = ["0.depth.gdt", "0.image.gdt", "1.depth.gdt", "1.image.gdt", "meta", "notes"]
    assert sorted(p.name for p in (tmp_path / "ds").iterdir()) == names


def _random_sample(seed=0):
    rng = np.random.default_rng(seed)
    return D.DepthSample(
        image=Tensor(rng.uniform(0.0, 1.0, (1, 3, 6, 8)).astype(np.float32)),
        depth=Tensor(rng.uniform(1.0, 9.0, (1, 1, 6, 8)).astype(np.float32)),
        d_max=9.5,
    )


def _flip_and_perm(sample, out):
    """Whether ``out`` is mirrored, and which source channel each output image channel holds."""
    flipped = np.array_equal(out.depth.data, sample.depth.data[..., ::-1])
    assert flipped or np.array_equal(out.depth.data, sample.depth.data)
    src = sample.image.data[..., ::-1] if flipped else sample.image.data
    perm = tuple(k for c in range(3) for k in range(3) if np.array_equal(out.image.data[0, c], src[0, k]))
    assert sorted(perm) == [0, 1, 2]
    return flipped, perm


class TestAugment:
    def test_flip_is_shared_and_swap_touches_only_the_image(self):
        sample = _random_sample()
        seen = {_flip_and_perm(sample, D.augment(sample, np.random.default_rng(seed))) for seed in range(64)}
        assert {flipped for flipped, _ in seen} == {False, True}
        assert {perm == (0, 1, 2) for _, perm in seen} == {False, True}

    def test_outputs_contiguous_input_unchanged_d_max_kept(self):
        sample = _random_sample()
        image, depth = sample.image.data.copy(), sample.depth.data.copy()
        for seed in range(32):
            out = D.augment(sample, np.random.default_rng(seed))
            assert out.image.data.flags.c_contiguous and out.depth.data.flags.c_contiguous
            assert out.d_max == sample.d_max
        assert np.array_equal(sample.image.data, image)
        assert np.array_equal(sample.depth.data, depth)
