"""Sample and dataset files: d_max is validated on read; hidden directories are not samples."""

import pytest

from guidedepth import data as D


def test_sample_roundtrip_bitwise(tmp_path):
    sample = D.generate_scene(D.SceneSpec(seed=3, height=16, width=24))
    D.write_sample(tmp_path / "s", sample)
    back = D.read_sample(tmp_path / "s")
    assert (back.image.data == sample.image.data).all()
    assert (back.depth.data == sample.depth.data).all()
    assert back.d_max == sample.d_max


@pytest.mark.parametrize("meta", ["", "d_max = nan\n", "d_max = inf\n", "d_max = 0.0\n", "d_max = -2\n", "d_max = ten\n"])
def test_bad_d_max_rejected_naming_meta_file(tmp_path, meta):
    D.write_sample(tmp_path / "s", D.generate_scene(D.SceneSpec(seed=3, height=16, width=24)))
    (tmp_path / "s" / "meta").write_text(meta)
    with pytest.raises(ValueError, match="d_max") as info:
        D.read_sample(tmp_path / "s")
    assert str(tmp_path / "s" / "meta") in str(info.value)


def _two_sample_dataset(directory):
    samples = [D.generate_scene(D.SceneSpec(seed=s, height=16, width=24)) for s in (3, 4)]
    D.write_dataset(directory, samples)
    return samples


def test_read_dataset_skips_hidden_directories(tmp_path):
    samples = _two_sample_dataset(tmp_path)
    (tmp_path / ".ipynb_checkpoints").mkdir()
    back = D.read_dataset(tmp_path)
    assert len(back) == 2
    assert all((b.depth.data == s.depth.data).all() for b, s in zip(back, samples))


def test_read_dataset_directory_without_meta_named(tmp_path):
    _two_sample_dataset(tmp_path)
    (tmp_path / "stray").mkdir()
    with pytest.raises(FileNotFoundError) as info:
        D.read_dataset(tmp_path)
    assert str(tmp_path / "stray") in str(info.value)
