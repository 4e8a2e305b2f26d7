"""Tests for pair generation, the affine warp, IDX parsing, synthetic shapes."""

import math
import re
import struct

import numpy as np
import pytest

from pertsets import pertgen
from pertsets.pertgen import (
    Dataset,
    RtsParams,
    gen_linf_pairs,
    gen_rts_pairs,
    read_idx,
    synth_shapes,
    warp_affine,
)


# ---------------------------------------------------------------------------
# l-infinity pairs


def test_linf_noise_uniform_ks():
    # mid-gray images keep the clamp inactive; noise must be U(-eps, eps)
    rng = np.random.default_rng(0)
    data = Dataset(np.full((40, 50, 50), 0.5, dtype=np.float32))
    pairs = gen_linf_pairs(data, 0.3, rng)
    noise = np.sort((pairs.perturbed - pairs.conditioned).reshape(-1))
    assert noise.size == 100_000
    cdf = (noise + 0.3) / 0.6
    emp = np.arange(1, noise.size + 1) / noise.size
    assert np.abs(emp - cdf).max() < 0.01
    assert np.abs(noise).max() <= 0.3


def test_linf_bounds_and_clamp():
    rng = np.random.default_rng(1)
    data = Dataset(np.zeros((10, 8, 8), dtype=np.float32))
    pairs = gen_linf_pairs(data, 0.3, rng)
    assert pairs.perturbed.min() >= 0.0 and pairs.perturbed.max() <= 0.3 + 1e-6
    np.testing.assert_array_equal(pairs.conditioned, 0.0)


def test_linf_rejects_bad_radius():
    with pytest.raises(ValueError):
        gen_linf_pairs(Dataset(np.zeros((1, 4, 4))), 0.0, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# Affine warp


def oracle_warp(src, canvas, theta, scale, center):
    """Independent per-pixel reimplementation of the documented convention:
    output (i,j) samples the source at R(-theta)/scale @ ((i,j)-center) + src
    center, bilinear with zero padding. Pure python loops, no shared code."""
    h, w = src.shape
    cs_r, cs_c = (h - 1) / 2.0, (w - 1) / 2.0
    ct, st = math.cos(theta), math.sin(theta)
    out = np.zeros((canvas, canvas))
    for i in range(canvas):
        for j in range(canvas):
            dr, dc = i - center[0], j - center[1]
            sr = (ct * dr + st * dc) / scale + cs_r
            sc = (-st * dr + ct * dc) / scale + cs_c
            r0, c0 = math.floor(sr), math.floor(sc)
            fr, fc = sr - r0, sc - c0
            acc = 0.0
            for di, dj, wgt in ((0, 0, (1 - fr) * (1 - fc)), (0, 1, (1 - fr) * fc),
                                (1, 0, fr * (1 - fc)), (1, 1, fr * fc)):
                ri, ci = r0 + di, c0 + dj
                if 0 <= ri < h and 0 <= ci < w:
                    acc += wgt * src[ri, ci]
            out[i, j] = acc
    return out


def test_warp_matches_independent_oracle():
    rng = np.random.default_rng(7)
    for _ in range(5):
        src = rng.uniform(0, 1, (8, 8))
        theta = rng.uniform(-math.pi / 3, math.pi / 3)
        scale = rng.uniform(0.6, 1.4)
        center = (rng.uniform(4, 9), rng.uniform(4, 9))
        got = warp_affine(src[None], 14, [theta], [scale], [center])[0]
        want = oracle_warp(src, 14, theta, scale, center)
        assert np.abs(got - want).max() <= 1e-6


def test_warp_identity_is_exact_padding():
    rng = np.random.default_rng(3)
    src = rng.uniform(0, 1, (6, 6)).astype(np.float32)
    canvas = 10
    out = warp_affine(src[None], canvas, [0.0], [1.0], [((canvas - 1) / 2, (canvas - 1) / 2)])[0]
    want = np.zeros((canvas, canvas), dtype=np.float32)
    want[2:8, 2:8] = src
    np.testing.assert_allclose(out, want, atol=1e-6)


def test_warp_180_on_point_symmetric_source():
    rng = np.random.default_rng(4)
    half = rng.uniform(0, 1, (3, 6))
    src = np.vstack([half, half[::-1, ::-1]])  # src[i,j] == src[-1-i,-1-j]
    center = (6.5, 6.5)
    base = warp_affine(src[None], 14, [0.0], [1.0], [center])[0]
    rot = warp_affine(src[None], 14, [math.pi], [1.0], [center])[0]
    np.testing.assert_allclose(rot, base, atol=1e-6)


def test_warp_preserves_mass_for_interior_rotations():
    rng = np.random.default_rng(5)
    src = rng.uniform(0, 1, (12, 12))
    total = src.sum()
    for theta in (0.3, -0.7, 1.2):
        out = warp_affine(src[None], 36, [theta], [1.0], [(17.5, 17.5)])[0]
        assert abs(out.sum() - total) / total < 0.02


# ---------------------------------------------------------------------------
# RTS pairs


def test_rts_pairs_shapes_and_conditioned_is_centered():
    rng = np.random.default_rng(6)
    data = synth_shapes(8, 12, rng)
    p = RtsParams(rotation=30.0, scale_lo=0.8, scale_hi=1.1, canvas=18)
    pairs = gen_rts_pairs(data, p, rng)
    assert pairs.perturbed.shape == (8, 18 * 18)
    want = warp_affine(data.images[:1], 18, [0.0], [1.0], [(8.5, 8.5)]).reshape(-1)
    np.testing.assert_allclose(pairs.conditioned[0], np.clip(want, 0, 1), atol=1e-6)
    assert pairs.labels is not None


def test_rts_rejects_overflowing_scale():
    data = Dataset(np.zeros((1, 28, 28), dtype=np.float32))
    p = RtsParams(scale_lo=1.0, scale_hi=2.0, canvas=42)
    with pytest.raises(ValueError):
        gen_rts_pairs(data, p, np.random.default_rng(0))


def test_rts_params_validation():
    with pytest.raises(ValueError):
        RtsParams(scale_lo=0.0, scale_hi=1.0)
    with pytest.raises(ValueError):
        RtsParams(rotation=-5.0)


def test_rts_rejects_canvas_without_placement():
    # 0.9 * 10 fits canvas 9, but the outer pixel centres span 0.9 * 9 = 8.1
    # of the 8 between the canvas's outer pixel centres: no centre is valid
    data = Dataset(np.zeros((1, 10, 10), dtype=np.float32))
    p = RtsParams(scale_lo=0.9, scale_hi=0.9, canvas=9)
    with pytest.raises(ValueError, match="no placement"):
        p.check_fits(10)
    with pytest.raises(ValueError, match="no placement"):
        gen_rts_pairs(data, p, np.random.default_rng(0))
    RtsParams(scale_lo=0.9, scale_hi=0.9, canvas=10).check_fits(10)


# ---------------------------------------------------------------------------
# Per-image reference: the generators as one warp or one render per image,
# drawing their numbers in the same order. The blocked package paths must
# match it byte for byte.


def ref_warp_affine(src, canvas, theta, scale, center):
    src = np.asarray(src, dtype=np.float64)
    h, w = src.shape
    cs_r, cs_c = (h - 1) / 2.0, (w - 1) / 2.0
    rows, cols = np.meshgrid(np.arange(canvas, dtype=np.float64),
                             np.arange(canvas, dtype=np.float64), indexing="ij")
    dr = rows - center[0]
    dc = cols - center[1]
    ct, st = math.cos(theta), math.sin(theta)
    sr = (ct * dr + st * dc) / scale + cs_r
    sc = (-st * dr + ct * dc) / scale + cs_c
    r0 = np.floor(sr).astype(np.int64)
    c0 = np.floor(sc).astype(np.int64)
    fr = sr - r0
    fc = sc - c0
    out = np.zeros((canvas, canvas), dtype=np.float64)
    for di, dj, wgt in ((0, 0, (1 - fr) * (1 - fc)), (0, 1, (1 - fr) * fc),
                        (1, 0, fr * (1 - fc)), (1, 1, fr * fc)):
        ri = r0 + di
        ci = c0 + dj
        ok = (ri >= 0) & (ri < h) & (ci >= 0) & (ci < w)
        vals = np.zeros_like(out)
        vals[ok] = src[ri[ok], ci[ok]]
        out += wgt * vals
    return out.astype(np.float32)


def ref_sample_transform(side, p, rng):
    theta = math.radians(rng.uniform(-p.rotation, p.rotation))
    scale = rng.uniform(p.scale_lo, p.scale_hi)
    half = scale * (side - 1) / 2.0
    lo, hi = half, (p.canvas - 1) - half
    center = (rng.uniform(lo, hi), rng.uniform(lo, hi))
    return theta, scale, center


def ref_gen_rts_pairs(data, p, rng):
    n, h, _ = data.images.shape
    xs = np.empty((n, p.canvas * p.canvas), dtype=np.float32)
    ys = np.empty_like(xs)
    centered = ((p.canvas - 1) / 2.0, (p.canvas - 1) / 2.0)
    for i in range(n):
        theta, scale, center = ref_sample_transform(h, p, rng)
        warped = ref_warp_affine(data.images[i], p.canvas, theta, scale, center)
        xs[i] = np.clip(warped, 0.0, 1.0).reshape(-1)
        base = ref_warp_affine(data.images[i], p.canvas, 0.0, 1.0, centered)
        ys[i] = np.clip(base, 0.0, 1.0).reshape(-1)
    return xs, ys


def ref_synth_shapes(n, size, rng):
    images = np.zeros((n, size, size), dtype=np.float32)
    labels = rng.integers(0, 2, size=n)
    rr, cc = np.meshgrid(np.arange(size, dtype=np.float64),
                         np.arange(size, dtype=np.float64), indexing="ij")
    for i in range(n):
        if labels[i] == 1:
            radius = rng.uniform(0.15, 0.28) * size
            cy, cx = rng.uniform(radius + 0.5, size - 1.5 - radius, size=2)
            dist = np.hypot(rr - cy, cc - cx)
            images[i] = np.clip(radius + 0.5 - dist, 0.0, 1.0)
        else:
            len_hi = min(0.4 * size,
                         math.sqrt(((size - 1) / 2) ** 2 - (0.08 * size + 0.5) ** 2) - 0.5)
            half_len = rng.uniform(0.25 * size, len_hi)
            half_th = rng.uniform(0.04, 0.08) * size
            angle = rng.uniform(0.0, math.pi)
            ca, sa = math.cos(angle), math.sin(angle)
            margin = abs(ca) * (half_len + 0.5) + abs(sa) * (half_th + 0.5)
            margin_c = abs(sa) * (half_len + 0.5) + abs(ca) * (half_th + 0.5)
            cy = rng.uniform(margin, size - 1 - margin)
            cx = rng.uniform(margin_c, size - 1 - margin_c)
            a = (rr - cy) * ca + (cc - cx) * sa
            b = -(rr - cy) * sa + (cc - cx) * ca
            images[i] = (np.clip(half_len + 0.5 - np.abs(a), 0, 1) *
                         np.clip(half_th + 0.5 - np.abs(b), 0, 1)).astype(np.float32)
    return images, labels


def _same_bytes(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def test_stacked_warp_matches_per_image_reference():
    rng = np.random.default_rng(8)
    src = rng.uniform(0, 1, (5, 9, 9)).astype(np.float32)
    theta = rng.uniform(-math.pi, math.pi, 5)
    scale = rng.uniform(0.5, 1.5, 5)
    center = rng.uniform(2, 12, (5, 2))
    got = warp_affine(src, 15, theta, scale, center)
    for i in range(5):
        assert _same_bytes(got[i], ref_warp_affine(src[i], 15, theta[i], scale[i], center[i]))
    # one transform broadcast over the stack
    shared = warp_affine(src, 15, [theta[0]], [scale[0]], [center[0]])
    for i in range(5):
        assert _same_bytes(shared[i], ref_warp_affine(src[i], 15, theta[0], scale[0], center[0]))


@pytest.mark.parametrize("side, canvas", [(12, 16), (28, 42)])
def test_blocked_rts_pairs_match_per_image_reference(side, canvas):
    p = RtsParams(rotation=45.0, scale_lo=0.7, scale_hi=1.3, canvas=canvas)
    block = pertgen._block_images(canvas * canvas)
    for n in (1, block - 1, block, block + 1):
        images, labels = ref_synth_shapes(n, side, np.random.default_rng(n))
        got_rng, want_rng = np.random.default_rng(100 + n), np.random.default_rng(100 + n)
        got = gen_rts_pairs(Dataset(images, labels), p, got_rng)
        want_x, want_y = ref_gen_rts_pairs(Dataset(images, labels), p, want_rng)
        assert _same_bytes(got.perturbed, want_x), n
        assert _same_bytes(got.conditioned, want_y), n
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("size", [12, 28])
def test_blocked_synth_shapes_match_per_image_reference(size):
    # shapes render per class in blocks, so 3 blocks of images also cross a
    # block boundary within each class
    block = pertgen._block_images(size * size)
    for n in (1, block - 1, block, block + 1, 3 * block):
        got_rng, want_rng = np.random.default_rng(n), np.random.default_rng(n)
        got = synth_shapes(n, size, got_rng)
        want_images, want_labels = ref_synth_shapes(n, size, want_rng)
        assert _same_bytes(got.images, want_images), n
        assert _same_bytes(got.labels, want_labels), n
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("block_pixels", [1, 1 << 30])
def test_block_size_never_changes_bytes(monkeypatch, block_pixels):
    def generate():
        data = synth_shapes(150, 12, np.random.default_rng(3))
        pairs = gen_rts_pairs(data, RtsParams(canvas=16, scale_hi=1.2), np.random.default_rng(4))
        return data.images, pairs.perturbed, pairs.conditioned

    default = generate()
    monkeypatch.setattr(pertgen, "_BLOCK_PIXELS", block_pixels)
    for got, want in zip(generate(), default):
        assert _same_bytes(got, want)


# ---------------------------------------------------------------------------
# IDX parsing


def idx_image_bytes(dims, payload):
    return struct.pack(f">i{len(dims)}i", 0x00000803, *dims) + bytes(payload)


def test_read_idx_images_crafted(tmp_path):
    path = tmp_path / "img.idx"
    path.write_bytes(idx_image_bytes((1, 2, 2), [0, 255, 128, 0]))
    arr = read_idx(str(path))
    assert arr.shape == (1, 2, 2) and arr.dtype == np.float32
    np.testing.assert_allclose(arr.reshape(-1), [0.0, 1.0, 128 / 255, 0.0], rtol=1e-6)


def test_read_idx_labels_crafted(tmp_path):
    path = tmp_path / "lab.idx"
    path.write_bytes(struct.pack(">ii", 0x00000801, 3) + bytes([7, 0, 9]))
    arr = read_idx(str(path))
    assert arr.dtype == np.int64
    np.testing.assert_array_equal(arr, [7, 0, 9])


def test_read_idx_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.idx"
    path.write_bytes(struct.pack(">i", 0x12345678))
    with pytest.raises(ValueError, match="magic"):
        read_idx(str(path))


def test_read_idx_rejects_truncation(tmp_path):
    path = tmp_path / "short.idx"
    path.write_bytes(idx_image_bytes((2, 2, 2), [1, 2, 3]))  # 8 expected, 3 given
    with pytest.raises(ValueError, match="byte"):
        read_idx(str(path))
    path2 = tmp_path / "short2.idx"
    path2.write_bytes(struct.pack(">i", 0x00000803) + b"\x00\x00")
    with pytest.raises(ValueError):
        read_idx(str(path2))
    # dimensions are unsigned: -2 reads as 4294967294, far more than 8 bytes
    path3 = tmp_path / "huge.idx"
    path3.write_bytes(idx_image_bytes((2, -2, -2), [0] * 8))
    with pytest.raises(ValueError, match=re.escape(
            f"{path3}: expected {2 * (2 ** 32 - 2) ** 2} data bytes after byte 16, found 8")):
        read_idx(str(path3))


# ---------------------------------------------------------------------------
# Synthetic shapes


def test_synth_shapes_balance_and_range():
    rng = np.random.default_rng(11)
    data = synth_shapes(10_000, 16, rng)
    frac = data.labels.mean()
    assert 0.45 <= frac <= 0.55
    assert data.images.min() >= 0.0 and data.images.max() <= 1.0
    # every image has visible content
    assert (data.images.reshape(len(data), -1).max(axis=1) > 0.5).all()


def test_synth_shapes_fit_inside_frame():
    # also the smallest sizes over many seeds: at sizes 8-11 a long bar at a
    # diagonal angle has the least room
    cases = [(300, 14, 12)] + [(50, size, seed) for size in (8, 9, 10, 11)
                               for seed in range(150)]
    for n, size, seed in cases:
        data = synth_shapes(n, size, np.random.default_rng(seed))
        border = np.concatenate([data.images[:, 0, :].ravel(), data.images[:, -1, :].ravel(),
                                 data.images[:, :, 0].ravel(), data.images[:, :, -1].ravel()])
        assert border.max() == 0.0, (size, seed)


def test_synth_shapes_deterministic():
    a = synth_shapes(20, 12, np.random.default_rng(5))
    b = synth_shapes(20, 12, np.random.default_rng(5))
    np.testing.assert_array_equal(a.images, b.images)
    np.testing.assert_array_equal(a.labels, b.labels)


def test_synth_shapes_classes_differ():
    rng = np.random.default_rng(13)
    data = synth_shapes(400, 16, rng)
    bars = data.images[data.labels == 0]
    disks = data.images[data.labels == 1]
    # disks are fatter: mean activated area differs clearly
    bar_area = (bars > 0.5).mean(axis=(1, 2)).mean()
    disk_area = (disks > 0.5).mean(axis=(1, 2)).mean()
    assert disk_area > 1.5 * bar_area


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.zeros((4, 4)))
    with pytest.raises(ValueError):
        Dataset(np.zeros((4, 4, 4)), labels=np.zeros(3))
