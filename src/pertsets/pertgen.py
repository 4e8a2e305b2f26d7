"""Perturbation-pair generation: noise and geometric transforms over image
corpora, IDX file parsing, and a synthetic shape generator used when no real
corpus is available.
"""

import math
import struct
from dataclasses import dataclass

import numpy as np

from .cvae import PairSet


@dataclass
class Dataset:
    """Image corpus: (N, H, W) float32 pixels in [0, 1], optional int labels."""

    images: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=np.float32)
        if self.images.ndim != 3:
            raise ValueError(f"images must be (N, H, W), got shape {self.images.shape}")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if len(self.labels) != len(self.images):
                raise ValueError("labels length does not match images")

    def __len__(self):
        return self.images.shape[0]


# ---------------------------------------------------------------------------
# l-infinity noise pairs


def gen_linf_pairs(data: Dataset, eps: float, rng: np.random.Generator) -> PairSet:
    """Pairs whose perturbed member adds uniform noise in [-eps, eps] per
    pixel, clamped back to [0, 1]; the conditioned member is the clean
    image."""
    if eps <= 0:
        raise ValueError(f"noise radius must be positive, got {eps}")
    n, h, w = data.images.shape
    flat = data.images.reshape(n, h * w)
    noisy = np.clip(flat + rng.uniform(-eps, eps, size=flat.shape).astype(np.float32), 0.0, 1.0)
    return PairSet(noisy, flat.copy(), data.labels)


# ---------------------------------------------------------------------------
# Rotation / translation / scale pairs


@dataclass
class RtsParams:
    """Transform ranges for rotation-translation-scale pairs.

    rotation in degrees (symmetric range), scale multiplicative, canvas the
    output side length. The canvas must fit the scaled source axis-aligned
    extent so a placement region exists.
    """

    rotation: float = 45.0
    scale_lo: float = 0.7
    scale_hi: float = 1.3
    canvas: int = 42

    def __post_init__(self):
        if not 0 < self.scale_lo <= self.scale_hi:
            raise ValueError("scale range must be positive and ordered")
        if self.rotation < 0:
            raise ValueError("rotation range must be non-negative")

    def check_fits(self, side: int):
        """The canvas holds a side x side source at the largest scale, and
        leaves its centre a placement range: the scaled span between the
        outer pixel centres, scale_hi * (side - 1), fits in canvas - 1."""
        if self.scale_hi * side > self.canvas:
            raise ValueError(
                f"canvas {self.canvas} smaller than scaled source extent "
                f"{self.scale_hi * side:.1f}")
        if self.scale_hi * (side - 1) > self.canvas - 1:
            raise ValueError(
                f"canvas {self.canvas} leaves no placement: the scaled source's pixel "
                f"centres span {self.scale_hi * (side - 1):g} > {self.canvas - 1}")


# Output pixels one array pass warps or renders: a block's temporaries stay
# a few MiB whatever the image count. The block size never changes a byte.
_BLOCK_PIXELS = 1 << 14


def _block_images(pixels_per_image: int) -> int:
    return max(1, _BLOCK_PIXELS // pixels_per_image)


# Zero border around each source image in `_bilinear_sample`: a corner
# index clamped onto it reads zero, as every corner outside the source must.
_PAD = 2


def _bilinear_taps(h: int, w: int, canvas: int, theta, scale, center):
    """Where every canvas pixel reads an h x w source, for t transforms:
    the flat index of its top-left bilinear corner in the source padded by
    _PAD, and the weights of its four corners (top-left, top-right,
    bottom-left, bottom-right), each a (t, canvas * canvas) array. theta
    and scale are (t,), center (t, 2)."""
    theta = np.atleast_1d(np.asarray(theta, dtype=np.float64))
    scale = np.atleast_1d(np.asarray(scale, dtype=np.float64))[:, None]
    center = np.asarray(center, dtype=np.float64).reshape(-1, 2)
    # math.cos/sin, not np.cos/sin: numpy's SIMD loops need not round like libm
    ct = np.array([math.cos(t) for t in theta])[:, None]
    st = np.array([math.sin(t) for t in theta])[:, None]
    pix = np.arange(canvas * canvas)
    dr = (pix // canvas).astype(np.float64) - center[:, :1]
    dc = (pix % canvas).astype(np.float64) - center[:, 1:]
    sr = (ct * dr + st * dc) / scale + (h - 1) / 2.0
    sc = (-st * dr + ct * dc) / scale + (w - 1) / 2.0
    r0, c0 = np.floor(sr), np.floor(sc)
    fr, fc = sr - r0, sc - c0
    gr, gc = 1 - fr, 1 - fc
    # a corner pair wholly off one side lands on the border's two zeros
    r0 = np.clip(r0, -_PAD, h).astype(np.intp) + _PAD
    c0 = np.clip(c0, -_PAD, w).astype(np.intp) + _PAD
    return r0 * (w + 2 * _PAD) + c0, (gr * gc, gr * fc, fr * gc, fr * fc)


def _bilinear_sample(src: np.ndarray, taps) -> np.ndarray:
    """(n, pixels) float32: the stack src (n, h, w) read through taps with
    one row per image, or one row that every image shares."""
    n, h, w = src.shape
    wide = w + 2 * _PAD
    padded = np.zeros((n, h + 2 * _PAD, wide))
    padded[:, _PAD:_PAD + h, _PAD:_PAD + w] = src
    corner, weights = taps
    index = np.arange(n)[:, None] * padded[0].size + corner
    flat = padded.reshape(-1)
    out = np.zeros(index.shape)
    for offset, wgt in zip((0, 1, wide, wide + 1), weights):
        out += wgt * flat[offset:][index]
    return out.astype(np.float32)


def warp_affine(src: np.ndarray, canvas: int, theta, scale, center) -> np.ndarray:
    """Rotate each image of the stack src (n, h, w) by its theta (radians)
    and scale it about its own center, then place that center at its
    `center` (row, col) in a canvas x canvas image.

    theta and scale are (n,) and center (n, 2), or one transform for every
    image. Inverse-mapped bilinear sampling with zero padding; pixel (i, j)
    reads the source at R(-theta)/scale applied to (i, j) - center, plus the
    source center. Returns (n, canvas, canvas) float32.
    """
    src = np.asarray(src)
    n, h, w = src.shape
    taps = _bilinear_taps(h, w, canvas, theta, scale, center)
    return _bilinear_sample(src, taps).reshape(n, canvas, canvas)


def _sample_transform(side: int, p: RtsParams, rng: np.random.Generator):
    """(theta, scale, centre row, centre col) of one random transform;
    `check_fits` leaves every scale a placement range."""
    theta = math.radians(rng.uniform(-p.rotation, p.rotation))
    scale = rng.uniform(p.scale_lo, p.scale_hi)
    half = scale * (side - 1) / 2.0
    lo, hi = half, (p.canvas - 1) - half
    return theta, scale, rng.uniform(lo, hi), rng.uniform(lo, hi)


def gen_rts_pairs(data: Dataset, p: RtsParams, rng: np.random.Generator) -> PairSet:
    """Pairs whose perturbed member is a random rotation/translation/scale of
    the square source, rendered into a canvas; the conditioned member is the
    source centered at scale 1 without rotation."""
    n, h, w = data.images.shape
    p.check_fits(h)
    # every image's transform first, in image order
    draws = np.array([_sample_transform(h, p, rng) for _ in range(n)]).reshape(n, 4)
    centre = (p.canvas - 1) / 2.0
    centered = _bilinear_taps(h, w, p.canvas, 0.0, 1.0, (centre, centre))
    xs = np.empty((n, p.canvas * p.canvas), dtype=np.float32)
    ys = np.empty_like(xs)
    step = _block_images(xs.shape[1])
    for lo in range(0, n, step):
        src, d = data.images[lo:lo + step], draws[lo:lo + step]
        warped = warp_affine(src, p.canvas, d[:, 0], d[:, 1], d[:, 2:])
        xs[lo:lo + step] = warped.reshape(len(src), -1)
        ys[lo:lo + step] = _bilinear_sample(src, centered)
    np.clip(xs, 0.0, 1.0, out=xs)
    np.clip(ys, 0.0, 1.0, out=ys)
    return PairSet(xs, ys, data.labels)


# ---------------------------------------------------------------------------
# IDX files


_IDX_IMAGES = 0x00000803
_IDX_LABELS = 0x00000801


def read_idx(path: str) -> np.ndarray:
    """Parse an IDX file: unsigned-byte images (magic 0x803) scaled to [0, 1]
    float32 (N, H, W), or labels (magic 0x801) as int64 (N,).

    Malformed files raise ValueError naming the byte offset of the problem.
    """
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < 4:
        raise ValueError(f"{path}: truncated header at byte 0")
    magic = struct.unpack(">i", raw[:4])[0]
    if magic == _IDX_IMAGES:
        ndim = 3
    elif magic == _IDX_LABELS:
        ndim = 1
    else:
        raise ValueError(f"{path}: unrecognized magic 0x{magic:08x} at byte 0")
    header = 4 + 4 * ndim
    if len(raw) < header:
        raise ValueError(f"{path}: truncated dimension table at byte {len(raw)}")
    dims = struct.unpack(f">{ndim}I", raw[4:header])
    count = math.prod(dims)
    if len(raw) - header != count:
        raise ValueError(
            f"{path}: expected {count} data bytes after byte {header}, found {len(raw) - header}")
    data = np.frombuffer(raw, dtype=np.uint8, offset=header).reshape(dims)
    if magic == _IDX_IMAGES:
        return data.astype(np.float32) / 255.0
    return data.astype(np.int64)


# ---------------------------------------------------------------------------
# Synthetic corpus


def synth_shapes(n: int, size: int, rng: np.random.Generator) -> Dataset:
    """Randomly placed anti-aliased shapes: class 0 bars, class 1 disks.

    Shapes are placed fully inside the frame so the images can also serve as
    sources for the geometric pair generator. Deterministic given the rng
    state; classes drawn independently per example.
    """
    if size < 8:
        raise ValueError(f"size must be at least 8, got {size}")
    labels = rng.integers(0, 2, size=n)
    # every image's shape first, in per-image draw order
    disks, bars = [], []
    # the longest bar that fits the frame at every angle: the corner of its
    # support, (half_len + 0.5, half_th + 0.5) from its centre, stays within
    # (size - 1) / 2 of the centre
    len_hi = min(0.4 * size, math.sqrt(((size - 1) / 2) ** 2 - (0.08 * size + 0.5) ** 2) - 0.5)
    for label in labels:
        if label == 1:
            radius = rng.uniform(0.15, 0.28) * size
            # soft edge adds 0.5 to the support; keep it off the border
            cy, cx = rng.uniform(radius + 0.5, size - 1.5 - radius, size=2)
            disks.append((radius, cy, cx))
        else:
            half_len = rng.uniform(0.25 * size, len_hi)
            half_th = rng.uniform(0.04, 0.08) * size
            angle = rng.uniform(0.0, math.pi)
            ca, sa = math.cos(angle), math.sin(angle)
            margin = abs(ca) * (half_len + 0.5) + abs(sa) * (half_th + 0.5)
            margin_c = abs(sa) * (half_len + 0.5) + abs(ca) * (half_th + 0.5)
            cy = rng.uniform(margin, size - 1 - margin)
            cx = rng.uniform(margin_c, size - 1 - margin_c)
            bars.append((half_len, half_th, ca, sa, cy, cx))
    images = np.empty((n, size, size), dtype=np.float32)
    rr, cc = np.meshgrid(np.arange(size, dtype=np.float64),
                         np.arange(size, dtype=np.float64), indexing="ij")
    step = _block_images(size * size)
    for label, shapes, render in ((1, disks, _render_disks), (0, bars, _render_bars)):
        index = np.flatnonzero(labels == label)
        for lo in range(0, len(index), step):
            # one (block, 1, 1) array per shape parameter
            params = np.array(shapes[lo:lo + step]).T[:, :, None, None]
            images[index[lo:lo + step]] = render(rr, cc, *params)
    return Dataset(images, labels)


def _render_disks(rr, cc, radius, cy, cx):
    return np.clip(radius + 0.5 - np.hypot(rr - cy, cc - cx), 0.0, 1.0)


def _render_bars(rr, cc, half_len, half_th, ca, sa, cy, cx):
    a = (rr - cy) * ca + (cc - cx) * sa
    b = -(rr - cy) * sa + (cc - cx) * ca
    return (np.clip(half_len + 0.5 - np.abs(a), 0, 1) *
            np.clip(half_th + 0.5 - np.abs(b), 0, 1)).astype(np.float32)
