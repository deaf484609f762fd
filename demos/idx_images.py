"""End-to-end on binary image files: synthesize a tiny IDX image corpus, load
it with the big-endian IDX reader, train, and run the horizontal-flip
retrieval protocol (flipping preserves the label here, so the flipped image's
best explanation is its source).

Run from the repository root:  python3 demos/idx_images.py
"""

import struct
import tempfile
from pathlib import Path

import numpy as np

from hdexplain import (
    ExplainerConfig,
    RBFKernel,
    TrainConfig,
    build_cache,
    hit_rate_experiment,
    load_idx,
    local_scale_gamma,
    train,
)

H = W = 8
N = 200


def synth_images(rng):
    """Class 0: bright top half. Class 1: bright bottom half. Both are
    invariant under horizontal flips up to their pixel noise."""
    images = np.zeros((N, H, W), dtype=np.uint8)
    labels = np.zeros(N, dtype=np.uint8)
    for i in range(N):
        label = i % 2
        canvas = rng.integers(0, 60, size=(H, W))
        rows = slice(0, H // 2) if label == 0 else slice(H // 2, H)
        canvas[rows, :] += rng.integers(140, 196, size=(H // 2, W))
        images[i] = np.clip(canvas, 0, 255)
        labels[i] = label
    return images, labels


rng = np.random.default_rng(12)
images, labels = synth_images(rng)

with tempfile.TemporaryDirectory() as tmp:
    images_path = Path(tmp) / "images.idx"
    labels_path = Path(tmp) / "labels.idx"
    images_path.write_bytes(b"\x00\x00\x08\x03" + struct.pack(">III", N, H, W) + images.tobytes())
    labels_path.write_bytes(b"\x00\x00\x08\x01" + struct.pack(">I", N) + labels.tobytes())
    data = load_idx(images_path, labels_path)

print(f"loaded {data.n} images of shape {data.image_shape}, d={data.d}, "
      f"pixel range [{data.features.min():.2f}, {data.features.max():.2f}]")

model = train(data, TrainConfig(seed=12))
print(f"trained [{' -> '.join(map(str, model.layer_dims))}] MLP, "
      f"train accuracy {model.train_accuracy:.3f}\n")

cache = build_cache(model, data, variant="raw")
config = ExplainerConfig(kernel=RBFKernel(local_scale_gamma(cache.z)), variant="raw", top_k=3)

for augmentation in ("noise", "hflip"):
    report = hit_rate_experiment(model, data, augmentation,
                                 trials_per_point=5, sample_size=100,
                                 config=config, seed=12)
    print(f"{augmentation:>6}: hit@1={report.hit_rate[1]:.3f} "
          f"hit@3={report.hit_rate[3]:.3f} coverage@3={report.coverage[3]:.4f}")

print("\nflipping scrambles per-pixel noise, so it is a harder retrieval "
      "problem than small additive noise.")
