"""A small feed-forward softmax classifier with manual forward/backward passes.

Hidden layers use tanh so the log-probability surface stays smooth; the
input-gradient and representation-gradient operations below differentiate
through it exactly.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import ModelFormatError, TrainingError, UnsupportedVariantError
from .stein import (_check_variant, _class_labels, _count, _finite_real, _non_negative_finite,
                    _positive_finite, _write_atomic)

__all__ = [
    "TrainConfig",
    "MLPClassifier",
    "train",
    "save_model",
    "load_model",
    "fnv1a_64",
]

MODEL_MAGIC = b"HDXM"
MODEL_VERSION = 1

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_FNV_CHUNK = 1 << 16


def fnv1a_64(data: bytes) -> int:
    """64-bit FNV-1a hash of a byte string (``bytes``, ``bytearray`` or a
    contiguous byte ``memoryview``): ``h = (h ^ byte) * P mod 2**64`` over
    the bytes, from the offset basis.

    Computed in numpy with the same value as that loop. With ``l`` the low
    byte of ``h``, ``h ^ byte == h + d`` for ``d = (l ^ byte) - l``, so after
    ``n`` bytes ``h = P**n * h_0 + sum_i P**(n - i) * d_i``: a uint64 dot
    product (numpy's uint64 arrays wrap mod 2**64) once the low bytes are
    known, which ``_fnv_xored_bytes`` finds. Bytes are taken in chunks of
    ``_FNV_CHUNK``, so the memory used is bounded by the chunk.
    """
    data = np.frombuffer(data, dtype=np.uint8)
    powers = _fnv_powers(min(data.size, _FNV_CHUNK))
    h = _FNV_OFFSET
    for start in range(0, data.size, _FNV_CHUNK):
        chunk = data[start:start + _FNV_CHUNK]
        x = _fnv_xored_bytes(chunk, h & 0xFF)
        d = x.astype(np.int64)
        d -= x ^ chunk
        folded = int(np.dot(powers[chunk.size - 1::-1], d.view(np.uint64)))
        h = (pow(_FNV_PRIME, chunk.size, 1 << 64) * h + folded) & 0xFFFFFFFFFFFFFFFF
    return h


def _fnv_powers(m: int) -> np.ndarray:
    """``P**1 ... P**m`` mod 2**64, by doubling."""
    powers = np.full(m, _FNV_PRIME, dtype=np.uint64)
    done = 1
    while done < m:
        step = min(done, m - done)
        np.multiply(powers[:step], powers[done - 1], out=powers[done:done + step])
        done += step
    return powers


def _fnv_xored_bytes(b: np.ndarray, low: int) -> np.ndarray:
    """``l_i ^ b_i`` for each byte ``b_i``, where ``l_0 = low`` and
    ``l_{i+1} = ((l_i ^ b_i) * 0xB3) & 0xFF`` (0xB3 is P's low byte): the
    low byte of the FNV-1a state before each byte.

    Bit j of ``x * 0xB3`` is bit j of ``x`` XOR a function of the bits of
    ``x`` below j (the multiplier is odd), so the ``l_i`` are found one bit
    at a time. Before bit j, ``x_i`` holds ``b_i`` XOR the bits of ``l_i``
    below j (``x_0`` all of ``l_0``). Bit j of ``x_i * 0xB3`` is then the
    change of bit j from ``l_i`` to ``l_{i+1}`` (for i = 0 the bit of
    ``l_1`` itself), so a prefix XOR of those bits gives bit j of every
    ``l_{i+1}``.
    """
    m = b.size
    x = np.zeros(-(-m // 8) * 8, dtype=np.uint8)  # whole uint64 words; the padding affects only itself
    x[:m] = b
    x[0] ^= low
    t = np.empty_like(x)
    words = t.view("<u8")  # byte k of a word holds bits 8k..8k+7
    for j in range(8):
        np.multiply(x, 0xB3, out=t)
        t &= 1 << j
        # inclusive prefix XOR over the bytes of t: within each word, then
        # the XOR of all earlier words (each word's top byte) carried in
        for shift in (8, 16, 32):
            words ^= words << shift
        words[1:] ^= np.bitwise_xor.accumulate(words[:-1] >> 56) * 0x0101010101010101
        x[1:] ^= t[:-1]
    return x[:m]


@dataclass
class TrainConfig:
    """The training recipe: the hidden layer widths, and mini-batch gradient
    descent with momentum whose step size decays from ``learning_rate`` to 0
    over ``epochs`` on a cosine.

    ``hidden_dims=None`` means ``(32, 32)``, or ``(128, 64)`` for a dataset
    with ``image_shape``; ``[]`` means no hidden layer. ``epochs``,
    ``batch_size`` and the ``hidden_dims`` entries are integers of at least
    1, ``learning_rate`` a positive and ``l2_weight_decay`` a non-negative
    finite real, and ``momentum`` and ``validation_fraction`` reals in
    ``[0, 1)``; anything else (2.5, ``True``, NaN, ``"0.5"``) raises
    ``ValueError``. The reals are stored as floats.
    """

    epochs: int = 100
    batch_size: int = 128
    learning_rate: float = 0.1
    momentum: float = 0.9
    seed: int = 0
    l2_weight_decay: float = 1e-3
    validation_fraction: float = 0.0
    hidden_dims: list[int] | None = None

    def __post_init__(self):
        self.epochs = _count("epochs", self.epochs)
        if self.hidden_dims is not None:
            self.hidden_dims = [_count("hidden_dims entries", v) for v in self.hidden_dims]
        self.batch_size = _count("batch_size", self.batch_size)
        self.learning_rate = _positive_finite("learning_rate", self.learning_rate)
        self.momentum = _finite_real("momentum", self.momentum, "must lie in [0, 1)", 0.0, 1.0, closed=True)
        self.l2_weight_decay = _non_negative_finite("l2_weight_decay", self.l2_weight_decay)
        self.validation_fraction = _finite_real("validation_fraction", self.validation_fraction,
                                                "must lie in [0, 1)", 0.0, 1.0, closed=True)


def _row_max(logits: np.ndarray) -> np.ndarray:
    """``logits.max(axis=-1, keepdims=True)`` of a 1-D or 2-D array, exactly:
    reduced over a row-major copy of the transpose, since numpy reduces rows
    only a few classes wide one at a time."""
    return np.maximum.reduce(logits.T.copy())[..., None]


def _softmax_and_log_softmax(logits: np.ndarray):
    """``(softmax, log_softmax)`` of each row from one shift by the row maximum,
    one ``exp`` and one sum; the log is ``shifted - log(sum)``, not a log of the softmax."""
    shifted = logits - _row_max(logits)
    exp = np.exp(shifted)
    total = exp.sum(axis=-1, keepdims=True)
    return exp / total, shifted - np.log(total)


def _forward_into(weights, biases, x: np.ndarray, outs):
    """Activations ``[x, a_1, ..., a_L]`` of the tanh layers and the class
    logits, each layer written into its ``(rows, width)`` buffer in ``outs``,
    or into a new array where that entry is None."""
    acts = [x]
    for i, (w, b, out) in enumerate(zip(weights, biases, outs)):
        z = np.matmul(acts[-1], w, out=out)
        z += b
        if i < len(weights) - 1:
            np.tanh(z, out=z)
        acts.append(z)
    return acts[:-1], acts[-1]


def _forward(weights, biases, x: np.ndarray):
    """Activations ``[x, a_1, ..., a_L]`` of the tanh layers and the class logits."""
    return _forward_into(weights, biases, x, [None] * len(weights))


def _residual(proba: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``e_y - p`` per row: the gradient of ``log p_y`` with respect to the logits."""
    resid = -proba
    resid[np.arange(proba.shape[0]), y] += 1.0
    return resid


class MLPClassifier:
    """Feed-forward tanh network with a softmax output layer.

    ``layer_dims`` is ``[d, h_1, ..., h_L, l]``. Weight matrices are stored
    as ``(fan_in, fan_out)``; a forward pass computes
    ``a_{i} = tanh(a_{i-1} @ W_i + b_i)`` for hidden layers followed by an
    affine map into class logits. ``layer_dims`` entries are integers of at
    least 1. Instances are treated as immutable after construction; the
    fingerprint is cached on first use. The model takes its parameters as
    its own: C-contiguous float64 weights and biases are kept, not copied,
    and made read-only in place.
    """

    def __init__(self, layer_dims, weights, biases):
        self.layer_dims = [_count("layer dimensions", v) for v in layer_dims]
        if len(self.layer_dims) < 2:
            raise ValueError("layer_dims needs at least input and output sizes")
        if len(weights) != len(self.layer_dims) - 1 or len(biases) != len(weights):
            raise ValueError("weights/biases inconsistent with layer_dims")
        self.weights = []
        self.biases = []
        for i, (w, b) in enumerate(zip(weights, biases)):
            w = np.ascontiguousarray(w, dtype=np.float64)
            b = np.ascontiguousarray(b, dtype=np.float64)
            if w.shape != (self.layer_dims[i], self.layer_dims[i + 1]):
                raise ValueError(f"weight {i} has shape {w.shape}, expected "
                                 f"({self.layer_dims[i]}, {self.layer_dims[i + 1]})")
            if b.shape != (self.layer_dims[i + 1],):
                raise ValueError(f"bias {i} has shape {b.shape}")
            if not np.all(np.isfinite(w)) or not np.all(np.isfinite(b)):
                raise ValueError("model parameters must be finite")
            w.setflags(write=False)
            b.setflags(write=False)
            self.weights.append(w)
            self.biases.append(b)
        self._fingerprint: int | None = None
        self.train_accuracy: float | None = None
        self.validation_accuracy: float | None = None
        self.train_loss_history: list[float] = []

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def num_classes(self) -> int:
        return self.layer_dims[-1]

    @property
    def num_hidden_layers(self) -> int:
        return len(self.layer_dims) - 2

    def _check_input(self, x, width: int | None = None) -> tuple[np.ndarray, bool]:
        """``x`` as a batch of rows ``width`` (default ``input_dim``) wide, and whether it was one row."""
        width = width or self.input_dim
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        if single:
            x = x[None, :]
        if x.ndim != 2 or x.shape[1] != width:
            raise ValueError(f"input has {x.shape[-1]} features, model expects {width}")
        return x, single

    def logits(self, x):
        x, single = self._check_input(x)
        out = _forward(self.weights, self.biases, x)[1]
        return out[0] if single else out

    def predict_proba(self, x):
        """Class probabilities, softmax of the logits with max-subtraction."""
        return _softmax_and_log_softmax(self.logits(x))[0]

    def predict_log_proba(self, x):
        """Log-probabilities computed as logit minus logsumexp (never log of softmax)."""
        return _softmax_and_log_softmax(self.logits(x))[1]

    def _forward_pass(self, x, y, variant: str):
        """``(single, acts, proba, log_proba, labels, resid)`` of one forward pass
        (``labels`` as in :meth:`score`) for a ``variant`` front, which is checked
        first: whether ``x`` was one row, the layer inputs ``[x, a_1, ..., a_L]``
        as batches, and the residual ``e_labels - p``."""
        _check_variant(variant)
        if variant == "last-layer" and self.num_hidden_layers < 1:
            raise UnsupportedVariantError("model has no hidden layer to read a representation from")
        x, single = self._check_input(x)
        acts, logits = _forward(self.weights, self.biases, x)
        proba, log_proba = _softmax_and_log_softmax(logits)
        labels = proba.argmax(axis=1) if y is None else _class_labels(np.atleast_1d(y), len(x), self.num_classes)
        return single, acts, proba, log_proba, labels, _residual(proba, labels)

    def score(self, x, y=None, variant: str = "raw"):
        """One forward and one backward pass: the Stein points ``(labels, proba, z, s)``.

        ``labels`` is ``y``, or the predicted class (argmax of ``proba``, ties to
        the lowest index) when ``y`` is None, and ``proba`` holds the class
        probabilities. The point is ``z = [front || onehot(labels)]`` and its
        score ``s = [grad || log_proba]``: ``front`` is ``x`` (``raw``) or the
        final hidden representation (``last-layer``), and ``grad`` the gradient
        of ``log p_labels`` with respect to it. A ``(d,)`` row gives row results.
        ``y`` holds one whole-number class index in ``[0, num_classes)`` per
        row (a scalar for one row), else ``ValueError``; a ``variant`` other
        than ``raw`` or ``last-layer`` raises ``UnsupportedVariantError``.

        ``s`` is made after the forward pass, and the last backward product is
        written into its first columns. The backward pass turns each spent
        hidden activation into tanh' in place (never ``x``), and ``z`` is made
        once no activation is held.
        """
        # grad starts as the residual e_labels - p
        single, acts, proba, log_proba, labels, grad = self._forward_pass(x, y, variant)
        front = acts[0] if variant == "raw" else acts[-1]
        # the layers the gradient flows back through and the activations between
        # them; a last-layer pass reads no activation and releases them here
        weights, spent = (self.weights, acts[1:]) if variant == "raw" else (self.weights[-1:], [])
        del acts
        width = front.shape[1]
        s = np.empty((len(front), width + self.num_classes))
        s[:, width:] = log_proba
        for i in range(len(weights) - 1, -1, -1):
            grad = np.matmul(grad, weights[i].T, out=s[:, :width] if i == 0 else None)
            if i > 0:
                # times tanh' = 1 - a**2, computed in place: the activation is spent
                a = spent[i - 1]
                np.square(a, out=a)
                np.subtract(1.0, a, out=a)
                grad = np.multiply(grad, a, out=a)
        spent = a = None  # release the activations before z is made
        z = np.zeros_like(s)
        z[:, :width] = front
        z[np.arange(len(z)), width + labels] = 1.0
        out = (labels, proba, z, s)
        return tuple(v[0] for v in out) if single else out

    def representation_and_residual(self, x, y=None):
        """``(labels, reps, resid)`` from one forward pass and no backward
        pass: the final hidden representation and the residual ``e_y - p``.
        ``labels`` is ``y``, or the predicted class when ``y`` is None, as in
        :meth:`score`. A ``(d,)`` row gives row results."""
        single, acts, _, _, labels, resid = self._forward_pass(x, y, "last-layer")
        out = (labels, acts[-1], resid)
        return tuple(v[0] for v in out) if single else out

    def input_gradient(self, x, y):
        """Gradient of ``log predict_proba(x)[y]`` with respect to ``x``.

        Accepts a single ``(d,)`` vector with an integer label or an
        ``(n, d)`` batch with an ``(n,)`` label vector.
        """
        return self.score(x, y)[3][..., :self.input_dim]

    def representation(self, x):
        """Activations of the final hidden layer."""
        return self.representation_and_residual(x)[1]

    def rep_gradient(self, h, y):
        """Gradient of ``log softmax(W h + b)[y]`` with respect to ``h``.

        Closed form ``(e_y - p) @ W.T`` where ``W`` is the final-layer weight
        matrix and ``p`` the softmax of the final logits.
        """
        h, single = self._check_input(h, self.layer_dims[-2])
        y = _class_labels(np.atleast_1d(y), len(h), self.num_classes)
        probs = _softmax_and_log_softmax(h @ self.weights[-1] + self.biases[-1])[0]
        grad = _residual(probs, y) @ self.weights[-1].T
        return grad[0] if single else grad

    def serialize(self) -> bytes:
        """Model binary: magic, version u32 LE, layer count u32, layer_dims
        u32 each, then per layer row-major f64 LE weights followed by biases.
        The (C-contiguous) parameter arrays are joined as they are, so the
        image is the only copy made (on a little-endian host)."""
        parts = [MODEL_MAGIC, struct.pack("<II", MODEL_VERSION, len(self.layer_dims))]
        parts.append(struct.pack(f"<{len(self.layer_dims)}I", *self.layer_dims))
        for w, b in zip(self.weights, self.biases):
            parts += (w.astype("<f8", copy=False), b.astype("<f8", copy=False))
        return b"".join(parts)

    @classmethod
    def deserialize(cls, data: bytes) -> "MLPClassifier":
        """Parse a model binary: the header, one size expected from ``layer_dims``,
        then all parameters in one copy, split into per-layer views."""
        if len(data) < 12:
            raise ModelFormatError("model binary truncated before header")
        if data[:4] != MODEL_MAGIC:
            raise ModelFormatError(f"bad model magic {data[:4]!r}, expected {MODEL_MAGIC!r}")
        version, n_dims = struct.unpack("<II", data[4:12])
        if version != MODEL_VERSION:
            raise ModelFormatError(f"unsupported model version {version}")
        offset = 12 + 4 * n_dims
        if len(data) < offset:
            raise ModelFormatError("model binary truncated in layer_dims")
        dims = struct.unpack(f"<{n_dims}I", data[12:offset])
        sizes = [size for fan_in, fan_out in zip(dims, dims[1:]) for size in (fan_in * fan_out, fan_out)]
        expected = offset + 8 * sum(sizes)
        if len(data) < expected:
            raise ModelFormatError(f"model binary truncated: {len(data)} bytes, expected {expected}")
        if len(data) > expected:
            raise ModelFormatError("model binary has trailing bytes")
        params = np.frombuffer(data, dtype="<f8", offset=offset).copy()
        parts = np.split(params, np.cumsum(sizes[:-1], dtype=np.int64))
        weights = [w.reshape(shape) for w, shape in zip(parts[::2], zip(dims, dims[1:]))]
        try:
            return cls(dims, weights, parts[1::2])
        except ValueError as exc:
            raise ModelFormatError(f"invalid model contents: {exc}") from exc

    def fingerprint(self) -> int:
        """64-bit FNV-1a over the serialized bytes; cached (models are immutable)."""
        if self._fingerprint is None:
            self._fingerprint = fnv1a_64(self.serialize())
        return self._fingerprint


def _layer_views(flat: np.ndarray, dims):
    """``(weights, biases)`` as views of one flat vector that holds every
    weight matrix first, then every bias vector."""
    shapes = [*zip(dims[:-1], dims[1:]), *((width,) for width in dims[1:])]
    views = []
    start = 0
    for shape in shapes:
        size = int(np.prod(shape))
        views.append(flat[start:start + size].reshape(shape))
        start += size
    return views[:len(dims) - 1], views[len(dims) - 1:]


def train(dataset: Dataset, config: TrainConfig) -> MLPClassifier:
    """Train a classifier by mini-batch gradient descent with momentum on mean
    cross-entropy.

    Deterministic for a fixed ``config.seed`` (seeded init and shuffling).
    The hidden layers are ``config.hidden_dims``, or when that is None
    ``(32, 32)``, or ``(128, 64)`` for image datasets. The returned model
    carries ``train_accuracy``, ``validation_accuracy`` (when a split is held
    out) and the per-epoch ``train_loss_history``: the mean of each epoch's
    batch losses, each at the weights before its step. Divergence raises
    ``TrainingError``.

    All parameters live in one flat vector (weights, then biases) that each
    step updates in place with a handful of whole-vector operations; the
    forward and backward passes write into buffers made once per call.
    """
    default = (128, 64) if dataset.image_shape is not None else (32, 32)
    dims = [dataset.d, *(default if config.hidden_dims is None else config.hidden_dims), dataset.num_classes]
    if np.unique(dataset.labels).size < 2:
        raise TrainingError("training requires at least 2 classes present in the data")

    rng = np.random.default_rng(config.seed)
    n_weights = sum(fan_in * fan_out for fan_in, fan_out in zip(dims[:-1], dims[1:]))
    params = np.zeros(n_weights + sum(dims[1:]))
    weights, biases = _layer_views(params, dims)
    for w in weights:
        limit = np.sqrt(6.0 / sum(w.shape))
        w[...] = rng.uniform(-limit, limit, size=w.shape)
    vel = np.zeros_like(params)
    grad = np.empty_like(params)
    scratch = np.empty_like(params)
    grad_w, grad_b = _layer_views(grad, dims)

    order = rng.permutation(dataset.n)
    n_val = int(round(config.validation_fraction * dataset.n))
    val_idx = order[dataset.n - n_val:]
    train_idx = order[:dataset.n - n_val]
    x_train = dataset.features[train_idx]
    y_train = dataset.labels[train_idx]
    n_train = len(train_idx)
    if np.unique(y_train).size < 2:
        raise TrainingError("training split has fewer than 2 classes; lower validation_fraction")

    rows = min(config.batch_size, n_train)
    x_buf = np.empty((rows, dataset.d))
    out_bufs = [np.empty((rows, width)) for width in dims[1:]]
    delta_bufs = [np.empty((rows, width)) for width in dims[1:-1]]
    row_starts = np.arange(rows) * dims[-1]

    history = []
    for epoch in range(config.epochs):
        # cosine step-size decay keeps the end-of-training loss descent smooth
        lr = config.learning_rate * 0.5 * (1.0 + np.cos(np.pi * epoch / config.epochs))
        perm = rng.permutation(n_train)
        epoch_loss = 0.0
        for start in range(0, n_train, config.batch_size):
            batch = perm[start:start + config.batch_size]
            m = len(batch)
            xb = x_train.take(batch, axis=0, out=x_buf[:m], mode="clip")
            acts, delta = _forward_into(weights, biases, xb, [buf[:m] for buf in out_bufs])

            # the batch's mean cross-entropy, log(sum exp) - shifted[y], and its
            # gradient with respect to the logits, (p - e_y) / m, in place on them
            delta -= _row_max(delta)
            label_at = row_starts[:m] + y_train[batch]
            shifted_y = delta.reshape(-1)[label_at]
            np.exp(delta, out=delta)
            total = np.add.reduce(delta, axis=-1, keepdims=True)
            epoch_loss += float((np.log(total[:, 0]) - shifted_y).mean())
            delta /= total
            delta.reshape(-1)[label_at] -= 1.0
            delta /= m
            for i in range(len(weights) - 1, -1, -1):
                np.matmul(acts[i].T, delta, out=grad_w[i])
                np.add.reduce(delta, axis=0, out=grad_b[i])
                if i > 0:
                    below = np.matmul(delta, weights[i].T, out=delta_bufs[i - 1][:m])
                    # tanh' = 1 - a**2, in place: the activation is spent
                    np.square(acts[i], out=acts[i])
                    np.subtract(1.0, acts[i], out=acts[i])
                    below *= acts[i]
                    delta = below

            # biases are not decayed
            if config.l2_weight_decay > 0:
                decay = np.multiply(params[:n_weights], config.l2_weight_decay, out=scratch[:n_weights])
                grad[:n_weights] += decay
            vel *= config.momentum
            vel -= np.multiply(grad, lr, out=scratch)
            params += vel

        history.append(epoch_loss / -(-n_train // config.batch_size))
        if not (np.isfinite(history[-1]) and np.isfinite(params).all()):
            raise TrainingError(f"training diverged at epoch {epoch + 1}: loss or parameters not finite")

    # the accuracy pass sees the final step's weights, which no batch loss did
    proba, log_proba = _softmax_and_log_softmax(_forward(weights, biases, x_train)[1])
    if not np.isfinite(log_proba[np.arange(n_train), y_train].mean()):
        raise TrainingError(f"training diverged at epoch {config.epochs}: loss is not finite")
    params.setflags(write=False)  # the model's arrays are views of it
    model = MLPClassifier(dims, weights, biases)
    model.train_loss_history = history
    model.train_accuracy = float((proba.argmax(axis=1) == y_train).mean())
    if n_val > 0:
        val_preds = model.predict_proba(dataset.features[val_idx]).argmax(axis=1)
        model.validation_accuracy = float((val_preds == dataset.labels[val_idx]).mean())
    return model


def save_model(model: MLPClassifier, path) -> None:
    """Write a model file atomically: a reader or a failed write never leaves
    a truncated model at ``path``."""
    _write_atomic(path, model.serialize())


def load_model(path) -> MLPClassifier:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ModelFormatError(f"cannot read model file {path}: {exc}") from exc
    return MLPClassifier.deserialize(data)
