"""The masked mesh network: masking, hourglass model, loss, training.

The model is an encoder/decoder over the icosphere hierarchy.  Each
encoder level applies two vertex2vertex convolutions and one max-pool
(descending one icosphere order); the decoder mirrors this with
broadcast unpooling.  At the bottleneck the subject's phenotype context
(z-scored age, sex as -1/+1) is replicated across channels, concatenated
along the vertex axis, and projected back to the bottleneck vertex count
by a learned linear map.

Training minimizes the masked l1 objective

    L = (1/|M|) sum_{m in M} sum_c | xhat[c, m] - x[c, m] |

with fresh random masks each epoch, AdamW updates, a cosine learning
rate schedule, and early stopping on validation loss.  All randomness is
seeded; two runs with the same seed produce bit-identical parameters.

Reduction orders are fixed: training accumulates over the batch axis in
index order (so a rerun is bit-identical), while the spec-level
:func:`backward` sums per-sample gradients in ascending order of the
per-sample loss, making it bit-exact under batch permutation.
"""

from dataclasses import dataclass, field
import json
import math
import struct
import warnings

import numpy as np

from . import conv
from .conv import FeatureMap
from .errors import (
    ConfigurationError, DomainError, ParseError, ShapeError, UsageError,
)
from .io import _Cursor
from .mesh import build_hierarchy
from .spharm import num_coefficients

CHECKPOINT_MAGIC = b"SMMN"
CHECKPOINT_KIND = 0x01
CHECKPOINT_VERSION = 1
_STD_SLOTS = {"norm_std": slice(None), "ctx_stats": slice(1, 2)}


@dataclass
class ContextVector:
    """Subject phenotype injected at the bottleneck: age in years, sex -1/+1."""

    age: float
    sex: float

    def raw(self):
        out = np.array([self.age, self.sex], dtype=np.float64)
        if not np.all(np.isfinite(out)):
            raise UsageError("context vector contains non-finite values")
        return out


@dataclass
class Sample:
    """One training/validation subject: raw features plus phenotype."""

    features: np.ndarray  # (C, V) raw feature values
    context: ContextVector
    subject_id: str = ""


@dataclass
class TrainConfig:
    mask_fraction: float = 0.5
    lr: float = 1e-3
    lr_min: float = 1e-6
    epochs: int = 50
    weight_decay: float = 1e-4
    patience: int = 10
    seed: int = 0
    batch_size: int = 16

    def __post_init__(self):
        if not 0.0 < self.mask_fraction < 1.0:
            raise ConfigurationError("mask_fraction must lie strictly in (0, 1)")
        if self.epochs < 1:
            raise ConfigurationError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")


@dataclass
class ModelConfig:
    input_order: int = 3
    channels: tuple = (16, 32)
    in_channels: int = 1
    l_max: int = 3
    ctx_dim: int = 2
    channel_names: tuple = ("thickness",)
    seed: int = 0

    def __post_init__(self):
        self.channels = tuple(int(c) for c in self.channels)
        self.channel_names = tuple(self.channel_names)
        if len(self.channels) < 1:
            raise ConfigurationError("need at least one encoder level")
        if self.input_order - len(self.channels) < 0:
            raise ConfigurationError(
                f"{len(self.channels)} pooling levels do not fit under "
                f"input order {self.input_order}"
            )
        if len(self.channel_names) != self.in_channels:
            raise ConfigurationError("channel_names must match in_channels")

    @property
    def bottleneck_order(self):
        return self.input_order - len(self.channels)

    @property
    def bottleneck_vertices(self):
        return 10 * 4**self.bottleneck_order + 2


def cosine_lr(t, total, lr_max, lr_min):
    """Cosine annealing: lr_max at t = 0 down to lr_min at t = total."""
    if total <= 0:
        return lr_max
    return lr_min + 0.5 * (lr_max - lr_min) * (1.0 + math.cos(math.pi * t / total))


def sample_mask(num_vertices, fraction, rng):
    """Uniform random vertex mask: round(fraction * V) indices, at least 1."""
    if not 0.0 < fraction < 1.0:
        raise UsageError("mask fraction must lie strictly in (0, 1)")
    count = max(1, int(round(fraction * num_vertices)))
    picked = rng.choice(num_vertices, size=count, replace=False)
    return np.sort(picked).astype(np.int64)


def normalize_features(features):
    """Per-channel z-scoring statistics over a feature-array dataset.

    Returns (mean, std, transformed) where ``transformed`` mirrors the
    input list.  Channels with zero variance keep std = 1 (with a
    warning) so the transform stays invertible.
    """
    if len(features) == 0:
        raise UsageError("cannot normalize an empty dataset")
    stacked = np.stack([np.asarray(f, dtype=np.float64) for f in features])
    mean = stacked.mean(axis=(0, 2))
    std = stacked.std(axis=(0, 2))
    degenerate = std < 1e-12
    if np.any(degenerate):
        warnings.warn(
            f"channels {np.flatnonzero(degenerate).tolist()} have zero variance; "
            "using std = 1",
            stacklevel=2,
        )
        std = np.where(degenerate, 1.0, std)
    transformed = [(f - mean[:, None]) / std[:, None] for f in stacked]
    return mean, std, transformed


class MMNModel:
    """Masked mesh network with learnable SH filters and context bottleneck.

    ``params`` maps parameter names to float64 arrays; its insertion
    order is the canonical declaration order used by the checkpoint
    format.  Normalization statistics (per-channel mean/std, age
    mean/std) are set by :func:`train` and stored alongside.
    """

    def __init__(self, config, hierarchy=None):
        self.config = config
        self.hierarchy = hierarchy or build_hierarchy(config.input_order)
        self.norm_mean = np.zeros(config.in_channels)
        self.norm_std = np.ones(config.in_channels)
        self.ctx_stats = np.array([0.0, 1.0])  # age mean, age std
        self.params = {}
        self._init_params()
        self._contexts = [
            conv.conv_context(self.hierarchy.mesh(order), config.l_max)
            for order in range(config.input_order + 1)
        ]

    # -- parameters ---------------------------------------------------------

    def _init_params(self):
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        k = num_coefficients(cfg.l_max)
        kappa = k / (4.0 * math.pi)

        def vf_scale(c_in):
            return math.sqrt(2.0) / math.sqrt(3.0 * c_in * kappa)

        def fv_scale(c_in):
            return math.sqrt(6.0 / (c_in * kappa))

        # Small random token keeps fully-masked neighbourhoods off the
        # activation kink (an all-zero token parks them exactly at 0).
        self.params["mask_token"] = 0.1 * rng.standard_normal(cfg.in_channels)

        widths = [cfg.in_channels] + list(cfg.channels)
        for lvl in range(len(cfg.channels)):
            for blk, (w_in, w_out) in enumerate(
                [(widths[lvl], widths[lvl + 1]), (widths[lvl + 1], widths[lvl + 1])]
            ):
                pre = f"enc{lvl}_c{blk + 1}"
                self.params[f"{pre}_vf"] = vf_scale(w_in) * rng.standard_normal(
                    (w_out, w_in, k)
                )
                self.params[f"{pre}_fv"] = fv_scale(w_out) * rng.standard_normal(
                    (w_out, w_out, k)
                )
                self.params[f"{pre}_b"] = np.zeros(w_out)

        d = cfg.bottleneck_vertices
        proj = np.vstack(
            [np.eye(d), 0.01 * rng.standard_normal((cfg.ctx_dim, d))]
        )
        self.params["ctx_proj"] = proj

        for lvl in reversed(range(len(cfg.channels))):
            for blk, (w_in, w_out) in enumerate(
                [(widths[lvl + 1], widths[lvl + 1]), (widths[lvl + 1], widths[lvl])]
            ):
                pre = f"dec{lvl}_c{blk + 1}"
                self.params[f"{pre}_vf"] = vf_scale(w_in) * rng.standard_normal(
                    (w_out, w_in, k)
                )
                self.params[f"{pre}_fv"] = fv_scale(w_out) * rng.standard_normal(
                    (w_out, w_out, k)
                )
                self.params[f"{pre}_b"] = np.zeros(w_out)

    def param_names(self):
        return list(self.params)

    def copy_params(self):
        return {name: arr.copy() for name, arr in self.params.items()}

    def load_params(self, params):
        for name, arr in params.items():
            self.params[name] = arr.copy()

    # -- data plumbing ------------------------------------------------------

    def normalize(self, values):
        """Raw (C, V) features to z-scored model space."""
        return (np.asarray(values, dtype=np.float64) - self.norm_mean[:, None]) / (
            self.norm_std[:, None]
        )

    def denormalize(self, values):
        return np.asarray(values) * self.norm_std[:, None] + self.norm_mean[:, None]

    def normalize_context(self, ctx):
        raw = ctx.raw()
        out = raw.copy()
        out[0] = (raw[0] - self.ctx_stats[0]) / self.ctx_stats[1]
        return out

    def context_of(self, order):
        return self._contexts[order]

    @property
    def num_input_vertices(self):
        return self.hierarchy.mesh(self.config.input_order).num_vertices


# ---------------------------------------------------------------------------
# Forward / backward cores (batched arrays).


def forward_core(model, xb, ctxn, record=False):
    """Batched network forward pass.

    Parameters
    ----------
    xb : (B, C_in, V) array
        Normalized, mask-token-substituted input features.
    ctxn : (B, ctx_dim) array
        Normalized context vectors.
    record : bool
        Keep the tape needed by :func:`backward_core`.

    Returns
    -------
    (B, C_in, V) reconstruction and the tape (None unless recording).
    """
    cfg = model.config
    p = model.params
    n_levels = len(cfg.channels)
    tape = [] if record else None
    h = xb

    for lvl in range(n_levels):
        order = cfg.input_order - lvl
        cctx = model.context_of(order)
        for blk in (1, 2):
            pre = f"enc{lvl}_c{blk}"
            h, saved = conv.block_forward(
                cctx, h, p[f"{pre}_vf"], p[f"{pre}_fv"], p[f"{pre}_b"], True
            )
            if record:
                tape.append(("block", pre, order, saved))
        clustering = model.hierarchy.clustering(order)
        h, argmax = conv.pool_max_core(h, clustering, return_argmax=record)
        if record:
            tape.append(("pool", clustering, argmax))

    # Context bottleneck: replicate, concatenate along vertices, project.
    batch, c_l, d = h.shape
    rep = np.broadcast_to(ctxn[:, None, :], (batch, c_l, cfg.ctx_dim))
    zc = np.concatenate([h, rep], axis=2)
    h = zc @ p["ctx_proj"]
    if record:
        tape.append(("bottleneck", zc))

    for lvl in reversed(range(n_levels)):
        order = cfg.input_order - lvl
        clustering = model.hierarchy.clustering(order)
        h = conv.unpool_core(h, clustering)
        if record:
            tape.append(("unpool", clustering))
        cctx = model.context_of(order)
        last_level = lvl == 0
        for blk in (1, 2):
            pre = f"dec{lvl}_c{blk}"
            activate = not (last_level and blk == 2)
            h, saved = conv.block_forward(
                cctx, h, p[f"{pre}_vf"], p[f"{pre}_fv"], p[f"{pre}_b"], activate
            )
            if record:
                tape.append(("block", pre, order, saved))
    return h, tape


def backward_core(model, tape, grad_out, mask_matrix):
    """Walk the tape in reverse; returns gradients for every parameter.

    ``mask_matrix`` is the (B, V) boolean mask used when building the
    input, needed to route gradient into the mask token.
    """
    if tape is None:
        raise UsageError("backward requires a recorded forward tape")
    p = model.params
    grads = {name: np.zeros_like(arr) for name, arr in p.items()}
    g = grad_out
    for entry in reversed(tape):
        kind = entry[0]
        if kind == "block":
            _, pre, order, saved = entry
            cctx = model.context_of(order)
            g, gvf, gfv, gb = conv.block_backward(
                cctx, saved, p[f"{pre}_vf"], p[f"{pre}_fv"], g
            )
            grads[f"{pre}_vf"] += gvf
            grads[f"{pre}_fv"] += gfv
            grads[f"{pre}_b"] += gb
        elif kind == "pool":
            _, clustering, argmax = entry
            g = conv.pool_max_backward_core(g, argmax, clustering.num_fine)
        elif kind == "unpool":
            _, clustering = entry
            g = conv.unpool_backward_core(g, clustering)
        elif kind == "bottleneck":
            _, zc = entry
            grads["ctx_proj"] += np.einsum("bcd,bce->de", zc, g)
            d = model.config.bottleneck_vertices
            g = (g @ p["ctx_proj"].T)[:, :, :d]
        else:  # pragma: no cover - tape is internal
            raise UsageError(f"unknown tape entry {kind!r}")
    grads["mask_token"] += np.einsum("bcv,bv->c", g, mask_matrix)
    return grads


def masked_batch(model, features_norm, masks):
    """Token-substitute masked columns; returns (xb, mask matrix)."""
    batch, _, num_v = features_norm.shape
    xb = features_norm.copy()
    mask_matrix = np.zeros((batch, num_v), dtype=np.float64)
    token = model.params["mask_token"]
    for b, mask in enumerate(masks):
        xb[b][:, mask] = token[:, None]
        mask_matrix[b, mask] = 1.0
    return xb, mask_matrix


def batch_loss_and_grad(xhat, target, masks):
    """Mean-over-batch masked l1 and its gradient w.r.t. ``xhat``.

    Subjects with an empty mask contribute zero.  Batch reduction runs
    in index order.
    """
    batch = xhat.shape[0]
    grad = np.zeros_like(xhat)
    total = 0.0
    for b, mask in enumerate(masks):
        if len(mask) == 0:
            continue
        resid = xhat[b][:, mask] - target[b][:, mask]
        total += np.abs(resid).sum() / len(mask)
        grad[b][:, mask] = np.sign(resid) / (len(mask) * batch)
    return total / batch, grad


# ---------------------------------------------------------------------------
# Spec-level surfaces.


def forward(model, x_masked, ctx):
    """Reconstruct a single masked (normalized) feature map."""
    if x_masked.num_vertices != model.num_input_vertices:
        raise ShapeError(
            f"expected {model.num_input_vertices} vertices, got {x_masked.num_vertices}"
        )
    if x_masked.channels != model.config.in_channels:
        raise ShapeError(
            f"expected {model.config.in_channels} channels, got {x_masked.channels}"
        )
    ctxn = model.normalize_context(ctx)
    out, _ = forward_core(model, x_masked.values[None], ctxn[None], record=False)
    return FeatureMap(out[0], level=model.config.input_order)


def backward(model, batch):
    """Loss and exact parameter gradients for a batch of masked samples.

    ``batch`` is a sequence of ``(sample, mask)`` pairs; features are
    normalized with the model's statistics internally.  Per-sample
    gradients are accumulated in ascending order of per-sample loss, so
    the result is bit-exact under permutation of the batch.
    """
    if len(batch) == 0:
        raise UsageError("backward needs a non-empty batch")
    per_loss = []
    per_grads = []
    for sample, mask in batch:
        xn = model.normalize(sample.features)[None]
        ctxn = model.normalize_context(sample.context)[None]
        xb, mask_matrix = masked_batch(model, xn, [mask])
        xhat, tape = forward_core(model, xb, ctxn, record=True)
        loss, dxhat = batch_loss_and_grad(xhat, xn, [mask])
        grads = backward_core(model, tape, dxhat, mask_matrix)
        per_loss.append(loss)
        per_grads.append(grads)

    order = np.argsort(np.asarray(per_loss), kind="stable")
    total = {name: np.zeros_like(arr) for name, arr in model.params.items()}
    for idx in order:
        for name in total:
            total[name] += per_grads[idx][name]
    scale = 1.0 / len(batch)
    for name in total:
        total[name] *= scale
    loss = math.fsum(per_loss) / len(batch)
    return loss, total


class AdamW:
    """Adam with decoupled weight decay; state keyed by parameter name."""

    def __init__(self, params, beta1=0.9, beta2=0.999, eps=1e-8):
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {name: np.zeros_like(arr) for name, arr in params.items()}
        self.v = {name: np.zeros_like(arr) for name, arr in params.items()}

    def step(self, params, grads, lr, weight_decay):
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for name, p in params.items():
            g = grads[name]
            self.m[name] = self.beta1 * self.m[name] + (1.0 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1.0 - self.beta2) * g * g
            m_hat = self.m[name] / bc1
            v_hat = self.v[name] / bc2
            p -= lr * (m_hat / (np.sqrt(v_hat) + self.eps) + weight_decay * p)


@dataclass
class TrainResult:
    history: list
    best_epoch: int
    best_val_loss: float
    epoch0_val_loss: float


def _stack_samples(model, samples):
    feats = np.stack([model.normalize(s.features) for s in samples])
    ctxn = np.stack([model.normalize_context(s.context) for s in samples])
    return feats, ctxn


def _evaluate(model, feats, ctxn, masks, batch_size):
    total = []
    for lo in range(0, len(feats), batch_size):
        sl = slice(lo, lo + batch_size)
        xb, _ = masked_batch(model, feats[sl], masks[sl.start : sl.stop])
        xhat, _ = forward_core(model, xb, ctxn[sl], record=False)
        loss, _ = batch_loss_and_grad(xhat, feats[sl], masks[sl.start : sl.stop])
        total.append(loss * len(feats[sl]))
    return math.fsum(total) / len(feats)


def _check_finite(loss, what):
    if not math.isfinite(loss):
        raise DomainError(f"{what} is {loss!r}; check the inputs for "
                          "non-finite or extreme values")


def train(model, train_set, val_set, config, verbose=False):
    """Self-supervised masked training with early stopping.

    Normalization statistics come from the training set only; validation
    masks are drawn once (seeded) and held fixed so the early-stopping
    metric is comparable across epochs.  Fresh training masks are drawn
    every epoch.  The model keeps the parameters of the best validation
    epoch.  A non-finite train or val loss raises :class:`DomainError`.
    """
    if len(train_set) == 0 or len(val_set) == 0:
        raise UsageError("train and validation sets must be non-empty")
    cfg = model.config
    num_v = model.num_input_vertices

    mean, std, _ = normalize_features([s.features for s in train_set])
    model.norm_mean, model.norm_std = mean, std
    ages = np.array([s.context.age for s in train_set], dtype=np.float64)
    age_std = ages.std()
    model.ctx_stats = np.array([ages.mean(), age_std if age_std > 1e-12 else 1.0])

    feats_tr, ctx_tr = _stack_samples(model, train_set)
    feats_va, ctx_va = _stack_samples(model, val_set)

    rng = np.random.default_rng(config.seed)
    val_rng = np.random.default_rng(config.seed + 1)
    val_masks = [
        sample_mask(num_v, config.mask_fraction, val_rng) for _ in range(len(val_set))
    ]

    opt = AdamW(model.params)
    schedule_total = max(1, config.epochs - 1)

    epoch0_val = _evaluate(model, feats_va, ctx_va, val_masks, config.batch_size)
    _check_finite(epoch0_val, "epoch 0 val loss")
    history = [
        {"epoch": 0, "lr": 0.0, "train_loss": math.nan, "val_loss": epoch0_val}
    ]
    best_val = epoch0_val
    best_epoch = 0
    best_params = model.copy_params()
    stale = 0

    for epoch in range(1, config.epochs + 1):
        lr = cosine_lr(epoch - 1, schedule_total, config.lr, config.lr_min)
        order = rng.permutation(len(train_set))
        masks = [
            sample_mask(num_v, config.mask_fraction, rng)
            for _ in range(len(train_set))
        ]
        epoch_losses = []
        for lo in range(0, len(order), config.batch_size):
            idx = order[lo : lo + config.batch_size]
            batch_masks = [masks[i] for i in idx]
            xb, mask_matrix = masked_batch(model, feats_tr[idx], batch_masks)
            xhat, tape = forward_core(model, xb, ctx_tr[idx], record=True)
            loss, dxhat = batch_loss_and_grad(xhat, feats_tr[idx], batch_masks)
            grads = backward_core(model, tape, dxhat, mask_matrix)
            opt.step(model.params, grads, lr, config.weight_decay)
            epoch_losses.append(loss * len(idx))
        train_loss = math.fsum(epoch_losses) / len(train_set)
        val_loss = _evaluate(model, feats_va, ctx_va, val_masks, config.batch_size)
        _check_finite(train_loss, f"epoch {epoch} train loss")
        _check_finite(val_loss, f"epoch {epoch} val loss")
        history.append(
            {"epoch": epoch, "lr": lr, "train_loss": train_loss, "val_loss": val_loss}
        )
        if verbose:
            print(
                f"epoch {epoch:3d}  lr {lr:.2e}  train {train_loss:.5f}  "
                f"val {val_loss:.5f}"
            )
        if val_loss < best_val:
            best_val = val_loss
            best_epoch = epoch
            best_params = model.copy_params()
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break

    model.load_params(best_params)
    return TrainResult(
        history=history,
        best_epoch=best_epoch,
        best_val_loss=best_val,
        epoch0_val_loss=epoch0_val,
    )


# ---------------------------------------------------------------------------
# Checkpoint serialization (byte layout documented in docs/formats.md).


def save_model(model, path):
    """Write the checkpoint: magic, kind, version, config JSON, f64 arrays."""
    cfg = model.config
    config_doc = {
        "input_order": cfg.input_order,
        "channels": list(cfg.channels),
        "in_channels": cfg.in_channels,
        "l_max": cfg.l_max,
        "ctx_dim": cfg.ctx_dim,
        "channel_names": list(cfg.channel_names),
        "seed": cfg.seed,
    }
    blob = json.dumps(config_doc, sort_keys=True).encode("utf-8")
    arrays = list(model.params.items()) + [
        ("norm_mean", model.norm_mean),
        ("norm_std", model.norm_std),
        ("ctx_stats", model.ctx_stats),
    ]
    with open(path, "wb") as fp:
        fp.write(CHECKPOINT_MAGIC)
        fp.write(struct.pack("<BB", CHECKPOINT_KIND, CHECKPOINT_VERSION))
        fp.write(struct.pack("<I", len(blob)))
        fp.write(blob)
        fp.write(struct.pack("<I", len(arrays)))
        for _, arr in arrays:
            arr = np.asarray(arr, dtype=np.float64)
            fp.write(struct.pack("<B", arr.ndim))
            fp.write(struct.pack(f"<{arr.ndim}q", *arr.shape))
            fp.write(arr.astype("<f8").tobytes())


def load_model(path):
    """Read a checkpoint written by :func:`save_model`."""
    with open(path, "rb") as fp:
        cur = _Cursor(fp.read(), str(path))
    if cur.take(4, "magic") != CHECKPOINT_MAGIC:
        raise ParseError("bad checkpoint magic", offset=0, path=str(path))
    kind, version = cur.unpack("<BB", "kind/version")
    if kind != CHECKPOINT_KIND:
        raise ParseError(f"not a model checkpoint (kind {kind})", offset=4,
                         path=str(path))
    if version != CHECKPOINT_VERSION:
        raise ParseError(f"unsupported checkpoint version {version}", offset=5,
                         path=str(path))
    (blob_len,) = cur.unpack("<I", "config length")
    blob = cur.take(blob_len, "config block")
    try:
        doc = json.loads(blob.decode("utf-8"))
        cfg = ModelConfig(
            input_order=doc["input_order"],
            channels=tuple(doc["channels"]),
            in_channels=doc["in_channels"],
            l_max=doc["l_max"],
            ctx_dim=doc["ctx_dim"],
            channel_names=tuple(doc["channel_names"]),
            seed=doc["seed"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        # ValueError covers bad UTF-8, bad JSON and ConfigurationError.
        raise ParseError(f"bad config block: {exc!r}", offset=10,
                         path=str(path)) from None
    model = MMNModel(cfg)
    expected = {name: arr.shape for name, arr in model.params.items()}
    expected.update(norm_mean=(cfg.in_channels,), norm_std=(cfg.in_channels,),
                    ctx_stats=(2,))
    (n_arrays,) = cur.unpack("<I", "array count")
    if n_arrays != len(expected):
        raise ParseError(
            f"checkpoint stores {n_arrays} arrays, model declares {len(expected)}",
            offset=cur.offset - 4, path=str(path),
        )
    for name in expected:
        start = cur.offset
        (ndim,) = cur.unpack("<B", f"{name} ndim")
        shape = cur.unpack(f"<{ndim}q", f"{name} shape")
        if shape != expected[name]:
            raise ParseError(
                f"array {name} has shape {shape}, expected {expected[name]}",
                offset=start, path=str(path),
            )
        arr = np.frombuffer(
            cur.take(8 * math.prod(shape), f"{name} data"), dtype="<f8"
        ).reshape(shape).astype(np.float64)
        if not np.all(np.isfinite(arr)):
            raise ParseError(f"array {name} holds a non-finite value",
                             offset=start, path=str(path))
        # norm_std and the age std (ctx_stats[1]) divide the inputs.
        if name in _STD_SLOTS and np.any(arr[_STD_SLOTS[name]] <= 0.0):
            raise ParseError(f"array {name} holds a standard deviation <= 0",
                             offset=start, path=str(path))
        if name in model.params:
            model.params[name] = arr
        else:
            setattr(model, name, arr)
    cur.done()
    return model
