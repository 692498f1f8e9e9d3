"""The masked mesh network: masking, hourglass model, loss, training.

The model is an encoder/decoder over the icosphere hierarchy.  Each
encoder level applies two vertex2vertex convolutions and one max-pool
(descending one icosphere order); the decoder mirrors this with
broadcast unpooling.  At the bottleneck the subject's phenotype context
(z-scored age, sex as -1/+1) is replicated across channels, concatenated
along the vertex axis, and projected back to the bottleneck vertex count
by a learned linear map.

The architecture is stated once, as data: :meth:`ModelConfig.plan` lists
the steps in execution order and :meth:`ModelConfig.param_shapes` derives
every parameter's name and shape from it.  Parameter initialization,
:func:`forward_core`, :func:`backward_core` (the plan in reverse) and the
checkpoint reader all follow those two.

A subject is a :class:`Sample` (features, context, id); training and
ROI-masked detection (:mod:`smmn.anomaly`) take the same record.  Its
features meet the model in one check, :meth:`MMNModel.check_features`,
which :func:`train`, :func:`forward` and detection each call.

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

from dataclasses import asdict, dataclass, fields
import json
import math
import struct
import warnings

import numpy as np

from . import conv
from .conv import FeatureMap
from .errors import (
    ConfigurationError, DomainError, ShapeError, UsageError,
)
from .io import CONTAINER_MAGIC, Cursor
from .mesh import MAX_ICOSPHERE_ORDER, build_hierarchy
from .spharm import num_coefficients

CHECKPOINT_KIND = 0x01
CHECKPOINT_VERSION = 1
_STD_SLOTS = {"norm_std": slice(None), "ctx_stats": slice(1, 2)}
CONTEXT_DIM = 2  # width of ContextVector.raw(): age and sex
# Elements per AdamW block: the six block arrays a step touches (1.5 MiB)
# stay in a 2 MiB L2 cache.
_ADAMW_BLOCK = 2**15


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
        if self.patience < 1:
            raise ConfigurationError(f"patience must be >= 1, got {self.patience}")
        for name in ("lr", "lr_min", "weight_decay"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ConfigurationError(f"{name} must be finite and >= 0, got {value}")
        if self.lr_min > self.lr:
            raise ConfigurationError(f"lr_min {self.lr_min} exceeds lr {self.lr}")


@dataclass
class ModelConfig:
    input_order: int = 3
    channels: tuple = (16, 32)
    in_channels: int = 1
    l_max: int = 3
    ctx_dim: int = CONTEXT_DIM
    channel_names: tuple = ("thickness",)
    seed: int = 0

    def __post_init__(self):
        self.channels = tuple(self.channels)
        self.channel_names = tuple(self.channel_names)
        if len(self.channels) < 1:
            raise ConfigurationError("need at least one encoder level")
        for name, value, low in [
            ("input_order", self.input_order, 0), ("in_channels", self.in_channels, 1),
            ("l_max", self.l_max, 0), ("seed", self.seed, 0),
        ] + [("channels", width, 1) for width in self.channels]:
            if type(value) is not int or value < low:  # bools are not ints here
                raise ConfigurationError(
                    f"{name} must be an integer >= {low}, got {value!r}"
                )
        if not len(self.channels) <= self.input_order <= MAX_ICOSPHERE_ORDER:
            raise ConfigurationError(
                f"input order {self.input_order} must lie between the number of "
                f"pooling levels ({len(self.channels)}) and {MAX_ICOSPHERE_ORDER}"
            )
        if len(self.channel_names) != self.in_channels:
            raise ConfigurationError("channel_names must match in_channels")
        if type(self.ctx_dim) is not int or self.ctx_dim != CONTEXT_DIM:
            raise ConfigurationError(f"ctx_dim must be {CONTEXT_DIM}, the width of "
                                     f"the context vector, got {self.ctx_dim!r}")

    @property
    def bottleneck_order(self):
        return self.input_order - len(self.channels)

    @property
    def bottleneck_vertices(self):
        return 10 * 4**self.bottleneck_order + 2

    def plan(self):
        """The hourglass in execution order, one step per tuple.

        ``("block", name, order, w_in, w_out, activate)`` is one
        vertex2vertex convolution at icosphere ``order``;
        ``("pool", order)`` and ``("unpool", order)`` move between
        ``order`` and the next coarser one; ``("bottleneck",)`` injects
        the context.  Each encoder level is two blocks and a pool, each
        decoder level an unpool and two blocks; the last block is linear.
        """
        widths = (self.in_channels,) + self.channels
        encoder, decoder = [], []
        for lvl, order in enumerate(range(self.input_order, self.bottleneck_order, -1)):
            w_in, w_out = widths[lvl], widths[lvl + 1]
            encoder += [("block", f"enc{lvl}_c1", order, w_in, w_out, True),
                        ("block", f"enc{lvl}_c2", order, w_out, w_out, True),
                        ("pool", order)]
            decoder[:0] = [("unpool", order),
                           ("block", f"dec{lvl}_c1", order, w_out, w_out, True),
                           ("block", f"dec{lvl}_c2", order, w_out, w_in, lvl > 0)]
        return encoder + [("bottleneck",)] + decoder

    def param_shapes(self):
        """Parameter name -> shape, in declaration (and checkpoint) order:
        the mask token, then each block's filters and bias and the context
        projection in :meth:`plan` order."""
        k = num_coefficients(self.l_max)
        shapes = {"mask_token": (self.in_channels,)}
        for step in self.plan():
            if step[0] == "block":
                _, name, _, w_in, w_out, _ = step
                shapes[f"{name}_vf"] = (w_out, w_in, k)
                shapes[f"{name}_fv"] = (w_out, w_out, k)
                shapes[f"{name}_b"] = (w_out,)
            elif step[0] == "bottleneck":
                d = self.bottleneck_vertices
                shapes["ctx_proj"] = (d + self.ctx_dim, d)
        return shapes


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

    ``params`` maps parameter names to float64 arrays in the order of
    :meth:`ModelConfig.param_shapes`, which the checkpoint format keeps.
    Normalization statistics (per-channel mean/std, age mean/std) are set
    by :func:`train` and stored alongside.
    """

    def __init__(self, config, hierarchy=None):
        self.config = config
        self.hierarchy = hierarchy or build_hierarchy(config.input_order)
        self.norm_mean = np.zeros(config.in_channels)
        self.norm_std = np.ones(config.in_channels)
        self.ctx_stats = np.array([0.0, 1.0])  # age mean, age std
        self.params = {}
        self._init_params()

    # -- parameters ---------------------------------------------------------

    def _init_params(self):
        """Draw every parameter from one seeded stream in declaration order."""
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        kappa = num_coefficients(cfg.l_max) / (4.0 * math.pi)
        for name, shape in cfg.param_shapes().items():
            if name == "mask_token":
                # Small random token keeps fully-masked neighbourhoods off the
                # activation kink (an all-zero token parks them exactly at 0).
                self.params[name] = 0.1 * rng.standard_normal(shape)
            elif name == "ctx_proj":
                d = shape[1]
                self.params[name] = np.vstack(
                    [np.eye(d), 0.01 * rng.standard_normal((cfg.ctx_dim, d))]
                )
            elif name.endswith("_b"):
                self.params[name] = np.zeros(shape)
            elif name.endswith("_vf"):
                scale = math.sqrt(2.0) / math.sqrt(3.0 * shape[1] * kappa)
                self.params[name] = scale * rng.standard_normal(shape)
            else:
                scale = math.sqrt(6.0 / (shape[1] * kappa))
                self.params[name] = scale * rng.standard_normal(shape)

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
        """The :class:`~smmn.conv.ConvContext` of the order-``order`` mesh,
        built on first use and cached by the mesh."""
        return conv.conv_context(self.hierarchy.mesh(order), self.config.l_max)

    @property
    def num_input_vertices(self):
        return self.hierarchy.mesh(self.config.input_order).num_vertices

    def check_features(self, features, who):
        """ShapeError naming ``who`` unless ``features`` is a
        (in_channels, num_input_vertices) array."""
        expected = (self.config.in_channels, self.num_input_vertices)
        if np.shape(features) != expected:
            raise ShapeError(f"{who} has features of shape {np.shape(features)}, "
                             f"model expects {expected}")


# ---------------------------------------------------------------------------
# Forward / backward cores (batched arrays).


def forward_core(model, xb, ctxn, record=False):
    """Batched network forward pass: one walk of ``model.config.plan()``.

    Parameters
    ----------
    xb : (B, C_in, V) array
        Normalized, mask-token-substituted input features, as
        :func:`masked_batch` returns them: a (B, C, V) view of a
        vertex-major (V, B, C) buffer.
    ctxn : (B, ctx_dim) array
        Normalized context vectors.
    record : bool
        Keep the tape that :func:`backward_core` consumes, in plan order:
        a block's input and pre-activation sign (None if linear; its
        backward makes the facet features again), a pool's argmax, None
        for an unpool, and the bottleneck's (d + ctx_dim, B·C) input rows.

    Returns
    -------
    (B, C_in, V) reconstruction and the tape (None unless recording).
    Every step's output is a (B, C, N) view of a C-contiguous (N, B, C)
    buffer (see :mod:`smmn.conv`), and so is every array of a block or
    pool entry.
    """
    cfg = model.config
    p = model.params
    tape = [] if record else None
    h = xb
    for step in cfg.plan():
        kind = step[0]
        if kind == "block":
            _, name, order, _, _, activate = step
            # ``saved`` holds a block's buffers until the next block returns;
            # freeing them sooner makes each pass fault numpy's large
            # temporaries in again (1.7x the page faults at order 3, B = 34:
            # 13.2k against 7.9k per pass).
            h, saved = conv.block_forward(
                model.context_of(order), h,
                p[f"{name}_vf"], p[f"{name}_fv"], p[f"{name}_b"], activate,
            )
            entry = saved
        elif kind == "pool":
            h, entry = conv.pool_max_core(
                h, model.hierarchy.clustering(step[1]), return_argmax=record
            )
        elif kind == "unpool":
            h, entry = conv.unpool_core(h, model.hierarchy.clustering(step[1])), None
        else:
            h, entry = bottleneck_forward(model, h, ctxn)
        if record:
            tape.append(entry)
    return h, tape


def bottleneck_forward(model, h, ctxn):
    """The context bottleneck on (B, C, d) features: the (B, ctx_dim)
    context joins each channel as ctx_dim more vertex rows, and one GEMM
    projects the rows back.  Returns the output and its (d + ctx_dim, B·C)
    input rows."""
    rows = h.transpose(2, 0, 1)  # (d, B, C)
    _, batch, c_l = rows.shape
    rep = np.broadcast_to(ctxn.T[:, :, None], (model.config.ctx_dim, batch, c_l))
    entry = np.concatenate([rows, rep]).reshape(-1, batch * c_l)
    out = model.params["ctx_proj"].T @ entry
    return out.reshape(-1, batch, c_l).transpose(1, 2, 0), entry


def backward_core(model, tape, grad_out, mask_matrix):
    """Every parameter's gradient, in ``param_names`` order, from the plan
    in reverse, popping each step's tape entry (so it is freed before the
    steps before it run) and storing each gradient as it is made.

    ``mask_matrix`` is the (B, V) boolean mask used when building the
    input, needed to route gradient into the mask token.
    """
    plan = model.config.plan()
    if tape is None or len(tape) != len(plan):  # a consumed tape is empty
        raise UsageError(f"backward needs a recorded forward tape of {len(plan)} "
                         f"entries, got {'none' if tape is None else len(tape)}")
    p = model.params
    grads = {}
    g = grad_out
    for step in reversed(plan):
        kind, saved = step[0], tape.pop()
        if kind == "block":
            name, order = step[1:3]
            g, grads[f"{name}_vf"], grads[f"{name}_fv"], grads[f"{name}_b"] = (
                conv.block_backward(model.context_of(order), saved,
                                    p[f"{name}_vf"], p[f"{name}_fv"], g))
        elif kind == "pool":
            num_fine = model.hierarchy.clustering(step[1]).num_fine
            g = conv.pool_max_backward_core(g, saved, num_fine)
        elif kind == "unpool":
            g = conv.unpool_backward_core(g, model.hierarchy.clustering(step[1]))
        else:
            batch, c_l, d = g.shape
            rows = g.transpose(2, 0, 1).reshape(d, batch * c_l)
            grads["ctx_proj"] = saved @ rows.T
            g = (p["ctx_proj"][:d] @ rows).reshape(d, batch, c_l).transpose(1, 2, 0)
    grads["mask_token"] = np.tensordot(mask_matrix.T, g.transpose(2, 0, 1), axes=2)
    return {name: grads[name] for name in p}


def masked_batch(model, features_norm, masks):
    """Token-substitute masked columns; returns (xb, mask matrix).

    ``xb`` is a (B, C, V) view of a vertex-major (V, B, C) copy of
    ``features_norm``, the layout :func:`forward_core` carries.
    """
    batch, _, num_v = features_norm.shape
    xb = features_norm.transpose(2, 0, 1).copy().transpose(1, 2, 0)
    mask_matrix = np.zeros((batch, num_v), dtype=np.float64)
    token = model.params["mask_token"]
    for b, mask in enumerate(masks):
        xb[b][:, mask] = token[:, None]
        mask_matrix[b, mask] = 1.0
    return xb, mask_matrix


def batch_loss_and_grad(xhat, target, masks):
    """Mean-over-batch masked l1 and its gradient w.r.t. ``xhat``.

    Subjects with an empty mask contribute zero.  Batch reduction runs
    in index order.  The gradient has the memory layout of ``xhat``.
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
    model.check_features(x_masked.values, "masked input")
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
    """Adam with decoupled weight decay; state keyed by parameter name.

    :meth:`step` updates the moments and the parameters in place, walking
    each parameter in blocks of rows of about ``_ADAMW_BLOCK`` elements with
    two reused scratch arrays of that size, in the operation order of the
    textbook expression, so it gives the same bits.
    """

    def __init__(self, params, beta1=0.9, beta2=0.999, eps=1e-8):
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {name: np.zeros_like(arr) for name, arr in params.items()}
        self.v = {name: np.zeros_like(arr) for name, arr in params.items()}

    def step(self, params, grads, lr, weight_decay):
        """p -= lr * (m_hat / (sqrt(v_hat) + eps) + weight_decay * p), with
        m = beta1 * m + (1 - beta1) * g and v = beta2 * v + (1 - beta2) * g * g."""
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        scratch = np.empty((2, max([_ADAMW_BLOCK] + [p[0].size for p in params.values()])))
        for name, param in params.items():
            rows = max(1, _ADAMW_BLOCK // param[0].size)
            for lo in range(0, len(param), rows):
                p, g, m, v = (arr[lo:lo + rows] for arr in
                              (param, grads[name], self.m[name], self.v[name]))
                a, b = (buf[:p.size].reshape(p.shape) for buf in scratch)
                m *= self.beta1
                m += np.multiply(1.0 - self.beta1, g, out=a)
                v *= self.beta2
                np.multiply(1.0 - self.beta2, g, out=a)
                v += np.multiply(a, g, out=a)
                np.divide(m, bc1, out=a)  # m_hat
                np.divide(v, bc2, out=b)  # v_hat
                np.sqrt(b, out=b)
                b += self.eps
                a /= b
                a += np.multiply(weight_decay, p, out=b)
                a *= lr
                p -= a


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


@np.errstate(over="ignore", invalid="ignore")  # as in train
def _evaluate(model, feats, ctxn, masks, batch_size):
    total = []
    for lo in range(0, len(feats), batch_size):
        sl = slice(lo, lo + batch_size)
        xb, _ = masked_batch(model, feats[sl], masks[sl.start : sl.stop])
        xhat, _ = forward_core(model, xb, ctxn[sl], record=False)
        loss, _ = batch_loss_and_grad(xhat, feats[sl], masks[sl.start : sl.stop])
        total.append(loss * len(feats[sl]))
    return math.fsum(total) / len(feats)


def _check_finite(loss, what, lr=None):
    """DomainError unless ``loss`` is finite; it names ``lr``, the
    epoch's learning rate, if given."""
    if not math.isfinite(loss):
        cause = "the inputs" if lr is None else f"the learning rate {lr!r} and inputs"
        raise DomainError(f"{what} is {loss!r}; check {cause} for "
                          "non-finite or extreme values")


def train(model, train_set, val_set, config, verbose=False):
    """Self-supervised masked training with early stopping.

    Normalization statistics come from the training set only; validation
    masks are drawn once (seeded) and held fixed so the early-stopping
    metric is comparable across epochs.  Fresh training masks are drawn
    every epoch.  The model keeps the parameters of the best validation
    epoch.  A sample whose features do not fit the model raises
    :class:`ShapeError`; a non-finite val loss, or a batch's non-finite
    train loss, raises :class:`DomainError`, the latter before its step;
    an overflow in a batch or a validation pass raises no numpy warning.
    """
    if len(train_set) == 0 or len(val_set) == 0:
        raise UsageError("train and validation sets must be non-empty")
    for split, samples in (("train", train_set), ("val", val_set)):
        for i, sample in enumerate(samples):
            model.check_features(sample.features,
                                 f"{split} subject {sample.subject_id or i!r}")
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
    best_params = model.copy_params()  # refreshed in place, then handed back
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
            with np.errstate(over="ignore", invalid="ignore"):
                xb, mask_matrix = masked_batch(model, feats_tr[idx], batch_masks)
                xhat, tape = forward_core(model, xb, ctx_tr[idx], record=True)
                loss, dxhat = batch_loss_and_grad(xhat, feats_tr[idx], batch_masks)
                epoch_losses.append(float(loss) * len(idx))
                _check_finite(epoch_losses[-1], f"epoch {epoch} train loss", lr)
                grads = backward_core(model, tape, dxhat, mask_matrix)
            opt.step(model.params, grads, lr, config.weight_decay)
            del tape, grads  # freed before the next batch and validation
        train_loss = math.fsum(epoch_losses) / len(train_set)
        val_loss = _evaluate(model, feats_va, ctx_va, val_masks, config.batch_size)
        _check_finite(val_loss, f"epoch {epoch} val loss", lr)
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
            for name, arr in model.params.items():
                np.copyto(best_params[name], arr)
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break

    model.params = best_params
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
    blob = json.dumps(asdict(model.config), sort_keys=True).encode("utf-8")
    arrays = list(model.params.items()) + [
        ("norm_mean", model.norm_mean),
        ("norm_std", model.norm_std),
        ("ctx_stats", model.ctx_stats),
    ]
    with open(path, "wb") as fp:
        fp.write(CONTAINER_MAGIC)
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
    """Read a checkpoint written by :func:`save_model`.

    Every stored array is checked against the shapes the config declares
    before the model (mesh hierarchy, parameters) is built.
    """
    cur = Cursor(path)
    cur.header(CHECKPOINT_KIND, CHECKPOINT_VERSION, "model checkpoint")
    (blob_len,) = cur.unpack("<I", "config length")
    blob = cur.take(blob_len, "config block")
    try:
        doc = json.loads(blob.decode("utf-8"))
        keys = {f.name for f in fields(ModelConfig)}
        if not isinstance(doc, dict) or doc.keys() != keys:
            raise ValueError(f"keys must be exactly {sorted(keys)}")
        cfg = ModelConfig(**doc)
    except (TypeError, ValueError) as exc:
        # ValueError covers bad UTF-8, bad JSON, the key set and
        # ConfigurationError; TypeError a value of the wrong JSON type.
        raise cur.error(f"bad config block: {exc!r}", 10) from None
    expected = cfg.param_shapes()
    expected.update(norm_mean=(cfg.in_channels,), norm_std=(cfg.in_channels,),
                    ctx_stats=(2,))
    (n_arrays,) = cur.unpack("<I", "array count")
    if n_arrays != len(expected):
        raise cur.error(
            f"checkpoint stores {n_arrays} arrays, model declares {len(expected)}",
            cur.offset - 4,
        )
    arrays = {}
    for name in expected:
        start = cur.offset
        (ndim,) = cur.unpack("<B", f"{name} ndim")
        shape = cur.unpack(f"<{ndim}q", f"{name} shape")
        if shape != expected[name]:
            raise cur.error(
                f"array {name} has shape {shape}, expected {expected[name]}", start
            )
        arr = cur.array("<f8", shape, f"{name} data")
        if not np.all(np.isfinite(arr)):
            raise cur.error(f"array {name} holds a non-finite value", start)
        # norm_std and the age std (ctx_stats[1]) divide the inputs.
        if name in _STD_SLOTS and np.any(arr[_STD_SLOTS[name]] <= 0.0):
            raise cur.error(f"array {name} holds a standard deviation <= 0", start)
        arrays[name] = arr
    cur.done()
    model = MMNModel(cfg)
    model.params = {name: arrays.pop(name) for name in model.params}
    model.norm_mean, model.norm_std, model.ctx_stats = arrays.values()
    return model
