"""Synthetic spherical datasets with optional injected ROI anomalies.

Each subject's per-channel field is a random low-degree SH expansion
(subject-specific coefficients), a linear age effect, and white noise:

    field = sum_{l <= degree} c_lm Y_lm(vertex) + slope * z(age) + noise

Patients additionally receive an additive bump on the target ROI's
vertices, sized in units of the cohort's pre-bump field standard
deviation.  Generation is fully seeded: the same config writes a
byte-identical dataset.
"""

from dataclasses import dataclass
import math
import os

import numpy as np
from scipy.spatial.distance import cdist

from .errors import ConfigurationError
from .io import (
    DatasetManifest,
    SubjectEntry,
    save_manifest,
    write_atlas_csv,
    write_label_table,
    write_subject_features,
)
from .mesh import AtlasLabels, icosphere, sphere_angles
from .spharm import filter_basis


@dataclass
class SynthConfig:
    order: int = 3
    n_subjects: int = 100
    n_patients: int = 0
    n_train: int = 0
    n_val: int = 0
    age_range: tuple = (45.0, 85.0)
    sex_balance: float = 0.5
    field_degree: int = 2
    field_scale: float = 1.0
    age_slope: tuple = (-0.03,)
    noise_std: tuple = (0.25,)
    channel_names: tuple = ("thickness",)
    n_rois: int = 34
    anomaly_roi: int = 1
    anomaly_amplitude: float = 0.0
    affected_fraction: float = 1.0
    seed: int = 0

    def __post_init__(self):
        self.channel_names = tuple(self.channel_names)
        n = len(self.channel_names)
        if n == 0:
            raise ConfigurationError("channel_names must name at least one channel")
        for name in ("age_slope", "noise_std"):
            values = tuple(float(a) for a in np.atleast_1d(getattr(self, name)))
            if len(values) not in (1, n):
                raise ConfigurationError(f"{name} needs 1 value or one per "
                                         f"channel ({n}), got {len(values)}")
            setattr(self, name, values * (n // len(values)))
        if not all(std >= 0.0 for std in self.noise_std):
            raise ConfigurationError(f"noise_std must be >= 0, got {self.noise_std}")
        if not self.age_range[0] <= self.age_range[1]:
            raise ConfigurationError(f"age_min {self.age_range[0]} exceeds "
                                     f"age_max {self.age_range[1]}")
        if self.field_degree < 0:
            raise ConfigurationError("field_degree must be >= 0")
        if self.n_rois < 1:
            raise ConfigurationError("n_rois must be >= 1")
        if self.order > 6:
            raise ConfigurationError("synthetic datasets support order <= 6")
        if self.anomaly_amplitude < 0:
            raise ConfigurationError("anomaly amplitude must be >= 0")
        if self.n_subjects < 1:
            raise ConfigurationError(f"n_subjects must be >= 1, got {self.n_subjects}")
        for name in ("n_patients", "n_train", "n_val"):
            if getattr(self, name) < 0:
                raise ConfigurationError(
                    f"{name} must be >= 0, got {getattr(self, name)}")
        if not 0.0 <= self.sex_balance <= 1.0:
            raise ConfigurationError(
                f"sex_balance must lie in [0, 1], got {self.sex_balance}")
        if self.n_patients > self.n_subjects:
            raise ConfigurationError("more patients than subjects")
        if self.n_train + self.n_val > self.n_subjects:
            raise ConfigurationError("train/val splits exceed the subject count")
        if not 0.0 <= self.affected_fraction <= 1.0:
            raise ConfigurationError("affected_fraction must lie in [0, 1]")

    @property
    def num_channels(self):
        return len(self.channel_names)


def synthetic_atlas(mesh, n_rois=34, hemisphere="left"):
    """Deterministic nearest-seed parcellation with ``n_rois`` parcels.

    Seeds are the mesh's first ``n_rois + 1`` vertices (well spread on an
    icosphere); the patch around seed 0 is labeled 0 (unknown / medial
    wall), the rest get ids 1..n_rois.  A vertex whose distances to
    several seeds are within 1e-12 of its nearest goes to the first.
    """
    if n_rois + 1 > mesh.num_vertices:
        raise ConfigurationError(
            f"cannot carve {n_rois} ROIs out of {mesh.num_vertices} vertices"
        )
    dist = cdist(mesh.vertices, mesh.vertices[: n_rois + 1])
    labels = np.argmax(dist <= dist.min(axis=1, keepdims=True) + 1e-12, axis=1)
    names = {i: f"parcel_{i:02d}" for i in range(1, n_rois + 1)}
    return AtlasLabels(labels=labels, names=names, hemisphere=hemisphere)


def _z_age(age, age_range):
    lo, hi = age_range
    mean = 0.5 * (lo + hi)
    std = (hi - lo) / math.sqrt(12.0) if hi > lo else 1.0
    return (age - mean) / std


def generate_fields(config):
    """Generate the cohort in memory.

    Returns (fields (N, C, V), ages, sexes, groups, bumped) where
    ``groups`` is "patient" for the last ``n_patients`` subjects and
    ``bumped`` flags the patients that actually received the anomaly.
    """
    mesh = icosphere(config.order)
    theta, phi = sphere_angles(mesh.vertices)
    basis = filter_basis(config.field_degree, theta, phi)  # (V, K)
    n_coeff = basis.shape[1]
    rng = np.random.default_rng(config.seed)

    n, c = config.n_subjects, config.num_channels
    fields = np.empty((n, c, mesh.num_vertices))
    ages = np.empty(n)
    sexes = np.empty(n)
    for i in range(n):
        ages[i] = rng.uniform(*config.age_range)
        sexes[i] = 1.0 if rng.random() < config.sex_balance else -1.0
        z = _z_age(ages[i], config.age_range)
        for ch in range(c):
            coeffs = config.field_scale * rng.standard_normal(n_coeff)
            fields[i, ch] = (
                basis @ coeffs
                + config.age_slope[ch] * z
                + rng.normal(0.0, config.noise_std[ch], mesh.num_vertices)
            )

    groups = ["control"] * (n - config.n_patients) + ["patient"] * config.n_patients
    bumped = np.zeros(n, dtype=bool)
    patient_ids = np.arange(n - config.n_patients, n)
    if len(patient_ids):
        n_affected = int(round(config.affected_fraction * len(patient_ids)))
        chosen = rng.choice(patient_ids, size=n_affected, replace=False)
        bumped[np.sort(chosen)] = True
    if config.anomaly_amplitude > 0 and bumped.any():
        atlas = synthetic_atlas(mesh, config.n_rois)
        if config.anomaly_roi not in atlas.roi_ids():
            raise ConfigurationError(
                f"anomaly ROI {config.anomaly_roi} not present in the atlas"
            )
        verts = atlas.roi_vertices(config.anomaly_roi)
        sigma = fields.std(axis=(0, 2))  # pre-bump, per channel
        for i in np.flatnonzero(bumped):
            for ch in range(c):
                fields[i, ch, verts] += config.anomaly_amplitude * sigma[ch]
    return fields, ages, sexes, groups, bumped


def _split_of(index, config):
    if index < config.n_train:
        return "train"
    if index < config.n_train + config.n_val:
        return "val"
    return "test"


def generate_dataset(config, out_dir):
    """Write the synthetic dataset to disk; returns the manifest path.

    Emits one subject container per subject, the atlas CSV plus label
    table, and ``manifest.json``.
    """
    os.makedirs(out_dir, exist_ok=True)
    mesh = icosphere(config.order)
    fields, ages, sexes, groups, _ = generate_fields(config)

    atlas = synthetic_atlas(mesh, config.n_rois)
    write_atlas_csv(os.path.join(out_dir, "atlas.csv"), atlas)
    write_label_table(os.path.join(out_dir, "labels.csv"), atlas.names)

    subjects = []
    width = len(str(max(1, config.n_subjects - 1)))
    for i in range(config.n_subjects):
        sid = f"sub-{i:0{width}d}"
        rel = f"{sid}.smmn"
        write_subject_features(
            os.path.join(out_dir, rel), fields[i], config.channel_names
        )
        subjects.append(
            SubjectEntry(
                subject_id=sid,
                files={ch: rel for ch in config.channel_names},
                age=float(ages[i]),
                sex=float(sexes[i]),
                group=groups[i],
                euler=2.0,  # synthetic surfaces are topologically perfect
                split=_split_of(i, config),
            )
        )
    manifest = DatasetManifest(
        subjects=subjects,
        channel_names=config.channel_names,
        seed=config.seed,
        atlas="atlas.csv",
        label_table="labels.csv",
        root=out_dir,
    )
    path = os.path.join(out_dir, "manifest.json")
    save_manifest(manifest, path)
    return path
