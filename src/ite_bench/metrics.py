"""Treatment-effect error metrics and evaluation reports.

The individual treatment effect between treatments a and b for user i is
tau^{a,b}(x_i) = Y[i, a] - Y[i, b], taken over ordered pairs a > b.
epsilon_PEHE averages the squared ITE error over all unordered treatment
pairs and all users; the zero-shot variant averages only over the pairs
that involve one designated held-out treatment.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DataError, ShapeError
from .model import OutcomeModel, predict_all_outcomes
from .simulate import Dataset

REPORT_SCHEMA_VERSION = "1"


def _as_outcome_matrix(y, name: str) -> np.ndarray:
    a = np.asarray(y, dtype=np.float64)
    if a.ndim != 2:
        raise ShapeError(f"{name} must be an (n, k) matrix")
    if a.shape[0] < 1:
        raise ShapeError(f"{name} needs at least one row")
    if a.shape[1] < 2:
        raise ShapeError(f"{name} needs at least two treatment columns")
    return a


def ite_matrix(y: np.ndarray) -> dict[tuple[int, int], np.ndarray]:
    """Per-user effects Y[:, a] - Y[:, b] for every pair a > b."""
    y = _as_outcome_matrix(y, "outcomes")
    k = y.shape[1]
    return {(a, b): y[:, a] - y[:, b] for a in range(k) for b in range(a)}


class PeheResult(NamedTuple):
    epsilon: float
    root: float
    per_pair: dict[tuple[int, int], float]


def pehe(y_hat: np.ndarray, y_true: np.ndarray) -> PeheResult:
    """Precision in estimating heterogeneous effects, averaged over pairs.

    epsilon = mean over unordered pairs of mean_i (tau_hat - tau_true)^2;
    root is its square root.
    """
    y_hat = _as_outcome_matrix(y_hat, "y_hat")
    y_true = _as_outcome_matrix(y_true, "y_true")
    if y_hat.shape != y_true.shape:
        raise ShapeError(f"shape mismatch: {y_hat.shape} vs {y_true.shape}")
    tau_hat = ite_matrix(y_hat)
    tau_true = ite_matrix(y_true)
    per_pair = {
        pair: float(np.mean((tau_hat[pair] - tau_true[pair]) ** 2)) for pair in tau_hat
    }
    epsilon = float(np.mean(list(per_pair.values())))
    return PeheResult(epsilon, math.sqrt(epsilon), per_pair)


class ZeroShotResult(NamedTuple):
    epsilon: float
    root: float


def zero_shot_pehe(y_hat: np.ndarray, y_true: np.ndarray, z: int) -> ZeroShotResult:
    """PEHE restricted to the k-1 pairs that involve treatment z."""
    y_hat = _as_outcome_matrix(y_hat, "y_hat")
    y_true = _as_outcome_matrix(y_true, "y_true")
    if y_hat.shape != y_true.shape:
        raise ShapeError(f"shape mismatch: {y_hat.shape} vs {y_true.shape}")
    k = y_hat.shape[1]
    if not 0 <= z < k:
        raise ConfigError(f"zero-shot treatment {z} out of range 0..{k - 1}")
    errors = []
    for a in range(k):
        if a == z:
            continue
        tau_hat = y_hat[:, a] - y_hat[:, z]
        tau_true = y_true[:, a] - y_true[:, z]
        errors.append(float(np.mean((tau_hat - tau_true) ** 2)))
    epsilon = float(np.mean(errors))
    return ZeroShotResult(epsilon, math.sqrt(epsilon))


@dataclass
class EvalReport:
    split: str
    n_eval: int
    k: int
    epsilon_pehe: float
    sqrt_pehe: float
    per_pair: dict[tuple[int, int], float]
    # {"z", "epsilon_zs", "sqrt_pehe_zs", "head_z_trained"}
    zero_shot: dict | None = None
    # ascending indices of the heads that training never updated; a report
    # file may hold null here, which no current writer produces
    untrained_heads: list[int] | None = None

    def validate(self) -> "EvalReport":
        if self.n_eval < 1:
            raise DataError("report covers no samples")
        n_pairs = self.k * (self.k - 1) // 2
        if len(self.per_pair) != n_pairs:
            raise DataError(
                f"per_pair holds {len(self.per_pair)} pairs; k={self.k} treatments make {n_pairs}"
            )
        # written so that a NaN fails them
        mean_pairs = float(np.mean(list(self.per_pair.values())))
        if not abs(mean_pairs - self.epsilon_pehe) <= 1e-10:
            raise DataError("per-pair errors do not average to epsilon_pehe")
        if not abs(self.sqrt_pehe**2 - self.epsilon_pehe) <= 1e-10:
            raise DataError("sqrt_pehe is not the square root of epsilon_pehe")
        return self

    def to_dict(self) -> dict:
        doc = dataclasses.asdict(self)
        doc["per_pair"] = {f"{a},{b}": v for (a, b), v in self.per_pair.items()}
        doc["schema_version"] = REPORT_SCHEMA_VERSION
        doc["kind"] = "eval_report"
        return doc

    @staticmethod
    def from_dict(doc: dict) -> "EvalReport":
        if doc.get("schema_version") != REPORT_SCHEMA_VERSION:
            raise DataError(
                f"unsupported report schema_version {doc.get('schema_version')!r}"
            )
        per_pair = {}
        for key, v in doc["per_pair"].items():
            a, b = key.split(",")
            per_pair[(int(a), int(b))] = float(v)
        return EvalReport(
            split=doc["split"],
            n_eval=int(doc["n_eval"]),
            k=int(doc["k"]),
            epsilon_pehe=float(doc["epsilon_pehe"]),
            sqrt_pehe=float(doc["sqrt_pehe"]),
            per_pair=per_pair,
            zero_shot=doc.get("zero_shot"),
            untrained_heads=doc.get("untrained_heads"),
        ).validate()


def evaluate_model(
    model: OutcomeModel,
    dataset: Dataset,
    split: str = "test",
    zero_shot_z: int | None = None,
) -> EvalReport:
    """Score eval-mode predictions against expected potential outcomes.

    The zero-shot block records whether head z was trained: when it was
    not, column z is the mean of the trained heads (predict_all_outcomes).
    Every report lists the heads that training never updated.
    """
    if model.k != dataset.k:
        raise ShapeError(f"model has {model.k} heads, dataset has {dataset.k} treatments")
    x = dataset.covariates(split)
    if x.shape[0] == 0:
        raise DataError(f"split {split!r} is empty")
    y_true = dataset.expected_outcomes(split)
    y_hat = predict_all_outcomes(model, x, dataset.T_emb)
    result = pehe(y_hat, y_true)
    zs = None
    if zero_shot_z is not None:
        zres = zero_shot_pehe(y_hat, y_true, zero_shot_z)
        zs = {
            "z": int(zero_shot_z),
            "epsilon_zs": zres.epsilon,
            "sqrt_pehe_zs": zres.root,
            "head_z_trained": model.head_trained(zero_shot_z),
        }
    return EvalReport(
        split=split,
        n_eval=x.shape[0],
        k=dataset.k,
        epsilon_pehe=result.epsilon,
        sqrt_pehe=result.root,
        per_pair=result.per_pair,
        zero_shot=zs,
        untrained_heads=[t for t, n in enumerate(model.head_updates) if n == 0],
    ).validate()

