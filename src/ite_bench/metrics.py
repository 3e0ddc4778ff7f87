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
from typing import Annotated, NamedTuple

import numpy as np

from .errors import (
    ConfigError, DataError, NumericError, ShapeError, _matches, check_artifact, check_types,
)
from .model import OutcomeModel, predict_all_outcomes
from .simulate import SPLIT_NAMES, Dataset

REPORT_SCHEMA_VERSION = "2"
REPORT_KEYS = {
    "kind", "schema_version", "split", "n_eval", "per_pair", "untrained_heads", "zero_shot_z",
}


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


def pair_mean(
    per_pair: dict[tuple[int, int], float], z: int | None = None
) -> tuple[float, float]:
    """(epsilon, root): the mean of the per-pair errors and its square root,
    over the pairs that contain treatment z when z is given. The pairs are
    averaged in sorted (a, b) order, so a report read back from a file, whose
    keys sort as strings, gives the figures bit for bit."""
    errors = [v for pair, v in sorted(per_pair.items()) if z is None or z in pair]
    # a sum past float max gives inf, which EvalReport and evaluate_model refuse
    with np.errstate(over="ignore"):
        epsilon = float(np.mean(errors))
    return epsilon, math.sqrt(epsilon)


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
    return PeheResult(*pair_mean(per_pair), per_pair)


@dataclass
class EvalReport:
    """Per-pair effect errors on one split; every PEHE figure derives from
    per_pair. zero_shot_z is the treatment held out of fitting, or None.
    Construction checks every field and raises DataError."""

    split: Annotated[str, SPLIT_NAMES]
    n_eval: Annotated[int, ">= 1"]
    per_pair: dict[tuple[int, int], float]
    # ascending indices of the heads that training never updated
    untrained_heads: list[int]
    zero_shot_z: int | None = None

    @property
    def k(self) -> int:
        return 1 + max(a for a, _ in self.per_pair)

    @property
    def epsilon_pehe(self) -> float:
        return pair_mean(self.per_pair)[0]

    @property
    def sqrt_pehe(self) -> float:
        return pair_mean(self.per_pair)[1]

    @property
    def epsilon_zs(self) -> float | None:
        """PEHE over the k-1 pairs that involve zero_shot_z; None without it."""
        z = self.zero_shot_z
        return None if z is None else pair_mean(self.per_pair, z)[0]

    @property
    def sqrt_pehe_zs(self) -> float | None:
        z = self.zero_shot_z
        return None if z is None else pair_mean(self.per_pair, z)[1]

    @property
    def head_z_trained(self) -> bool | None:
        z = self.zero_shot_z
        return None if z is None else z not in self.untrained_heads

    def __post_init__(self) -> None:
        check_types(self, DataError)
        pairs = self.per_pair
        if not pairs or set(pairs) != {(a, b) for a in range(self.k) for b in range(a)}:
            raise DataError(
                "per_pair must hold exactly the pairs (a, b) with 0 <= b < a < k for "
                f"some k >= 2, got {sorted(pairs)}"
            )
        # an int error, which a float field admits, is refused here; the mean
        # over all pairs bounds the zero-shot one, so both are finite
        floats = all(isinstance(v, float) and v >= 0.0 for v in pairs.values())
        if not (floats and math.isfinite(pair_mean(pairs)[0])):
            raise DataError(
                f"per_pair errors must be finite floats >= 0 with a finite mean, got {pairs!r}"
            )
        heads = self.untrained_heads
        if not (all(0 <= t < self.k for t in heads) and heads == sorted(set(heads))):
            raise DataError(
                f"untrained_heads must list distinct treatments in 0..{self.k - 1} in "
                f"ascending order, got {heads!r}"
            )
        z = self.zero_shot_z
        if z is not None and not 0 <= z < self.k:
            raise DataError(
                f"zero_shot_z must be null or a treatment in 0..{self.k - 1}, got {z!r}"
            )

    def to_dict(self) -> dict:
        doc = dataclasses.asdict(self)
        doc["per_pair"] = {f"{a},{b}": v for (a, b), v in self.per_pair.items()}
        doc["schema_version"] = REPORT_SCHEMA_VERSION
        doc["kind"] = "eval_report"
        return doc

    @staticmethod
    def from_dict(doc: dict) -> "EvalReport":
        check_artifact(doc, "report", REPORT_SCHEMA_VERSION, REPORT_KEYS, "`ite-bench evaluate`")
        per_pair = {}
        for key, v in doc["per_pair"].items():
            a, b = map(int, key.split(","))
            # int() also reads "01" and " 1", which would alias the key "1"
            if key != f"{a},{b}":
                raise DataError(f"per_pair key {key!r} is not of the form 'a,b'")
            per_pair[(a, b)] = v
        return EvalReport(
            split=doc["split"], n_eval=doc["n_eval"], per_pair=per_pair,
            untrained_heads=doc["untrained_heads"], zero_shot_z=doc["zero_shot_z"],
        )


def evaluate_model(
    model: OutcomeModel,
    dataset: Dataset,
    split: str = "test",
    zero_shot_z: int | None = None,
) -> EvalReport:
    """Score eval-mode predictions against expected potential outcomes.

    Every report lists the heads that training never updated; when the
    zero-shot treatment's head is one of them, column z is the mean of the
    trained heads (predict_all_outcomes). Non-finite predictions, or finite
    ones whose squared effect errors or their mean overflow, raise
    NumericError, and numpy warns of none of them.
    """
    if model.k != dataset.k:
        raise ShapeError(f"model has {model.k} heads, dataset has {dataset.k} treatments")
    if not _matches(zero_shot_z, int | None):
        raise ConfigError(f"zero_shot_z must be an int treatment index, got {zero_shot_z!r}")
    if zero_shot_z is not None and not 0 <= zero_shot_z < dataset.k:
        raise ConfigError(f"zero-shot treatment {zero_shot_z} out of range 0..{dataset.k - 1}")
    x = dataset.covariates(split)
    if x.shape[0] == 0:
        raise DataError(f"split {split!r} is empty")
    with np.errstate(over="ignore", invalid="ignore"):
        y_true = dataset.expected_outcomes(split)
        per_pair = pehe(predict_all_outcomes(model, x, dataset.T_emb), y_true).per_pair
    if not math.isfinite(pair_mean(per_pair)[0]):
        raise NumericError(f"non-finite effect errors or mean of them {per_pair}")
    return EvalReport(
        split=split,
        n_eval=x.shape[0],
        per_pair=per_pair,
        untrained_heads=[t for t, n in enumerate(model.head_updates) if n == 0],
        zero_shot_z=zero_shot_z,
    )
