"""Evaluation metrics: clean accuracy, astuteness (robust accuracy), success rate.

The paper's metric (§V-A) is *astuteness*: the robust accuracy of a defender
over a set of samples it originally classified correctly, after adversarial
perturbations are added.  A perfectly astute defender keeps classifying every
perturbed sample correctly, so its robust accuracy stays at 100 %.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class AstutenessResult:
    """Robust accuracy of one defender against one attack."""

    attack_name: str
    robust_accuracy: float
    attack_success_rate: float
    num_samples: int
    mean_linf: float = 0.0
    mean_l2: float = 0.0


def select_correctly_classified(
    predict_fn,
    images: np.ndarray,
    labels: np.ndarray,
    max_samples: int,
    batch_size: int = 64,
) -> tuple[np.ndarray, np.ndarray]:
    """Select up to ``max_samples`` samples the defender classifies correctly.

    Mirrors the paper's protocol of evaluating robust accuracy over 1000
    correctly classified samples (so the robust accuracy with no attack is
    100 % by construction).
    """
    images = np.asarray(images)
    labels = np.asarray(labels)
    keep_images = []
    keep_labels = []
    total = 0
    for start in range(0, len(labels), batch_size):
        stop = start + batch_size
        predictions = predict_fn(images[start:stop])
        mask = predictions == labels[start:stop]
        keep_images.append(images[start:stop][mask])
        keep_labels.append(labels[start:stop][mask])
        total += int(mask.sum())
        if total >= max_samples:
            break
    if not keep_images:
        return images[:0], labels[:0]
    selected_images = np.concatenate(keep_images, axis=0)[:max_samples]
    selected_labels = np.concatenate(keep_labels, axis=0)[:max_samples]
    return selected_images, selected_labels


def clean_accuracy_and_eval_set(
    predict_fn,
    images: np.ndarray,
    labels: np.ndarray,
    max_samples: int,
    batch_size: int = 64,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Clean accuracy and the evaluation set from one prediction pass.

    Predicts in the same batches as ``ImageClassifier.accuracy`` and
    :func:`select_correctly_classified`, so the accuracy and the first
    ``max_samples`` correctly classified samples equal theirs, without
    predicting the leading batches twice.
    """
    images = np.asarray(images)
    labels = np.asarray(labels)
    correct = np.empty(len(labels), dtype=bool)
    for start in range(0, len(labels), batch_size):
        stop = start + batch_size
        correct[start:stop] = predict_fn(images[start:stop]) == labels[start:stop]
    keep = np.flatnonzero(correct)[:max_samples]
    return int(correct.sum()) / max(len(labels), 1), images[keep], labels[keep]


def robust_accuracy(predict_fn, adversarials: np.ndarray, labels: np.ndarray, batch_size: int = 64) -> float:
    """Fraction of adversarial samples still classified correctly by the defender."""
    labels = np.asarray(labels)
    if len(labels) == 0:
        return float("nan")
    correct = 0
    for start in range(0, len(labels), batch_size):
        stop = start + batch_size
        predictions = predict_fn(adversarials[start:stop])
        correct += int((predictions == labels[start:stop]).sum())
    return correct / len(labels)


def attack_success_rate(predict_fn, adversarials: np.ndarray, labels: np.ndarray) -> float:
    """Complement of robust accuracy: fraction of samples the attack flipped."""
    accuracy = robust_accuracy(predict_fn, adversarials, labels)
    if np.isnan(accuracy):
        return float("nan")
    return 1.0 - accuracy


def evaluate_attack(
    predict_fn,
    attack_name: str,
    originals: np.ndarray,
    adversarials: np.ndarray,
    labels: np.ndarray,
) -> AstutenessResult:
    """Package the defender-side evaluation of one attack run."""
    accuracy = robust_accuracy(predict_fn, adversarials, labels)
    perturbation = np.asarray(adversarials) - np.asarray(originals)
    flat = perturbation.reshape(len(labels), -1) if len(labels) else perturbation.reshape(0, 1)
    mean_linf = float(np.abs(flat).max(axis=1).mean()) if len(labels) else 0.0
    mean_l2 = float(np.sqrt((flat**2).sum(axis=1)).mean()) if len(labels) else 0.0
    return AstutenessResult(
        attack_name=attack_name,
        robust_accuracy=accuracy,
        attack_success_rate=1.0 - accuracy if not np.isnan(accuracy) else float("nan"),
        num_samples=len(labels),
        mean_linf=mean_linf,
        mean_l2=mean_l2,
    )
