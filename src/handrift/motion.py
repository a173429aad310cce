"""Frame layout of a motion sequence and channel normalization.

A frame is 61 floats: root orientation (3, axis-angle rad), finger pose
(45, axis-angle rad), shape (10), wrist translation (3, mm). Sequences are
(T, 61) float64 arrays; T >= 4 so three-frame windows exist.
"""

from __future__ import annotations

import numpy as np

FRAME_DIM = 61
ROOT_ORIENT = slice(0, 3)
FINGER_POSE = slice(3, 48)
FULL_POSE = slice(0, 48)   # root orientation + finger pose
SHAPE = slice(48, 58)
TRANSLATION = slice(58, 61)

MIN_FRAMES = 4


def pose_parts(frames: np.ndarray):
    """(T,61) frames -> FK inputs: root orientation, theta (T,15,3), shape, translation."""
    frames = np.asarray(frames, dtype=np.float64)
    return (frames[:, ROOT_ORIENT], frames[:, FINGER_POSE].reshape(-1, 15, 3), frames[:, SHAPE],
            frames[:, TRANSLATION])


class Normalizer:
    """Per-channel z-score computed from training data; stored in checkpoints."""

    def __init__(self, mean: np.ndarray, std: np.ndarray):
        self.mean = np.asarray(mean, dtype=np.float64).reshape(FRAME_DIM)
        self.std = np.asarray(std, dtype=np.float64).reshape(FRAME_DIM)

    @classmethod
    def fit(cls, sequences) -> "Normalizer":
        stacked = np.concatenate([np.asarray(s, dtype=np.float64) for s in sequences], axis=0)
        mean = stacked.mean(axis=0)
        std = stacked.std(axis=0)
        std = np.maximum(std, 1e-6)  # constant channels stay finite
        return cls(mean, std)

    def normalize(self, frames: np.ndarray) -> np.ndarray:
        return (np.asarray(frames, dtype=np.float64) - self.mean) / self.std

    def denormalize(self, frames: np.ndarray) -> np.ndarray:
        return np.asarray(frames, dtype=np.float64) * self.std + self.mean
