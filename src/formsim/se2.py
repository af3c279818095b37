"""SE(2) primitives for planar unicycle vehicles.

Poses are (x, y, theta) with theta an unwrapped continuous angle: nothing
here reduces modulo 2*pi, because tracking errors subtract headings
directly and desired headings grow without bound on circular maneuvers.
All matrices are small dense float arrays with value semantics.
"""

import numpy as np

__all__ = [
    "SKEW",
    "SELECT",
    "rotation_matrix",
    "steering_matrix",
    "body_frame_error",
    "unicycle_rate",
]

# Skew-symmetric generator of planar rotation, embedded in 3x3:
# d/dt R(theta)^T = omega * SKEW @ R(theta)^T.
SKEW = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])

# Maps a twist (v, w) to the body-frame configuration rate (v, 0, w);
# equals steering_matrix(0). Its transpose selects the surge and heading
# components of a body-frame vector.
SELECT = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])


def rotation_matrix(theta):
    """3x3 planar rotation: 2x2 rotation block plus identity on heading."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def steering_matrix(theta):
    """3x2 map from twist (v, w) to configuration rate at heading theta."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, 0.0], [s, 0.0], [0.0, 1.0]])


def body_frame_error(theta, track_error):
    """Rotate a world-frame tracking error into the robot's moving frame.

    An isometry: the result has the same Euclidean norm as the input.
    """
    e = np.asarray(track_error, dtype=float)
    return rotation_matrix(theta).T @ e


def unicycle_rate(theta, twist):
    """Configuration rate (v cos(theta), v sin(theta), w) of a unicycle."""
    v, w = twist
    return np.array([v * np.cos(theta), v * np.sin(theta), w])
