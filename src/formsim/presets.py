"""Built-in pentagon formation scenarios.

Both presets drive a regular pentagon around a circle as a translating
virtual rigid body, with robots chained 1-2-3-4-5 behind the leader.
Initial desired poses put each robot on a pentagon vertex with a common
heading; initial actual poses are the scattered configurations the
scenarios were defined with. ``kinematic-pentagon`` works in centimeters
at the velocity level; ``adaptive-pentagon`` works in meters at the
torque level with all parameter estimates starting at zero.
"""

import numpy as np

from .scenario import scenario_from_dict

__all__ = ["preset_names", "get_preset"]

_CHAIN5 = [[1, 2], [2, 3], [3, 4], [4, 5]]
_HALF = float(np.pi / 2)


def _pentagon(name, unit, mode, cx, radius, twist, starts, gains, robot):
    """A regular pentagon of circumradius ``radius`` about (cx, 0), first
    vertex on top, each robot desired at a vertex with heading pi/2 and
    the common ``twist``; ``robot`` holds the fields every robot shares
    besides its start and trajectory."""
    c10, s10 = float(np.cos(np.pi / 10)), float(np.sin(np.pi / 10))
    c5, s5 = float(np.cos(np.pi / 5)), float(np.sin(np.pi / 5))
    vertices = [(0.0, 1.0), (c10, s10), (s5, -c5), (-s5, -c5), (-c10, s10)]
    return scenario_from_dict({
        "name": name, "unit": unit, "mode": mode, "n": 5, "edges": _CHAIN5,
        "dt": 1e-3, "t_final": 50.0, "sample_every": 10, "gains": gains,
        "robots": [
            {"start": q0, **robot,
             "trajectory": {"kind": "constant_twist",
                            "start": [cx + radius * c, radius * s, _HALF],
                            "twist": twist}}
            for q0, (c, s) in zip(starts, vertices)
        ],
    })


def _kinematic_pentagon():
    starts = [
        [2.37, 8.0, 0.0162],
        [17.5, 6.0, 0.0218],
        [2.06, -1.36, -0.0031],
        [-9.9, -11.49, 0.0517],
        [-4.45, 8.62, -0.0452],
    ]
    return _pentagon("kinematic-pentagon", "cm", "kinematic", 5.0, 10.0,
                     [5.0, 1.0], starts, {"formation": [2.0, 2.0, 10.0]}, {})


def _adaptive_pentagon():
    starts = [
        [0.3200, 2.8857, 0.0139],
        [2.3247, 2.4519, 2.6061],
        [0.2533, 1.1993, 0.7796],
        [2.4002, 1.2942, 2.7319],
        [0.5455, 0.7914, 0.4366],
    ]
    return _pentagon("adaptive-pentagon", "m", "dynamic", 4.0, 1.0,
                     [4.0, 1.0], starts,
                     {"formation": [1.0, 1.0, 1.0], "twist": [3.0, 3.0],
                      "adaptation": [1.0] * 6},
                     {"start_twist": [0.0, 0.0], "estimate0": [0.0] * 6,
                      "params": {"mass": 3.6, "inertia": 0.0405,
                                 "damping": [[0.3, 0.0], [0.0, 0.004]]}})


_BUILDERS = {
    "kinematic-pentagon": _kinematic_pentagon,
    "adaptive-pentagon": _adaptive_pentagon,
}


def preset_names():
    return sorted(_BUILDERS)


def get_preset(name):
    try:
        return _BUILDERS[name]()
    except KeyError:
        raise KeyError(f"unknown preset {name!r}; available: "
                       f"{', '.join(preset_names())}") from None
