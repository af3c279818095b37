"""Correctness checks on what a benchmark run wrote: the trace CSV and the
metrics YAML.

Every run gets the checks that need no reference:

* the CSV parses back bit-identical to the in-memory trace (the 17-digit
  contract) and every value is finite;
* the metrics YAML parses and its residual maximum is the trace's;
* every ``ls_residual`` is at most ``max(gain) * norm_z + F``, where F
  bounds the feedforward norm from the desired twists in the scenario.
  The least-squares residual can never exceed the residual of the zero
  twist, ``||gain * z + ff||``, which that bound dominates.

A run whose scenario is identical to the one a reference was recorded
from (the presets at any seed, the random workloads at
``REFERENCE_SEED``, both at the benchmark horizon) is also compared with
``reference.json``. The tolerance comes from
conditioning, not from tuning: each rate evaluation solves normal
equations whose relative forward error is at most about
``m * cond(A^T A) * u`` (m unknowns, unit roundoff u), so a reordering
of floating-point work perturbs each evaluation by at most that much.
Over N evaluations these perturbations add up at most linearly (the
closed loop contracts errors, so this is conservative), giving
``tol = N * m * kappa * u`` with kappa the largest ``cond(A^T A)`` seen
along the reference run. Differences are scaled by ``1 + |reference|``.
"""

import hashlib
import json
import math

import numpy as np
import yaml

UNIT_ROUNDOFF = np.finfo(float).eps / 2
REFERENCE_SEED = 0
SUMMARY_COLUMNS = ("norm_z", "V", "Va", "ls_residual")
# Slack on the residual bound for rounding in norm_z and ls_residual.
BOUND_SLACK = 1e-9


def _speed_bound(trajectory):
    """Upper bound on sqrt(v^2 + w^2) of a desired trajectory over time."""
    if trajectory["kind"] == "constant_twist":
        v, w = trajectory["twist"]
        return math.hypot(v, w)
    # Cubic Hermite: |p| <= max|knot value| + (8/27) h max|knot slope|,
    # since h00 + h01 = 1 with both nonnegative and |h10|, |h11| <= 4/27.
    times = np.asarray(trajectory["times"], dtype=float)
    h = float(np.max(np.diff(times)))
    values = np.abs(np.asarray(trajectory["twists"], dtype=float))
    slopes = np.abs(np.asarray(trajectory["rates"], dtype=float))
    bound = values.max(axis=0) + (8.0 / 27.0) * h * slopes.max(axis=0)
    return float(np.hypot(*bound))


def residual_bound_terms(doc):
    """(max formation gain, feedforward norm bound) for a scenario doc."""
    speeds = [_speed_bound(r["trajectory"]) for r in doc["robots"]]
    ff_sq = speeds[0] ** 2 + sum((speeds[i - 1] + speeds[j - 1]) ** 2
                                 for i, j in doc["edges"])
    return float(max(doc["gains"]["formation"])), math.sqrt(ff_sq)


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def scenario_digest(doc):
    """Digest of a parsed scenario, independent of YAML formatting."""
    return _sha256(json.dumps(doc, sort_keys=True))


def matching_reference(references, workload, doc):
    """The reference entry recorded from exactly this scenario, or None."""
    entry = references.get(workload)
    if entry is None or entry["scenario_sha256"] != scenario_digest(doc):
        return None
    return entry


def read_outputs(csv_path, yaml_path):
    """Parse the written CSV (header, data) and metrics YAML."""
    with open(csv_path) as fh:
        columns = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    with open(yaml_path) as fh:
        report = yaml.safe_load(fh)
    return columns, data, report


def digest(columns, data, report):
    """The parts of a run's output that the reference pins."""
    return {
        "columns_sha256": _sha256(",".join(columns)),
        "final_row": data[-1].tolist(),
        "summary": {c: data[:, columns.index(c)].tolist()
                    for c in SUMMARY_COLUMNS},
        "metrics": report,
    }


def _compare(ref, got, tol, where, problems):
    if ref is None or isinstance(ref, (bool, str)):
        if ref != got:
            problems.append(f"{where}: {got!r} != reference {ref!r}")
        return
    if isinstance(ref, list) and any(v is None for v in ref):
        if not isinstance(got, list) or len(got) != len(ref):
            problems.append(f"{where}: length differs from reference")
            return
        for k, (r, g) in enumerate(zip(ref, got)):
            _compare(r, g, tol, f"{where}[{k}]", problems)
        return
    if isinstance(ref, dict):
        if sorted(ref) != sorted(got or {}):
            problems.append(f"{where}: keys differ from reference")
            return
        for key in ref:
            _compare(ref[key], got[key], tol, f"{where}.{key}", problems)
        return
    ref_arr = np.asarray(ref, dtype=float)
    got_arr = np.asarray(got, dtype=float)
    if ref_arr.shape != got_arr.shape:
        problems.append(f"{where}: shape {got_arr.shape} != reference "
                        f"{ref_arr.shape}")
        return
    if ref_arr.size == 0:
        return
    err = np.max(np.abs(got_arr - ref_arr) / (1.0 + np.abs(ref_arr)))
    if not err <= tol:
        problems.append(f"{where}: scaled deviation {err:.3e} above "
                        f"tolerance {tol:.3e}")


def compare_reference(ref, columns, data, report):
    problems = []
    got = digest(columns, data, report)
    if got["columns_sha256"] != ref["columns_sha256"]:
        return ["trace columns differ from reference"]
    for key in ("final_row", "summary", "metrics"):
        _compare(ref[key], got[key], ref["tol"], key, problems)
    return problems


def check_run(doc, trace, csv_path, yaml_path, reference=None):
    """List of problems with one run's outputs (empty when correct).

    ``doc`` is the scenario as parsed by the benchmark, ``trace`` the
    program's in-memory trace, ``reference`` the matching entry of
    reference.json or None.
    """
    columns, data, report = read_outputs(csv_path, yaml_path)
    problems = []
    if columns != list(trace.columns):
        problems.append("CSV header differs from the trace columns")
    elif data.shape != trace.data.shape or not np.array_equal(
            data, trace.data):
        problems.append("CSV does not round-trip the trace bit for bit")
    if not np.all(np.isfinite(data)):
        return problems + ["trace has non-finite values"]
    if "ls_residual" not in columns or "norm_z" not in columns:
        return problems + ["trace lacks norm_z or ls_residual"]
    res = data[:, columns.index("ls_residual")]
    if not isinstance(report, dict) or report.get("residual", {}).get(
            "max") != float(res.max()):
        problems.append("metrics residual max differs from the trace")
    gain, ff = residual_bound_terms(doc)
    bound = (gain * data[:, columns.index("norm_z")] + ff) \
        * (1.0 + BOUND_SLACK)
    if np.any(res > bound):
        k = int(np.argmax(res - bound))
        problems.append(f"ls_residual {res[k]:.6g} above its bound "
                        f"{bound[k]:.6g} at row {k}")
    if reference is not None and not problems:
        problems += compare_reference(reference, columns, data, report)
    return problems


def reference_entry(doc, csv_path, yaml_path, kappa):
    """Reference record for one run; ``kappa`` is the largest
    cond(A^T A) along it."""
    columns, data, report = read_outputs(csv_path, yaml_path)
    steps = int(round(doc["t_final"] / doc["dt"]))
    rate_evals = 4 * steps + len(data)
    unknowns = 2 * len(doc["robots"])
    entry = {"scenario_sha256": scenario_digest(doc),
             "horizon": doc["t_final"], "rate_evals": rate_evals,
             "unknowns": unknowns, "kappa": kappa,
             "tol": rate_evals * unknowns * kappa * UNIT_ROUNDOFF}
    entry.update(digest(columns, data, report))
    return entry
