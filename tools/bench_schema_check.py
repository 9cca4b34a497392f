#!/usr/bin/env python3
"""Validate BENCH_*.json bench artifacts against the rbft-bench schema.

Usage: bench_schema_check.py FILE [FILE...]

Accepts schema rbft-bench-v1 and rbft-bench-v2 (written by
bench/bench_util.hpp):

  {
    "schema": "rbft-bench-v2",
    "bench":  "<snake_case bench name>",
    "title":  "<human title>",
    "jobs":   <positive int>,
    "sha256_kernel": "<kernel name>",   # optional (bench_simcore)
    "points": [
      {
        "name":     "<google-benchmark entry name>",
        "counters": {"<name>": <number>, ...},
        "runs": [
          {"label": str, "seed": int >= 0,
           "sim_time_s": number >= 0, "wall_time_s": number >= 0}, ...
        ],
        "rows": [{"label": str, "values": {"<name>": <number>, ...}}, ...],
        # v2-only, all optional (profiled points only):
        "profile": {"counters": {"<name>": int >= 0, ...},
                    "zones": [{"path": str, "calls": int >= 0}, ...]},
        "perf": {"<name>": <number>, ...},
        "wall": {"zones": [{"path": str, "self_ns": int >= 0,
                            "total_ns": int >= 0}, ...]}
      }, ...
    ]
  }

Every field is deterministic for a given build except wall_time_s, the
"perf" rates and the "wall" zone times; the "profile" block is the
byte-comparable deterministic section.  "sha256_kernel" describes the host
(which SHA-256 compression kernel ran), not a result.
Exit status: 0 all files valid, 1 any violation, 2 usage/IO error.
Stdlib only — runs on any python3, nothing to install.
"""

import json
import sys


def is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def check_value_map(errors, where, values):
    if not isinstance(values, dict):
        errors.append(f"{where}: expected an object, got {type(values).__name__}")
        return
    for name, value in values.items():
        if not isinstance(name, str) or not name:
            errors.append(f"{where}: non-string or empty key {name!r}")
        if not is_number(value):
            errors.append(f"{where}[{name!r}]: expected a number, got {value!r}")


def check_run(errors, where, run):
    if not isinstance(run, dict):
        errors.append(f"{where}: expected an object")
        return
    if not isinstance(run.get("label"), str) or not run["label"]:
        errors.append(f"{where}.label: expected a non-empty string")
    seed = run.get("seed")
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        errors.append(f"{where}.seed: expected a non-negative integer, got {seed!r}")
    for key in ("sim_time_s", "wall_time_s"):
        value = run.get(key)
        if not is_number(value) or value < 0:
            errors.append(f"{where}.{key}: expected a non-negative number, got {value!r}")
    extra = set(run) - {"label", "seed", "sim_time_s", "wall_time_s"}
    if extra:
        errors.append(f"{where}: unexpected keys {sorted(extra)}")


def check_nonneg_int(errors, where, value):
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        errors.append(f"{where}: expected a non-negative integer, got {value!r}")


def check_zone_list(errors, where, zones, fields):
    if not isinstance(zones, list):
        errors.append(f"{where}: expected an array")
        return
    for i, zone in enumerate(zones):
        if not isinstance(zone, dict) or not isinstance(zone.get("path"), str):
            errors.append(f"{where}[{i}]: expected an object with a string path")
            continue
        for field in fields:
            check_nonneg_int(errors, f"{where}[{i}].{field}", zone.get(field))
        extra = set(zone) - ({"path"} | set(fields))
        if extra:
            errors.append(f"{where}[{i}]: unexpected keys {sorted(extra)}")


def check_profile(errors, where, profile):
    if not isinstance(profile, dict):
        errors.append(f"{where}: expected an object")
        return
    counters = profile.get("counters")
    if not isinstance(counters, dict):
        errors.append(f"{where}.counters: expected an object")
    else:
        for name, value in counters.items():
            if not isinstance(name, str) or not name:
                errors.append(f"{where}.counters: non-string or empty key {name!r}")
            check_nonneg_int(errors, f"{where}.counters[{name!r}]", value)
    check_zone_list(errors, f"{where}.zones", profile.get("zones"), ("calls",))
    extra = set(profile) - {"counters", "zones"}
    if extra:
        errors.append(f"{where}: unexpected keys {sorted(extra)}")


def check_wall(errors, where, wall):
    if not isinstance(wall, dict):
        errors.append(f"{where}: expected an object")
        return
    check_zone_list(errors, f"{where}.zones", wall.get("zones"), ("self_ns", "total_ns"))
    extra = set(wall) - {"zones"}
    if extra:
        errors.append(f"{where}: unexpected keys {sorted(extra)}")


def check_point(errors, where, point, v2):
    if not isinstance(point, dict):
        errors.append(f"{where}: expected an object")
        return
    if not isinstance(point.get("name"), str) or not point["name"]:
        errors.append(f"{where}.name: expected a non-empty string")
    check_value_map(errors, f"{where}.counters", point.get("counters"))
    runs = point.get("runs")
    if not isinstance(runs, list) or not runs:
        errors.append(f"{where}.runs: expected a non-empty array")
    else:
        for i, run in enumerate(runs):
            check_run(errors, f"{where}.runs[{i}]", run)
    rows = point.get("rows")
    if not isinstance(rows, list):
        errors.append(f"{where}.rows: expected an array")
    else:
        for i, row in enumerate(rows):
            if not isinstance(row, dict) or not isinstance(row.get("label"), str):
                errors.append(f"{where}.rows[{i}]: expected an object with a string label")
                continue
            check_value_map(errors, f"{where}.rows[{i}].values", row.get("values"))
    allowed = {"name", "counters", "runs", "rows"}
    if v2:
        allowed |= {"profile", "perf", "wall"}
        if "profile" in point:
            check_profile(errors, f"{where}.profile", point["profile"])
        if "perf" in point:
            check_value_map(errors, f"{where}.perf", point["perf"])
        if "wall" in point:
            check_wall(errors, f"{where}.wall", point["wall"])
    extra = set(point) - allowed
    if extra:
        errors.append(f"{where}: unexpected keys {sorted(extra)}")


def validate(path):
    with open(path, "rb") as f:
        doc = json.load(f)
    errors = []
    if not isinstance(doc, dict):
        return [f"top level: expected an object, got {type(doc).__name__}"]
    schema = doc.get("schema")
    if schema not in ("rbft-bench-v1", "rbft-bench-v2"):
        errors.append(
            f"schema: expected 'rbft-bench-v1' or 'rbft-bench-v2', got {schema!r}")
    for key in ("bench", "title"):
        if not isinstance(doc.get(key), str) or not doc[key]:
            errors.append(f"{key}: expected a non-empty string")
    jobs = doc.get("jobs")
    if not isinstance(jobs, int) or isinstance(jobs, bool) or jobs < 1:
        errors.append(f"jobs: expected a positive integer, got {jobs!r}")
    if "sha256_kernel" in doc and (
            not isinstance(doc["sha256_kernel"], str) or not doc["sha256_kernel"]):
        errors.append(f"sha256_kernel: expected a non-empty string, got {doc['sha256_kernel']!r}")
    points = doc.get("points")
    if not isinstance(points, list) or not points:
        errors.append("points: expected a non-empty array")
    else:
        for i, point in enumerate(points):
            check_point(errors, f"points[{i}]", point, v2=(schema == "rbft-bench-v2"))
    extra = set(doc) - {"schema", "bench", "title", "jobs", "sha256_kernel", "points"}
    if extra:
        errors.append(f"top level: unexpected keys {sorted(extra)}")
    return errors


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    failed = False
    for path in argv[1:]:
        try:
            errors = validate(path)
        except (OSError, json.JSONDecodeError) as e:
            print(f"{path}: {e}", file=sys.stderr)
            return 2
        if errors:
            failed = True
            for e in errors:
                print(f"{path}: {e}", file=sys.stderr)
        else:
            with open(path, "rb") as f:
                npoints = len(json.load(f)["points"])
            print(f"{path}: ok ({npoints} point(s))")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
