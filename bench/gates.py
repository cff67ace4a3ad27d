"""Output gates: checks of one CLI output that do not use the rate engine.

Each gate reads the CSV a command wrote and returns a list of failure
messages (empty when the output passes).  They check structure, bookkeeping
and properties a correct output must have (feasibility, Pareto
non-domination, stored reference values), never recomputed rates.  A gate
never passes an output that did no work.
"""
from __future__ import annotations

import csv
import math

import numpy as np

from tinlink import scheme


def design_header(K: int) -> list[str]:
    return (["build_id", "seed", "n_noise_samples", "rank", "orders",
             "weighted_sum", "feasible", "min_order_slack"]
            + [f"R_{k + 1}" for k in range(K)]
            + [f"k_{k + 1}" for k in range(K)]
            + [f"n_{k + 1}" for k in range(K)])


def benchmark_header(K: int) -> list[str]:
    return (["build_id", "seed", "n_noise_samples", "point_type", "param",
             "orders"] + [f"R_{k + 1}" for k in range(K)])


SIMULATE_HEADER = ["build_id", "seed", "n_noise_samples", "user", "n_frames",
                   "n_bits", "bit_errors", "uncoded_ber", "mean_symbol_power",
                   "zero_noise_roundtrip"]


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return (rows[0], rows[1:]) if rows else ([], [])


def parse_orders(text: str) -> list[list[int]]:
    return [[int(m) for m in row.split(",")] for row in text.split("|")]


def rate_keys(orders, K: int) -> list[tuple[int, ...]]:
    """Per user, the orders its rate depends on: every order in sub-blocks
    0..k.  Rows with equal keys for user k have bitwise equal R_k."""
    return [tuple(orders[u][j] for j in range(k + 1) for u in range(j, K))
            for k in range(K)]


def dominated_rows(rates: np.ndarray, keys: np.ndarray) -> list[int]:
    """Rows that another row certainly dominates.

    Rates are read back at 12 significant digits, and rounding keeps order:
    a printed value greater than another is truly greater, but printed ties
    may hide a difference either way.  Row j dominates row i when, in every
    dimension, R_j prints greater or the two rates are equal by construction
    (equal keys), and R_j prints greater in at least one.  keys[i, d] is an
    integer label of row i's rate key for dimension d.
    """
    gt = rates[None, :, :] > rates[:, None, :]       # [i, j, d]: R_j > R_i
    same = keys[None, :, :] == keys[:, None, :]
    beats = np.all(gt | same, axis=2) & np.any(gt, axis=2)
    return [int(i) for i in np.nonzero(beats.any(axis=1))[0]]


def _floor_matches(k: int, x: float, tol: float = 1e-6) -> bool:
    """k == max(0, floor(x)), allowing for x printed to 12 digits."""
    return k in {max(0, math.floor(x - tol)), max(0, math.floor(x + tol))}


def check_design(path, spec, weights, *, required_orders: str | None = None
                 ) -> list[str]:
    """Gate for `design`: header, feasibility, bookkeeping, Pareto property."""
    K = spec.K
    header, rows = read_csv(path)
    if header != design_header(K):
        return [f"design header changed: {header}"]
    if not rows:
        return ["design wrote no rows"]
    layout = scheme.build_layout(spec)
    fails = []
    rates = np.full((len(rows), K), np.nan)
    # unique negative labels for rows whose orders could not be read
    keys = -1 - np.arange(len(rows) * K).reshape(len(rows), K)
    labels: dict = {}
    for i, row in enumerate(rows):
        rec = dict(zip(header, row))
        label = f"row {i} ({rec['orders']})"
        r = [float(rec[f"R_{k + 1}"]) for k in range(K)]
        rates[i] = r
        if not all(math.isfinite(x) for x in r + [float(rec["weighted_sum"])]):
            fails.append(f"{label}: non-finite rate")
            continue
        try:
            orders = parse_orders(rec["orders"])
            feasible = scheme.check_modulation_constraints(
                orders, spec, layout).feasible
        except (ValueError, scheme.SpecError) as exc:
            fails.append(f"{label}: malformed orders: {exc}")
            continue
        if not feasible:
            fails.append(f"{label}: fails the modulation constraints")
        for k, key in enumerate(rate_keys(orders, K)):
            keys[i, k] = labels.setdefault((k, key), len(labels))
        n = scheme.codeword_lengths(orders, layout)
        if [int(rec[f"n_{k + 1}"]) for k in range(K)] != list(n):
            fails.append(f"{label}: n_i differ from codeword lengths {n}")
        for k, user in enumerate(spec.users):
            if not _floor_matches(int(rec[f"k_{k + 1}"]), r[k] * user.N):
                fails.append(f"{label}: k_{k + 1} != floor(R_{k + 1} N)")
    dims = [k for k in range(K) if weights[k] > 0]
    for i in dominated_rows(rates[:, dims], keys[:, dims]):
        fails.append(f"row {i} ({rows[i][4]}) is dominated")
    if required_orders is not None and all(
            row[4] != required_orders for row in rows):
        fails.append(f"design row {required_orders} missing")
    return fails


def check_benchmark(path, K: int, splits: int, reference: dict) -> list[str]:
    """Gate for `benchmark`: one Gaussian row pair per split, stored rows."""
    header, rows = read_csv(path)
    if header != benchmark_header(K):
        return [f"benchmark header changed: {header}"]
    if splits <= 0:
        return ["benchmark sweep has no power splits"]
    fails = []
    kinds = [row[3] for row in rows]
    for kind in ("gauss_sic", "gauss_tin"):
        if kinds.count(kind) != splits:
            fails.append(f"{kinds.count(kind)} {kind} rows, expected {splits}")
    if len(rows) != reference["n_rows"]:
        fails.append(f"{len(rows)} rows, reference has {reference['n_rows']}")
    for i, row in enumerate(rows):
        if not all(math.isfinite(float(x)) for x in row[6:]):
            fails.append(f"row {i}: non-finite rate")
    for index, kind, param, ref in reference["rows"]:
        if index >= len(rows):
            fails.append(f"reference row {index} missing")
            continue
        row = rows[index]
        got = [float(x) for x in row[6:]]
        if (row[3], row[4]) != (kind, param) or len(got) != len(ref) or any(
                abs(a - b) > 1e-9 for a, b in zip(got, ref)):
            fails.append(f"row {index} differs from the reference")
    return fails


def check_simulate(path, spec, n_frames: int, codeword_lengths,
                   reference: dict) -> list[str]:
    """Gate for `simulate`: bit counts, round trip, power, error counts."""
    header, rows = read_csv(path)
    if header != SIMULATE_HEADER:
        return [f"simulate header changed: {header}"]
    if len(rows) != spec.K:
        return [f"{len(rows)} simulate rows for {spec.K} users"]
    fails = []
    for k, row in enumerate(rows):
        rec = dict(zip(header, row))
        label = f"user {rec['user']}"
        expected_bits = n_frames * codeword_lengths[k]
        n_bits = int(rec["n_bits"])
        if expected_bits <= 0:
            fails.append(f"{label}: expected n_bits {expected_bits} is not > 0")
        if n_bits != expected_bits or n_bits <= 0:
            fails.append(f"{label}: n_bits={n_bits}, expected {expected_bits}")
        if rec["zero_noise_roundtrip"] != "yes":
            fails.append(f"{label}: zero_noise_roundtrip="
                         f"{rec['zero_noise_roundtrip']}")
        power = float(rec["mean_symbol_power"])
        if not abs(power - spec.P) <= 0.01 * spec.P:
            fails.append(f"{label}: mean_symbol_power {power} vs P={spec.P}")
        # binomial spread of this run plus that of the reference estimate
        p = reference["ber"][k]
        var = n_bits * p * (1 - p) * (1 + n_bits / reference["n_bits"][k])
        errors = int(rec["bit_errors"])
        if abs(errors - n_bits * p) > 4.0 * math.sqrt(var):
            fails.append(f"{label}: {errors} bit errors, reference "
                         f"{n_bits * p:.1f} +- {math.sqrt(var):.1f}")
    return fails
