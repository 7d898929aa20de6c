"""Quick test of the benchmark itself: python3 benchmark/selftest.py

Runs in seconds. It feeds every oracle hand-made cases it must pass and
cases it must reject, runs a shrunken variant of each workload through
the same rounds and checks as the real benchmark (untraced and traced),
and breaks real outputs on purpose (a missing prediction line, a
swapped id, a wrong root split) to show that each check can fail.
"""

import csv
import dataclasses
import io
import json
import math
import shutil
import sys

import numpy as np

import oracles
import run
from workloads import WORKLOADS

# shrunken workloads: same make-up and checks, seconds instead of minutes
TINY = {
    "boost": dict(n_train=400, n_fresh=200, config={
        "k_clusters": 8,
        "models": [{"kind": "gbdt", "growth": "leaf_wise", "n_estimators": 8,
                    "learning_rate": 0.5, "min_samples_leaf": 5},
                   {"kind": "ridge", "lambda": 1.0}]}),
    "featurize": dict(n_train=800, n_fresh=200, config={
        "models": [{"kind": "ridge", "lambda": 1.0},
                   {"kind": "mlp", "hidden_sizes": [8], "epochs": 1}],
        "grid": {"model": 0, "params": {"lambda": [0.1, 1.0]}}}),
    "score": dict(n_train=300, n_fresh=400, config={
        "k_clusters": 8,
        "models": [{"kind": "gbdt", "growth": "depth_wise", "max_depth": 3,
                    "n_estimators": 8, "learning_rate": 0.5, "min_samples_leaf": 5}]}),
}
SEED = 7


def check(cond, what):
    if not cond:
        raise AssertionError(what)
    print("ok   %s" % what)


def hand_oracles():
    X = np.array([[0.0, 3.0], [0.0, 3.0], [1.0, 2.0], [1.0, 2.0]])
    r = np.array([-5.0, -5.0, 5.0, 5.0])
    best = oracles.brute_force_root_split(X, r, 1, 0.0, 0.0)
    # both features separate the rows equally well; the lower index wins
    check(best == (0, 0.5, 100.0), "brute-force root split, hand case with a tie")
    check(oracles.brute_force_root_split(X, r, 3, 0.0, 0.0) is None,
          "min_samples_leaf rules out every split")
    check(oracles.root_split_errors(best, best, (0, 0.5)) == [], "root split agreement passes")
    check(oracles.root_split_errors(best, (0, 0.25, 100.0), (0, 0.5)) != [],
          "engine split that differs from brute force fails")
    check(oracles.root_split_errors(best, best, (1, 2.5)) != [],
          "wrong root split in the model fails")
    check(oracles.root_split_errors(None, None, (0, 0.5)) != [],
          "a root split where none clears min_gain fails")

    rng = np.random.default_rng(0)
    Xr = rng.normal(size=(50, 4))
    y = Xr @ np.array([1.0, -2.0, 0.5, 0.0]) + 3.0 + rng.normal(scale=0.1, size=50)
    lam = 0.5
    xbar, ybar = Xr.mean(axis=0), y.mean()
    Xc = Xr - xbar
    w = np.linalg.inv(Xc.T @ Xc + lam * np.eye(4)) @ Xc.T @ (y - ybar)
    check(oracles.ridge_errors(Xr, y, lam, w, ybar - xbar @ w) == [], "ridge normal equations pass")
    check(oracles.ridge_errors(Xr, y, lam, w * 1.01, ybar - xbar @ w) != [],
          "perturbed ridge coefficients fail")

    pts = np.array([[0.0, 0.0], [0.0, 2.0], [10.0, 0.0], [10.0, 2.0]])
    good = [[0.0, 1.0], [10.0, 1.0]]
    check(oracles.kmeans_errors(pts, good, 2, 100, 1e-6) == [], "converged k-means passes")
    check(oracles.kmeans_errors(pts, [[0.0, 1.5], [10.0, 1.0]], 2, 100, 1e-6) != [],
          "centroid away from its points' mean fails when stopped early")
    check(oracles.kmeans_errors(pts, [[0.0, 1.5], [10.0, 1.0]], 100, 100, 1e-6) == [],
          "mean test is skipped when the iteration cap was reached")
    check(oracles.kmeans_errors(pts, good + [[50.0, 50.0]], 2, 100, 1e-6) != [],
          "empty cluster fails")
    check(oracles.kmeans_errors(pts, good, 101, 100, 1e-6) != [], "iterations over the cap fail")

    check(oracles.r2([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0, "r2 of a perfect prediction is 1")
    check(oracles.r2([2.0, 2.0, 2.0], [1.0, 2.0, 3.0]) == 0.0, "r2 of the mean is 0")

    def lines(rows):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["id", "ln_price_pred", "price_pred"])
        for lid, ln in rows:
            writer.writerow([lid, repr(ln), repr(math.exp(ln))])
        return buf.getvalue()

    ids, priced = [1, 2, 3], [1, 3]
    check(oracles.prediction_errors(lines([(1, 4.0), (3, 5.0)]), ids, priced)[0] == [],
          "unpriced listing without a line is not an error")
    check(oracles.prediction_errors(lines([(1, 4.0), (2, 4.5), (3, 5.0)]), ids, priced)[0] == [],
          "unpriced listing with a line is not an error")
    check(oracles.prediction_errors(lines([(1, 4.0)]), ids, priced)[0] != [],
          "missing line for a priced listing fails")
    check(oracles.prediction_errors(lines([(3, 5.0), (1, 4.0)]), ids, priced)[0] != [],
          "lines out of input order fail")
    check(oracles.prediction_errors(lines([(1, 4.0), (3, 5.0), (9, 1.0)]), ids, priced)[0] != [],
          "unknown id fails")
    wrong = "id,ln_price_pred,price_pred\n1,4.0,54.0\n3,5.0,%r\n" % math.exp(5.0)
    check(oracles.prediction_errors(wrong, ids, priced)[0] != [], "price_pred != exp(ln) fails")

    split = {"mse": 0.04, "mae": 0.15}
    check(oracles.report_errors({"models": [{"train": split, "val": split, "test": split}]}) == [],
          "mae^2 <= mse passes")
    bad = {"mse": 0.01, "mae": 0.15}
    check(oracles.report_errors({"models": [{"train": split, "val": bad, "test": split}]}) != [],
          "mae^2 > mse fails")
    check(oracles.identical_errors({"a": "1"}, {"a": "1"}, "x") == [], "identical hashes pass")
    check(oracles.identical_errors({"a": "1"}, {"a": "2"}, "x") != [], "changed bytes fail")


def tiny(name):
    w = WORKLOADS[name]
    spec = TINY[name]
    return dataclasses.replace(w, n_train=spec["n_train"], n_fresh=spec["n_fresh"],
                               config=spec["config"])


def tiny_workloads(work_root):
    for name in WORKLOADS:
        w = tiny(name)
        blanked = w.n_fresh // w.blank_every if w.blank_every else 0
        # two rounds, so the byte-identity check between rounds runs too
        result, errors, n_rounds = run.run_workload(w, SEED, 1e-3, False, work_root, min_rounds=2)
        check(result["correct"] and not errors and n_rounds == 2,
              "%s: two tiny rounds pass every check %s" % (name, errors or ""))
        check(result["failed"] == n_rounds * blanked,
              "%s: failures equal the %d blanked prices per round" % (name, blanked))
        check(set(result["metrics"]) == set(run.metric_units("end_to_end")),
              "%s: every end-to-end metric" % name)
        traced, errors, _ = run.run_workload(w, SEED, 1e-3, True, work_root, min_rounds=2)
        check(traced["correct"] and traced["failed"] == result["failed"],
              "%s: two traced rounds pass with the same failures" % name)
        layers = traced["metrics"]
        check(set(layers) == set(run.metric_units("per_layer")), "%s: every per-layer metric" % name)
        ran = {"boost": ("models.gbdt.fit_s", "models.ridge.fit_s", "geofeat.kmeans_fit_s",
                         "models.gbdt.root_scan_ns_per_row_feature"),
               "featurize": ("models.mlp.fit_s", "models.grid.search_s",
                             "textfeat.tfidf_vector_calls"),
               "score": ("models.gbdt.predict_s", "models.gbdt.split_nodes")}[name]
        check(all(layers[k]["value"] > 0 for k in ran + ("ingest.parse_listings_s",
                                                           "serialize.load_file_s",
                                                           "cli.startup_s")),
              "%s: spans cover the layers the workload runs" % name)
        if name == "featurize":
            check(layers["models.gbdt.fit_s"]["value"] == 0, "featurize: no GBDT runs")


def drop_priced_line(rd):
    path = rd / "out" / "predictions.csv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[:1] + lines[2:]), encoding="utf-8")


def swap_ids(rd):
    path = rd / "out" / "predictions.csv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    a, b = lines[1].split(",", 1), lines[2].split(",", 1)
    lines[1], lines[2] = b[0] + "," + a[1], a[0] + "," + b[1]
    path.write_text("".join(lines), encoding="utf-8")


def wrong_root_split(rd):
    path = rd / "out" / "model_0_gbdt.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["trees"][0]["threshold"] += 1.0
    path.write_text(json.dumps(doc), encoding="utf-8")


def broken_outputs(work_root):
    for name, tamper, what in (("score", drop_priced_line, "a missing prediction line"),
                               ("boost", swap_ids, "a swapped id"),
                               ("boost", wrong_root_split, "a wrong root split")):
        w = tiny(name)
        result, errors, _ = run.run_workload(w, SEED, 1e-3, False, work_root, tamper=tamper)
        blanked = w.n_fresh // w.blank_every if w.blank_every else 0
        check(not result["correct"] and errors and result["failed"] > blanked,
              "%s is caught: %s" % (what, errors[0] if errors else None))


def main():
    work_root = run.WORK / "selftest"
    try:
        hand_oracles()
        tiny_workloads(work_root)
        broken_outputs(work_root)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
