"""Benchmark for the bnbprice pipeline, run through its real CLI.

Usage, from the root of a checkout:

    python3 benchmark/run.py --workload boost|featurize|score --seed N \
        --seconds S --trace 0|1

A run repeats whole rounds until the next one would end after S seconds
(at least one round). A round makes the inputs (synth, per-city files,
blanked prices, config), then runs ingest, train and predict, one
command at a time, each in its own process, and checks every output.
With --trace 0 the last stdout line is a JSON object with the
end-to-end metrics; with --trace 1 the measured commands run under
tracer.py and the JSON carries the per-layer metrics instead. See
README.md in this directory for the workloads and how each value is
aggregated.
"""

import argparse
import compileall
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import oracles
from workloads import INGEST_REPEATS, WORKLOADS, synth_commands, write_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# the holdout r2 against the noiseless truth must reach this share of the
# r2 the truth itself scores against the observed prices
R2_FLOOR = 0.8
# no run may outlive this, whatever --seconds says
HARD_LIMIT_S = 150.0
ROOT_SCAN_REPEATS = 7
# commands whose spans make up the per-layer metrics; repeats and checks are left out
TRACED = ("synth0", "synth1", "ingest", "train", "predict")


class Command:
    """Outcome of one CLI process: exit code, wall time and its own rusage."""

    def __init__(self, code, wall, rusage, spans, log):
        self.code = code
        self.wall = wall
        self.sys_s = rusage.ru_stime
        self.spans = spans
        self.rss_mb = spans["peak_rss_mb"] if spans else None
        self.log = log

    def tail(self):
        lines = self.log.read_text(encoding="utf-8", errors="replace").strip().splitlines()
        return lines[-1] if lines else ""


def run_cli(args, cwd, traced, name, timeout):
    """Run `bnbprice ARGS` in cwd under tracer.py and reap it with wait4."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    log = cwd / ("%s.log" % name)
    spans_path = cwd / ("%s.spans.json" % name)
    argv = [sys.executable, str(HERE / "tracer.py"), str(spans_path), str(int(traced)), *args]
    with open(log, "wb") as err:
        env["BNB_BENCH_SPAWN"] = repr(time.time())
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(max(timeout, 1.0), proc.kill)
        watchdog.start()
        try:
            _, status, rusage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    spans = None
    if spans_path.exists():
        spans = json.loads(spans_path.read_text(encoding="utf-8"))
    return Command(proc.returncode, wall, rusage, spans, log)


class Round:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.commands = {}
        self.setup_s = None
        self.duration = None
        self.holdout_r2 = None
        self.model_bytes = None
        self.hashes = None
        self.predicted = 0


def _price(text):
    return float(text.strip().lstrip("$").replace(",", ""))


class Bench:
    def __init__(self, workload, seed, trace, work, tamper=None):
        self.w = workload
        self.tamper = tamper
        self.seed = seed
        self.trace = trace
        self.work = work
        self.deadline = time.perf_counter() + HARD_LIMIT_S
        self.reference = None
        # per-layer values that are the same in every round, set by deep_checks
        self.split_nodes = 0
        self.root_scan_ns = 0.0

    def cli(self, rnd, rd, name, args, traced=None):
        """Run one command as one operation; False when it failed."""
        if traced is None:
            traced = self.trace
        cmd = run_cli(args, rd, traced, name, self.deadline - time.perf_counter())
        rnd.attempted += 1
        rnd.commands[name] = cmd
        if cmd.code != 0:
            rnd.failed += 1
            rnd.errors.append("%s exited %d: %s" % (" ".join(args[:1]), cmd.code, cmd.tail()))
            return False
        return True

    def round(self, index):
        w = self.w
        rnd = Round()
        rd = self.work / ("r%d" % index)
        rd.mkdir(parents=True)
        t0 = time.perf_counter()
        for i, args in enumerate(synth_commands(w, self.seed)):
            if not self.cli(rnd, rd, "synth%d" % i, args):
                return rnd
        write_inputs(w, self.seed, rd)
        rnd.setup_s = time.perf_counter() - t0

        ingest = ["ingest", "--config", "config.json", "--threads", str(w.threads)]
        ok = self.cli(rnd, rd, "ingest", ingest)
        if ok:
            first = oracles.file_hashes(rd / "out")
        # repeats give a sub-second ingest more samples; they stay out of the trace
        for rep in range(1, INGEST_REPEATS):
            ok = ok and self.cli(rnd, rd, "ingest_rep%d" % rep, ingest, traced=False)
            if ok:
                rnd.errors += oracles.identical_errors(first, oracles.file_hashes(rd / "out"),
                                                       "repeated ingest outputs")
        if ok and w.threads > 1 and self.reference is None:
            ok = self.cli(rnd, rd, "ingest_t1", ["ingest", "--config", "config.json",
                                                 "--threads", "1", "--out", "out_t1"],
                          traced=False)
            if ok:
                rnd.errors += oracles.identical_errors(
                    first, oracles.file_hashes(rd / "out_t1"),
                    "ingest outputs at --threads %d and --threads 1" % w.threads)
                shutil.rmtree(rd / "out_t1")
        ok = ok and self.cli(rnd, rd, "train", ["train", "--config", "config.json"])
        ok = ok and self.cli(rnd, rd, "predict", [
            "predict", "--out", "out", "--model", "out/" + w.predict_model,
            "--listings", "fresh/listings.csv", "--reviews", "fresh/reviews.csv"])
        if ok:
            if self.tamper is not None:
                self.tamper(rd)
            try:
                self.check_predictions(rnd, rd)
                rnd.hashes = oracles.file_hashes(rd / "out")
                if self.reference is None:
                    self.reference = rnd.hashes
                    self.deep_checks(rnd, rd)
                else:
                    rnd.errors += oracles.identical_errors(self.reference, rnd.hashes,
                                                           "artifacts of round %d" % index)
            except Exception as exc:  # malformed output must fail the check, not the run
                rnd.errors.append("checking the outputs raised %r" % exc)
        if rnd.errors and rnd.failed == 0:
            rnd.failed += 1
        return rnd

    def check_predictions(self, rnd, rd):
        fresh = oracles.read_listing_prices((rd / "fresh" / "listings.csv").read_text(encoding="utf-8"))
        priced = [(lid, _price(p)) for lid, p in fresh if p.strip()]
        errors, ln_pred = oracles.prediction_errors(
            (rd / "out" / "predictions.csv").read_text(encoding="utf-8"),
            [lid for lid, _ in fresh], [lid for lid, _ in priced])
        rnd.errors += errors
        rnd.attempted += len(fresh)
        rnd.predicted = len(ln_pred)
        rnd.failed += sum(1 for lid, _ in fresh if lid not in ln_pred)
        truth = oracles.read_truth((rd / "fresh" / "truth.csv").read_text(encoding="utf-8"))
        scored = [lid for lid, _ in priced if lid in ln_pred]
        if len(scored) < 2:
            rnd.errors.append("fewer than two priced listings were scored")
            return
        true = [truth[lid] for lid in scored]
        observed = dict(priced)
        rnd.holdout_r2 = oracles.r2([ln_pred[lid] for lid in scored], true)
        ceiling = oracles.r2(true, [math.log(observed[lid]) for lid in scored])
        if not rnd.holdout_r2 >= R2_FLOOR * ceiling:
            rnd.errors.append("holdout r2 %.4f is below %.2f of the attainable %.4f"
                              % (rnd.holdout_r2, R2_FLOOR, ceiling))
        rnd.model_bytes = (rd / "out" / self.w.predict_model).stat().st_size

    def deep_checks(self, rnd, rd):
        """Oracles that rebuild the training matrix; later rounds must match round 1's bytes.

        Inputs come through the program's own loaders (config, dataset,
        pipeline, models), so a change of file layout does not break them.
        """
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        from bnbprice import config, evalreport, ingest, serialize, transform
        from bnbprice.models import find_best_split, model_from_doc

        out = rd / "out"
        rnd.errors += oracles.report_errors(serialize.load_file(out / "report.json"))
        cfg = config.load_config(rd / "config.json")
        dataset = ingest.dataset_from_doc(serialize.load_file(out / "dataset.json"))
        split = evalreport.split_dataset(len(dataset.listings), cfg.split_ratios, cfg.seed)
        fitted = transform.pipeline_from_doc(serialize.load_file(out / "pipeline.json"))
        matrix = transform.assemble_matrix(dataset, split.train, fitted)
        X, y = matrix.values, matrix.target
        points = [[dataset.listings[i].latitude, dataset.listings[i].longitude]
                  for i in split.train]
        rnd.errors += oracles.kmeans_errors(points, fitted.clusters.centroids,
                                            fitted.clusters.iterations_run,
                                            cfg.kmeans_max_iter, cfg.kmeans_tol)
        for i, entry in enumerate(cfg.models):
            model = model_from_doc(serialize.load_file(out / ("model_%d_%s.json" % (i, entry["kind"]))))
            if entry["kind"] == "ridge":
                rnd.errors += oracles.ridge_errors(X, y, model.lam, model.coefficients,
                                                   model.intercept)
            elif entry["kind"] == "gbdt":
                p = model.params
                r = y - float(y.mean())
                rows = np.arange(len(y))
                expected = oracles.brute_force_root_split(X, r, p.min_samples_leaf, p.lam,
                                                          p.min_gain)
                engine = find_best_split(rows, X, r, p)
                tree = model.trees[0]
                root = (int(tree.feature[0]), float(tree.threshold[0])) if tree.feature[0] >= 0 else None
                rnd.errors += oracles.root_split_errors(expected, engine, root)
                self.split_nodes += sum(int((t.feature >= 0).sum()) for t in model.trees)
                if self.trace:
                    times = []
                    for _ in range(ROOT_SCAN_REPEATS):
                        t0 = time.perf_counter()
                        find_best_split(rows, X, r, p)
                        times.append(time.perf_counter() - t0)
                    self.root_scan_ns = statistics.median(times) / X.size * 1e9


def end_to_end(rnd):
    """Samples of each end-to-end metric from one round; repeated ingests give several."""
    c = rnd.commands
    return {
        "setup_s": [rnd.setup_s],
        "ingest_s": [cmd.wall for name, cmd in c.items()
                     if name == "ingest" or name.startswith("ingest_rep")],
        "train_s": [c["train"].wall],
        "predict_rows_per_s": [rnd.predicted / c["predict"].wall],
        "ingest_peak_rss_mb": [c["ingest"].rss_mb],
        "train_peak_rss_mb": [c["train"].rss_mb],
        "predict_peak_rss_mb": [c["predict"].rss_mb],
        "holdout_r2": [rnd.holdout_r2],
        "model_bytes": [rnd.model_bytes],
    }


def _ratio(a, b, scale=1.0):
    return a / b * scale if b else 0.0


def per_layer(rnd, bench):
    """Per-layer values of one traced round, summed over its measured commands."""
    c = {name: cmd for name, cmd in rnd.commands.items() if name in TRACED}
    tot = {}
    for cmd in c.values():
        for name, fields in cmd.spans["totals"].items():
            tot[name] = [a + b for a, b in zip(tot.get(name, (0, 0.0, 0.0, 0.0)), fields)]

    def field(i):
        return lambda name: tot.get(name, (0, 0.0, 0.0, 0.0))[i]

    calls, secs, self_secs, work = field(0), field(1), field(2), field(3)

    parse_s = secs("ingest.parse_listings") + secs("ingest.parse_reviews")
    parsed_mb = (work("ingest.parse_listings") + work("ingest.parse_reviews")) / 1e6
    return {
        "ingest.parse_listings_s": secs("ingest.parse_listings"),
        "ingest.parse_reviews_s": secs("ingest.parse_reviews"),
        "ingest.csv_mb_per_s": _ratio(parsed_mb, parse_s),
        "ingest.join_dataset_s": secs("ingest.join_dataset"),
        "ingest.dataset_to_doc_s": secs("ingest.dataset_to_doc"),
        "ingest.dataset_from_doc_s": secs("ingest.dataset_from_doc"),
        "serialize.dump_file_s": secs("serialize.dump_file"),
        "serialize.dump_mb_per_s": _ratio(work("serialize.dump_file") / 1e6,
                                          secs("serialize.dump_file")),
        "serialize.load_file_s": secs("serialize.load_file"),
        "serialize.load_mb_per_s": _ratio(work("serialize.load_file") / 1e6,
                                          secs("serialize.load_file")),
        "textfeat.build_vocab_s": secs("textfeat.build_vocab"),
        "textfeat.tfidf_vector_s": secs("textfeat.tfidf_vector"),
        "textfeat.tfidf_vector_calls": calls("textfeat.tfidf_vector"),
        "textfeat.listing_sentiment_s": secs("textfeat.listing_sentiment"),
        "geofeat.kmeans_fit_s": secs("geofeat.kmeans_fit"),
        "geofeat.kmeans_iterations": work("geofeat.kmeans_fit"),
        "geofeat.assign_all_s": secs("geofeat.assign_all"),
        "geofeat.clusters_svg_s": secs("geofeat.clusters_svg"),
        "transform.fit_pipeline_self_s": self_secs("transform.fit_pipeline"),
        "transform.assemble_matrix_s": secs("transform.assemble_matrix"),
        "transform.assemble_us_per_row": _ratio(secs("transform.assemble_matrix"),
                                                work("transform.assemble_matrix"), 1e6),
        "transform.pipeline_from_doc_s": secs("transform.pipeline_from_doc"),
        "models.gbdt.fit_s": secs("models.gbdt.fit"),
        "models.gbdt.ms_per_tree": _ratio(secs("models.gbdt.fit"), work("models.gbdt.fit"), 1e3),
        "models.gbdt.split_nodes": bench.split_nodes,
        "models.gbdt.root_scan_ns_per_row_feature": bench.root_scan_ns,
        "models.gbdt.predict_s": secs("models.gbdt.predict"),
        "models.gbdt.predict_ns_per_row_tree": _ratio(secs("models.gbdt.predict"),
                                                      work("models.gbdt.predict"), 1e9),
        "models.ridge.fit_s": secs("models.ridge.fit"),
        "models.mlp.fit_s": secs("models.mlp.fit"),
        "models.mlp.ms_per_epoch": _ratio(secs("models.mlp.fit"), work("models.mlp.fit"), 1e3),
        "models.grid.search_s": secs("models.grid.search"),
        "models.registry.model_to_doc_s": secs("models.registry.model_to_doc"),
        "models.registry.model_from_doc_s": secs("models.registry.model_from_doc"),
        "evalreport.emit_report_s": secs("evalreport.emit_report"),
        "synth.generate_s": secs("synth.generate"),
        "cli.startup_s": statistics.median(cmd.spans["startup_s"] for cmd in c.values()),
        "cli.ingest_self_s": c["ingest"].wall - c["ingest"].spans["covered_s"],
        "cli.train_self_s": c["train"].wall - c["train"].spans["covered_s"],
        "cli.predict_self_s": c["predict"].wall - c["predict"].spans["covered_s"],
        "cli.train_sys_s": c["train"].sys_s,
        "trace.ingest_wall_s": c["ingest"].wall,
        "trace.train_wall_s": c["train"].wall,
        "trace.predict_wall_s": c["predict"].wall,
    }


def metric_units(kind):
    """name -> unit of the end_to_end or per_layer metrics in BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def run_workload(workload, seed, seconds, trace, work_root=WORK, min_rounds=1, tamper=None):
    """Run whole rounds for `seconds`; returns (result, check errors, rounds run).

    min_rounds and tamper serve the self-test: it forces a second round,
    or breaks the outputs of each round before they are checked.
    """
    compileall.compile_dir(str(SRC / "bnbprice"), quiet=1)
    work = work_root / ("%s-%d-%d" % (workload.name, seed, os.getpid()))
    bench = Bench(workload, seed, trace, work, tamper)
    rounds = []
    start = time.perf_counter()
    try:
        while True:
            t0 = time.perf_counter()
            rnd = bench.round(len(rounds) + 1)
            rnd.duration = time.perf_counter() - t0
            rounds.append(rnd)
            shutil.rmtree(work / ("r%d" % len(rounds)), ignore_errors=True)
            elapsed = time.perf_counter() - start
            if rnd.errors or (len(rounds) >= min_rounds
                              and elapsed + rnd.duration > min(seconds, HARD_LIMIT_S - 30.0)):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    errors = [e for rnd in rounds for e in rnd.errors]
    complete = [rnd for rnd in rounds if rnd.hashes is not None]
    samples = {}
    for rnd in complete:
        if trace:
            for name, value in per_layer(rnd, bench).items():
                samples.setdefault(name, []).append(value)
        else:
            for name, values in end_to_end(rnd).items():
                samples.setdefault(name, []).extend(values)
    units = metric_units("per_layer" if trace else "end_to_end")
    metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
               for name, unit in units.items() if name in samples}
    return {
        "correct": not errors and len(complete) == len(rounds),
        "attempted": sum(rnd.attempted for rnd in rounds),
        "failed": sum(rnd.failed for rnd in rounds),
        "metrics": metrics,
    }, errors, len(rounds)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bnbprice" / "cli.py").is_file():
        print("benchmark: no program source at %s" % SRC, file=sys.stderr)
        return 2
    result, errors, n_rounds = run_workload(WORKLOADS[args.workload], args.seed,
                                            args.seconds, bool(args.trace))
    for e in errors:
        print("CHECK FAILED: %s" % e, file=sys.stderr)
    print("workload %s, seed %d, %d round(s)" % (args.workload, args.seed, n_rounds))
    for name, m in result["metrics"].items():
        print("%-42s %14.6g %s" % (name, m["value"], m["unit"]))
    print("attempted %d, failed %d, correct %s"
          % (result["attempted"], result["failed"], str(result["correct"]).lower()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
