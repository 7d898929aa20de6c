"""Command line entry point: ingest, train, predict, synth.

Exit code 0 means every requested output was written; on failure the
partial outputs of the failing command are removed and the code is 2.
"""

import argparse
import logging
import math
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import evalreport, geofeat, ingest, serialize, synth, transform
from .config import ConfigError, load_config
from .models import fit_model, grid_search, model_from_doc, params_from_entry, predict_model
from .textfeat import load_lexicon, load_stopwords

log = logging.getLogger("bnbprice")


class CliError(ValueError):
    """User-facing command error, reported and mapped to exit code 2."""


def _claim(outputs, path):
    outputs.append(Path(path))
    return Path(path)


def _discard(outputs):
    for p in outputs:
        try:
            p.unlink()
        except OSError:
            pass


def _load_cfg(args):
    return load_config(args.config, {"out": args.out, "seed": args.seed})


def _load_doc(path, from_doc, what):
    """from_doc of a JSON file; an unreadable or malformed file is a CliError naming it."""
    try:
        return from_doc(serialize.load_file(path))
    except (OSError, ValueError) as exc:
        raise CliError("cannot load %s %s: %s" % (what, path, exc))
    except (KeyError, IndexError, TypeError) as exc:  # below the checked top-level keys
        raise CliError("cannot load %s %s: %s %s" % (what, path, type(exc).__name__, exc))


def _read_csv(path, parse, *extra):
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return parse(fh, *extra)
    except OSError as exc:
        raise CliError("cannot read %s: %s" % (path, exc))


def cmd_ingest(args):
    cfg = _load_cfg(args)
    if not cfg.cities:
        raise CliError("config has no cities to ingest")
    for label, paths in cfg.cities.items():
        if not isinstance(paths, dict) or "listings" not in paths or "reviews" not in paths:
            raise CliError("city %r needs listings and reviews paths" % label)

    def one_city(item):
        label, paths = item
        listings, ldrops = _read_csv(paths["listings"], ingest.parse_listings, label)
        reviews, rdrops = _read_csv(paths["reviews"], ingest.parse_reviews)
        return listings, reviews, ldrops, rdrops

    pairs = list(cfg.cities.items())
    if args.threads > 1:
        # results come back in submission order, so the merged dataset is
        # identical at any thread count
        with ThreadPoolExecutor(max_workers=args.threads) as pool:
            results = list(pool.map(one_city, pairs))
    else:
        results = [one_city(p) for p in pairs]

    all_listings = []
    all_reviews = []
    drops = {}
    for listings, reviews, ldrops, rdrops in results:
        all_listings.extend(listings)
        all_reviews.extend(reviews)
        for table in (ldrops, rdrops):
            for reason, count in table.items():
                drops[reason] = drops.get(reason, 0) + count
    dataset = ingest.join_dataset(all_listings, all_reviews, drops)

    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []
    try:
        dataset_path = Path(cfg.dataset) if cfg.dataset else out_dir / "dataset.json"
        serialize.dump_file(ingest.dataset_to_doc(dataset), _claim(outputs, dataset_path))
        serialize.dump_file(dataset.drop_log, _claim(outputs, out_dir / "drop_log.json"))
    except BaseException:
        _discard(outputs)
        raise
    n_reviews = sum(len(v) for v in dataset.reviews_by_listing.values())
    log.info("ingested %d listings and %d reviews from %d city file pairs (%d rows dropped)",
             len(dataset.listings), n_reviews, len(pairs),
             sum(dataset.drop_log.values()))
    return 0


def _fit_entry(cfg, index, entry, mat_train, mat_val, grid_docs):
    kind = entry["kind"]
    params = {k: v for k, v in entry.items() if k != "kind"}
    if cfg.grid is not None and cfg.grid.get("model", 0) == index:
        best_params, cells, model = grid_search(
            kind, cfg.grid["params"], mat_train, mat_val,
            base_params=params, seed=cfg.seed)
        params.update(best_params)
        grid_docs.append({"model_index": index, "kind": kind,
                          "best_params": best_params, "cells": cells})
    else:
        model = fit_model(kind, params, mat_train.values, mat_train.target,
                          seed=cfg.seed)
    return kind, serialize.dataclass_to_doc(params_from_entry(kind, params)), model


def cmd_train(args):
    cfg = _load_cfg(args)
    dataset_path = Path(cfg.dataset) if cfg.dataset else Path(cfg.out) / "dataset.json"
    dataset = _load_doc(dataset_path, ingest.dataset_from_doc, "dataset")
    lexicon = load_lexicon(cfg.lexicon or synth.default_lexicon_path())
    stopwords = load_stopwords(cfg.stopwords or synth.default_stopwords_path())

    split = evalreport.split_dataset(len(dataset.listings), cfg.split_ratios, cfg.seed)
    fitted = transform.fit_pipeline(dataset, split.train, cfg, lexicon, stopwords)
    mat_train = transform.assemble_matrix(dataset, split.train, fitted)
    mat_val = transform.assemble_matrix(dataset, split.val, fitted)
    mat_test = transform.assemble_matrix(dataset, split.test, fitted)

    grid_docs = []
    model_results = []
    for i, entry in enumerate(cfg.models):
        kind, effective, model = _fit_entry(cfg, i, entry, mat_train, mat_val, grid_docs)
        scores = [evalreport.metrics(mat.target, predict_model(model, mat.values))
                  for mat in (mat_train, mat_val, mat_test)]
        model_results.append(evalreport.ModelResult(
            kind=kind, params=effective, model=model,
            train=scores[0], val=scores[1], test=scores[2]))
        log.info("model %d (%s): val mse %.5f, test mse %.5f, test r2 %.4f",
                 i, kind, scores[1].mse, scores[2].mse, scores[2].r2)

    city_order = []
    for rec in dataset.listings:
        if rec.city not in city_order:
            city_order.append(rec.city)
    summary = {
        "n_listings": len(dataset.listings),
        "n_reviews": sum(len(v) for v in dataset.reviews_by_listing.values()),
        "cities": city_order,
        "n_features": len(fitted.columns),
    }
    results = evalreport.RunResults(
        config_doc=serialize.dataclass_to_doc(cfg),
        dataset_summary=summary,
        split=split,
        columns=tuple(c.name for c in fitted.columns),
        models=tuple(model_results),
        grid=tuple(grid_docs),
        pipeline_doc=transform.pipeline_to_doc(fitted),
    )

    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []
    try:
        written = evalreport.emit_report(results, out_dir, cfg.importance_top_n,
                                         register=outputs)
        if cfg.cluster_svg:
            points = np.array([[dataset.listings[i].latitude,
                                dataset.listings[i].longitude]
                               for i in split.train])
            labels = geofeat.assign_all(points, fitted.clusters)
            path = _claim(outputs, out_dir / "clusters.svg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(geofeat.clusters_svg(points, labels, fitted.clusters))
            written.append(path)
    except BaseException:
        _discard(outputs)
        raise
    log.info("wrote %d report files to %s", len(written), out_dir)
    return 0


def cmd_predict(args):
    out_dir = Path(args.out) if args.out else Path("out")
    pipeline_path = args.pipeline or out_dir / "pipeline.json"
    fitted = _load_doc(pipeline_path, transform.pipeline_from_doc, "pipeline")
    model = _load_doc(args.model, model_from_doc, "model")

    listings, ldrops = _read_csv(args.listings, ingest.parse_listings, "predict")
    reviews = []
    if args.reviews:
        reviews, rdrops = _read_csv(args.reviews, ingest.parse_reviews)
        for reason, count in rdrops.items():
            ldrops[reason] = ldrops.get(reason, 0) + count
    dataset = ingest.join_dataset(listings, reviews, ldrops)
    matrix = transform.assemble_matrix(dataset, range(len(dataset.listings)), fitted)
    pred = predict_model(model, matrix.values)
    if sum(ldrops.values()):
        log.info("skipped %d unusable input rows", sum(ldrops.values()))

    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []
    try:
        path = _claim(outputs, out_dir / "predictions.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("id,ln_price_pred,price_pred\n")
            for lid, ln_pred in zip(matrix.ids, pred):
                fh.write("%d,%s,%s\n" % (lid, serialize.format_float(float(ln_pred)),
                                         serialize.format_float(math.exp(float(ln_pred)))))
    except BaseException:
        _discard(outputs)
        raise
    log.info("wrote %d predictions to %s", len(matrix.ids), path)
    return 0


def cmd_synth(args):
    seed = args.seed if args.seed is not None else 1
    spec = synth.SynthSpec(n_listings=args.n, n_cities=args.cities,
                           seed=seed, noise_sigma=args.noise_sigma)
    listings, reviews, truth = synth.generate(spec)
    out_dir = Path(args.out) if args.out else Path("synth")
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []
    try:
        for name, blob in (("listings.csv", listings), ("reviews.csv", reviews),
                           ("truth.csv", truth)):
            path = _claim(outputs, out_dir / name)
            with open(path, "wb") as fh:
                fh.write(blob)
    except BaseException:
        _discard(outputs)
        raise
    log.info("generated %d listings across %d cities in %s",
             spec.n_listings, spec.n_cities, out_dir)
    return 0


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--out", help="output directory (overrides config)")
    common.add_argument("--threads", type=int, default=1,
                        help="worker threads for ingest parsing (default 1)")
    common.add_argument("--seed", type=int, help="global seed (overrides config)")

    parser = argparse.ArgumentParser(
        prog="bnbprice",
        description="Listing price modelling pipeline: ingest CSV snapshots, "
                    "engineer text/geo features, train and evaluate regressors.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("ingest", parents=[common],
                       help="parse per-city listings/reviews CSVs into one dataset file")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("train", parents=[common],
                       help="fit the feature pipeline and models, emit report files")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", parents=[common],
                       help="score a listings CSV with a trained model")
    p.add_argument("--model", required=True, help="model JSON file")
    p.add_argument("--pipeline", help="pipeline JSON file (default <out>/pipeline.json)")
    p.add_argument("--listings", required=True, help="listings CSV to score")
    p.add_argument("--reviews", help="optional reviews CSV for sentiment features")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("synth", parents=[common],
                       help="generate a synthetic dataset with known ground truth")
    p.add_argument("--n", type=int, default=5000, help="number of listings")
    p.add_argument("--cities", type=int, default=8, help="number of city centers")
    p.add_argument("--noise-sigma", type=float, default=0.15,
                   help="log-price noise standard deviation")
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv=None):
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ConfigError, ingest.IngestError, transform.AssemblyError,
            np.linalg.LinAlgError, RuntimeError, OSError, ValueError) as exc:
        log.error("%s", exc)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
