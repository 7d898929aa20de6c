"""Command line entry point: ingest, train, predict, synth.

Exit code 0 means every requested output was written; on failure the code
is 2 and the earlier run's outputs are as they were (see _committing).
"""

import argparse
import contextlib
import csv
import logging
import math
import os
import shutil
import tempfile
from pathlib import Path

from . import evalreport, geofeat, ingest, np, serialize, synth, transform
from .config import load_config
from .models import fit_model, grid_search, model_from_doc, params_from_entry, predict_model
from .textfeat import load_lexicon, load_stopwords

log = logging.getLogger("bnbprice")


class CliError(ValueError):
    """User-facing command error, reported and mapped to exit code 2."""


@contextlib.contextmanager
def _committing():
    """Yield stage(directory): an empty .staging-* directory in directory, made on first
    use. When the block returns, each staged file replaces its namesake in directory; if
    a move fails, the files moved before it are removed. Staging directories always go."""
    staged = {}

    def stage(directory):
        directory = Path(directory)
        if directory not in staged:
            directory.mkdir(parents=True, exist_ok=True)
            staged[directory] = Path(tempfile.mkdtemp(prefix=".staging-", dir=directory))
        return staged[directory]

    moved = []
    try:
        yield stage
        for directory, staging in staged.items():
            for name in sorted(os.listdir(staging)):
                try:
                    os.replace(staging / name, directory / name)
                except OSError as exc:
                    for path in moved:
                        with contextlib.suppress(OSError):
                            path.unlink()
                    raise CliError("cannot write %s: %s" % (directory / name, exc.strerror))
                moved.append(directory / name)
    finally:
        for staging in staged.values():
            shutil.rmtree(staging, ignore_errors=True)


def _load_cfg(args):
    return load_config(args.config, {"out": args.out, "seed": args.seed})


def _load_doc(path, from_doc, what):
    """from_doc of a JSON file; an unreadable or malformed file is a CliError naming it."""
    try:
        return from_doc(serialize.load_file(path))
    except (OSError, ValueError) as exc:
        raise CliError("cannot load %s %s: %s" % (what, path, exc))
    except (KeyError, IndexError, TypeError, OverflowError) as exc:  # below the checked keys
        raise CliError("cannot load %s %s: %s %s" % (what, path, type(exc).__name__, exc))


def _read_csv(path, parse, *extra, **options):
    """parse(open file, ...); an unreadable, undecodable or malformed file is a CliError
    naming it."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return parse(fh, *extra, **options)
    except (OSError, csv.Error, UnicodeDecodeError, ingest.IngestError) as exc:
        raise CliError("cannot read %s: %s" % (path, exc))


def cmd_ingest(args):
    cfg = _load_cfg(args)
    if not cfg.cities:
        raise CliError("config has no cities to ingest")

    all_listings = []
    all_reviews = []
    drops = []
    for label, files in cfg.cities.items():
        listings, ldrops = _read_csv(files.listings, ingest.parse_listings, label)
        reviews, rdrops = _read_csv(files.reviews, ingest.parse_reviews)
        all_listings += listings
        all_reviews += reviews
        drops += ldrops + rdrops
    dataset = ingest.join_dataset(all_listings, all_reviews, ingest.tally(drops))

    with _committing() as stage:
        serialize.dump_file(ingest.dataset_to_doc(dataset),
                            stage(cfg.dataset_path.parent) / cfg.dataset_path.name)
        serialize.dump_file(dataset.drop_log, stage(cfg.out) / "drop_log.json")
    n_reviews = sum(len(v) for v in dataset.reviews_by_listing.values())
    log.info("ingested %d listings and %d reviews from %d city file pairs (%d rows dropped)",
             len(dataset.listings), n_reviews, len(cfg.cities),
             sum(dataset.drop_log.values()))
    return 0


def _fit_entry(cfg, index, entry, mat_train, mat_val, grid_docs):
    kind = entry["kind"]
    params = {k: v for k, v in entry.items() if k != "kind"}
    if cfg.grid is not None and cfg.grid.model == index:
        best_params, cells, model = grid_search(
            kind, cfg.grid.params, mat_train, mat_val,
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
    dataset = _load_doc(cfg.dataset_path, ingest.dataset_from_doc, "dataset")
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

    summary = {
        "n_listings": len(dataset.listings),
        "n_reviews": sum(len(v) for v in dataset.reviews_by_listing.values()),
        "cities": list(dict.fromkeys(rec.city for rec in dataset.listings)),
        "n_features": len(fitted.columns),
    }
    results = evalreport.RunResults(
        config_doc=serialize.dataclass_to_doc(cfg),
        dataset_summary=summary,
        split=split,
        columns=fitted.columns,
        models=tuple(model_results),
        grid=tuple(grid_docs),
        pipeline_doc=transform.pipeline_to_doc(fitted),
    )

    with _committing() as stage:
        staging = stage(cfg.out)
        evalreport.emit_report(results, staging, cfg.importance_top_n)
        if cfg.cluster_svg:
            points = np.array([[dataset.listings[i].latitude,
                                dataset.listings[i].longitude]
                               for i in split.train])
            labels = geofeat.assign_all(points, fitted.clusters)
            with open(staging / "clusters.svg", "w", encoding="utf-8") as fh:
                fh.write(geofeat.clusters_svg(points, labels, fitted.clusters))
        n_written = len(os.listdir(staging))
    log.info("wrote %d report files to %s", n_written, cfg.out)
    return 0


def cmd_predict(args):
    out_dir = Path(_load_cfg(args).out)
    pipeline_path = args.pipeline or out_dir / "pipeline.json"
    fitted = _load_doc(pipeline_path, transform.pipeline_from_doc, "pipeline")
    model, trained_with = _load_doc(
        args.model, lambda doc: (model_from_doc(doc), doc["pipeline_sha256"]), "model")
    if serialize.sha256_hex(Path(pipeline_path).read_bytes()) != trained_with:
        raise CliError("model %s was not trained with pipeline %s: its pipeline_sha256 does "
                       "not match the file" % (args.model, pipeline_path))

    listings, drops = _read_csv(args.listings, ingest.parse_listings, "predict",
                                require_price=False)
    reviews, rdrops = _read_csv(args.reviews, ingest.parse_reviews) if args.reviews else ([], [])
    dataset = ingest.join_dataset(listings, reviews, ingest.tally(rdrops))
    dropped = ingest.tally(drops)
    if not dataset.listings:
        raise CliError("no listing in %s can be scored (%s)"
                       % (args.listings, _tallies(dropped) or "no data rows"))
    matrix = transform.assemble_matrix(dataset, range(len(dataset.listings)), fitted)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite score is refused below
        pred = predict_model(model, matrix.values)

    with _committing() as stage:
        staging = stage(out_dir)
        with open(staging / "predictions.csv", "w", encoding="utf-8", newline="") as fh:
            fh.write("id,ln_price_pred,price_pred\n")
            try:
                for lid, ln_pred in zip(matrix.ids, pred):
                    fh.write("%d,%s,%s\n" % (lid, serialize.format_float(ln_pred),
                                             serialize.format_float(math.exp(ln_pred))))
            except (ValueError, OverflowError):  # format_float refuses inf and NaN
                raise CliError("model %s gives listing %d the ln price %r, whose price is "
                               "not a finite float" % (args.model, lid, float(ln_pred)))
        with open(staging / "predict_drops.csv", "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows([ingest.Drop._fields, *drops])
    log.info("wrote %d predictions to %s", len(matrix.ids), out_dir / "predictions.csv")
    if dropped or dataset.drop_log:
        log.info("listing rows dropped: %s, listed in %s; review rows not used: %s",
                 _tallies(dropped) or "none", out_dir / "predict_drops.csv",
                 _tallies(dataset.drop_log) or "none")
    return 0


def _tallies(counts):
    return ", ".join("%s %d" % item for item in counts.items())


def cmd_synth(args):
    seed = args.seed if args.seed is not None else 1
    spec = synth.SynthSpec(n_listings=args.n, n_cities=args.cities,
                           seed=seed, noise_sigma=args.noise_sigma)
    listings, reviews, truth = synth.generate(spec)
    out_dir = Path(args.out) if args.out else Path("synth")
    with _committing() as stage:
        for name, blob in (("listings.csv", listings), ("reviews.csv", reviews),
                           ("truth.csv", truth)):
            with open(stage(out_dir) / name, "wb") as fh:
                fh.write(blob)
    log.info("generated %d listings across %d cities in %s",
             spec.n_listings, spec.n_cities, out_dir)
    return 0


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--out", help="output directory (overrides config)")
    common.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility; ingest parses in one "
                             "thread and the value changes nothing")
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
    # ValueError also covers numpy's LinAlgError
    except (CliError, ingest.IngestError, transform.AssemblyError,
            RuntimeError, OSError, ValueError) as exc:
        log.error("%s", exc)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
