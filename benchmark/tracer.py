"""Run one bnbprice CLI command and record what its own process used.

Usage: python3 tracer.py RESULT_JSON TRACE CLI_ARG...

RESULT_JSON receives the peak RSS of this process's own address space
(VmHWM). The kernel folds the high-water mark of the parent's address
space into a vfork-and-exec child's ru_maxrss, so wait4 would report at
least the benchmark's own peak; VmHWM counts only the program.

With TRACE 1 it also receives spans around the public functions of
each layer. The program is not edited: each function is replaced, in
the namespace its caller looks it up in, by a wrapper that times the
call and hands its duration to the enclosing span, so a span's self
time is its duration minus its children's. Spans stay in memory and are
written when the command ends. The environment variable BNB_BENCH_SPAWN
carries the parent's time.time() just before it started this process,
which gives interpreter plus import time before main.
"""

import json
import os
import sys
import threading
import time

from bnbprice import cli, evalreport, geofeat, ingest, serialize, synth, textfeat, transform
from bnbprice.models import registry


def _stream_bytes(args, kwargs, result):
    return os.path.getsize(args[0].name)


def _path_bytes(index):
    return lambda args, kwargs, result: os.path.getsize(args[index])


# span name -> (module whose attribute the caller reads, attribute, work measure)
TARGETS = [
    ("ingest.parse_listings", ingest, "parse_listings", _stream_bytes),
    ("ingest.parse_reviews", ingest, "parse_reviews", _stream_bytes),
    ("ingest.join_dataset", ingest, "join_dataset", None),
    ("ingest.dataset_to_doc", ingest, "dataset_to_doc", None),
    ("ingest.dataset_from_doc", ingest, "dataset_from_doc", None),
    ("serialize.dump_file", serialize, "dump_file", _path_bytes(1)),
    ("serialize.load_file", serialize, "load_file", _path_bytes(0)),
    ("textfeat.build_vocab", textfeat, "build_vocab", None),
    ("textfeat.tfidf_vector", textfeat, "tfidf_vector", None),
    ("textfeat.listing_sentiment", textfeat, "listing_sentiment", None),
    ("geofeat.kmeans_fit", geofeat, "kmeans_fit",
     lambda a, kw, result: result.iterations_run),
    ("geofeat.assign_all", geofeat, "assign_all", None),
    ("geofeat.clusters_svg", geofeat, "clusters_svg", None),
    ("transform.fit_pipeline", transform, "fit_pipeline", None),
    ("transform.assemble_matrix", transform, "assemble_matrix",
     lambda a, kw, result: result.values.shape[0]),
    ("transform.pipeline_from_doc", transform, "pipeline_from_doc", None),
    ("models.gbdt.fit", registry, "gbdt_fit", lambda a, kw, result: len(result.trees)),
    ("models.gbdt.predict", registry, "gbdt_predict",
     lambda a, kw, result: a[1].shape[0] * len(a[0].trees)),
    ("models.ridge.fit", registry, "ridge_fit", None),
    ("models.mlp.fit", registry, "mlp_fit", lambda a, kw, result: kw["epochs"]),
    ("models.grid.search", cli, "grid_search", None),
    ("models.registry.model_to_doc", evalreport, "model_to_doc", None),
    ("models.registry.model_from_doc", cli, "model_from_doc", None),
    ("evalreport.emit_report", evalreport, "emit_report", None),
    ("synth.generate", synth, "generate", None),
]


class Tracer:
    """Per-name totals [calls, seconds, self seconds, work] plus top-level intervals."""

    def __init__(self):
        self.totals = {}
        self.top = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def wrap(self, name, fn, measure):
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            frame = [0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                with self._lock:
                    if not stack:
                        self.top.append((t0, t1))
                    tot = self.totals.setdefault(name, [0, 0.0, 0.0, 0.0])
                    tot[0] += 1
                    tot[1] += dur
                    tot[2] += dur - frame[0]
            if measure is not None:
                work = measure(args, kwargs, result)
                with self._lock:
                    self.totals[name][3] += work
            return result
        return traced

    def install(self):
        for name, module, attr, measure in TARGETS:
            setattr(module, attr, self.wrap(name, getattr(module, attr), measure))


def covered_seconds(intervals):
    """Length of the union of (start, end) intervals."""
    total = 0.0
    end = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def peak_rss_mb():
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main():
    result_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    tracer = Tracer()
    if trace:
        tracer.install()
    startup = time.time() - float(os.environ["BNB_BENCH_SPAWN"])
    code = 1
    try:
        code = cli.main(argv)
    finally:
        with open(result_path, "w", encoding="utf-8") as fh:
            json.dump({"peak_rss_mb": peak_rss_mb(), "startup_s": startup,
                       "covered_s": covered_seconds(tracer.top),
                       "totals": tracer.totals}, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
