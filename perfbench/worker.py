"""One measured run of the KG-construction benchmark.

``run.py`` starts this file in a session of its own; it is not meant to be
started by hand.  It makes the workload's pages, computes the expected triples
serially, then compiles and exports the pages through the program's public
calls in whole rounds until the measuring time is used, checking every
round's outputs.  The result goes to ``--result`` as one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import glob
import json
import logging
import os
import shutil
import statistics
import sys
import time
import traceback
from contextlib import nullcontext

import gen

#: Ray's CPU count for every run.  The program's actor pool takes all but one
#: CPU, and with 1 or 2 CPUs it leaves none for the Parquet read, which then
#: never runs (see README); 3 leaves one core of the 4-core host for the
#: benchmark process, raylet and GCS.
RAY_CPUS = 3
OBJECT_STORE_BYTES = 512 << 20
#: rounds per run at least: the median of three is a typical round even when
#: one round stalls (see README).  On crawl_shards one round in four to six
#: has a shard that waits for a CPU held by the previous shard's actors, and
#: some runs have two such rounds, so it takes five.
MIN_ROUNDS = {"crawl_shards": 5}
DEFAULT_MIN_ROUNDS = 3
VIEWS = ("triples", "nodes", "edges")


def build_registry(ResourceRegistry):
    reg = ResourceRegistry()
    for ns, url in gen.NS_URLS.items():
        reg.add_namespace_table(url, [(name, None, gen.ENCODING[ns]) for name in gen.VOCAB[ns]])
    for anno, url in gen.ANNO_URLS.items():
        reg.add_annotation_values(url, gen.ANNOTATIONS[anno])
    return reg


def reference_triples(texts, registry):
    """Serial, in-process triples of every page text: no Ray, extraction or exchange."""
    from pybel_ray.export.triples import edge_to_triple
    from pybel_ray.parsing.document import compile_document

    out = set()
    for text in texts:
        result = compile_document(text, registry)
        nodes = dict(result.nodes)
        for edge in result.edges:
            triple = edge_to_triple(nodes[edge["src_bel"]], edge["data"], nodes[edge["dst_bel"]])
            if triple is not None:
                out.add(tuple(triple))
    return out


def parquet_files(path):
    return sorted(glob.glob(os.path.join(path, "**", "*.parquet"), recursive=True))


def read_dir(path, columns=None):
    """Concatenate the Parquet files under ``path`` in file-name order."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    tables = [pq.read_table(f, columns=columns) for f in parquet_files(path)]
    return pa.concat_tables(tables) if tables else None


def column(table, name):
    return [] if table is None else table.column(name).to_pylist()


def dir_bytes(path):
    return sum(os.path.getsize(f) for f in parquet_files(path))


def release_actors(timeout=30.0):
    """Wait, untimed, until no actor of an earlier execution holds a CPU.

    Ray Data lets a finished actor pool go by dropping its handles, and
    those sit in reference cycles in this process: the actors keep their
    CPUs until the cyclic garbage collector runs.  A fresh job, or a resumed
    one, starts without them.
    """
    import ray

    gc.collect()
    deadline = time.monotonic() + timeout
    while ray.available_resources().get("CPU", 0) < RAY_CPUS:
        if time.monotonic() > deadline:
            raise RuntimeError("Ray CPUs still held {:.0f} s after the last execution".format(timeout))
        time.sleep(0.02)


# -- Ray Data stats (traced run) ----------------------------------------------------


def stats_summaries(ds):
    """Stats of the execution that consumed ``ds`` and of the plans it built on."""
    done = ds._write_ds if ds._write_ds is not None else ds
    todo, out = [done._get_stats_summary()], []
    while todo:
        s = todo.pop()
        out.append(s)
        todo.extend(s.parents)
    return out


def ray_data_metrics(datasets):
    """Task wall and CPU time, rows emitted and backpressure, over every operator."""
    wall = cpu = backpressure = 0.0
    rows_out = 0
    for ds in datasets:
        for s in stats_summaries(ds):
            for op in s.operators_stats:
                wall += (op.wall_time or {}).get("sum", 0.0)
                cpu += (op.cpu_time or {}).get("sum", 0.0)
                if "Write" not in op.operator_name:  # a sink emits write results, not rows
                    rows_out += (op.output_num_rows or {}).get("sum", 0)
            extra = s.extra_metrics or {}
            backpressure += extra.get("task_submission_backpressure_time", 0.0) or 0.0
            backpressure += extra.get("task_output_backpressure_time", 0.0) or 0.0
    return {"wall_s": wall, "cpu_s": cpu, "rows_out": rows_out, "backpressure_s": backpressure}


# -- one round ------------------------------------------------------------------------


class Round:
    """Compile + export of the whole corpus into a fresh output directory."""

    def __init__(self, ctx, index, paths):
        self.ctx = ctx
        self.index = index
        self.paths = paths
        self.out = os.path.join(ctx.scratch, "round-{}".format(index))
        self.ck = os.path.join(self.out, "checkpoint")
        self.failures = []
        self.compile_datasets = []
        self.view_datasets = {}

    def run(self):
        ctx = self.ctx
        import ray.data
        from pybel_ray.pipeline import CheckpointedCompile, compile_pages

        span = ctx.span
        with span("round", index=self.index):
            t0 = time.perf_counter()
            ctx.captured.clear()
            with span("compile"):
                if ctx.sharded:
                    cc = CheckpointedCompile(self.ck, registry=ctx.registry)
                    tables = cc.run(self.paths)
                else:
                    tables = compile_pages(ray.data.read_parquet(self.paths), ctx.registry,
                                           events_dir=self.ck)
            self.compile_s = time.perf_counter() - t0
            traced = ctx.tracer is not None and self.index == 0
            if traced:  # only the first round's, so later rounds' actors can go
                self.compile_datasets = list(ctx.captured)
                self.manifest = tables.manifest
            ctx.captured.clear()
            first_tables = tables
            if ctx.sharded:  # the manifest the resume pass must leave as it is
                self.shards = cc.completed_shards()
            # export_s starts as the compile returns, in the same process and
            # with no collection or wait between, as in the program's own job
            # path (tools/ray_job.py)
            t1 = time.perf_counter()
            with span("export"):
                if ctx.sharded:
                    with span("resume"):
                        tables = CheckpointedCompile(self.ck, registry=ctx.registry).run(self.paths)
                for view in VIEWS:
                    with span("export." + view):
                        ds = getattr(tables, view)()
                        ds.write_parquet(os.path.join(self.out, view))
                    if traced:
                        self.view_datasets[view] = ds
            self.export_s = time.perf_counter() - t1
        first_pass = None
        if ctx.sharded and self.index == 0:  # untimed: the first pass's own triple table
            first_pass = [(r["h"], r["r"], r["t"]) for r in first_tables.triples().take_all()]
        return first_pass

    def check(self, first_pass):
        import pyarrow.parquet as pq

        import checks

        ctx = self.ctx
        tri = read_dir(os.path.join(self.out, "triples"))
        triples = list(zip(column(tri, "h"), column(tri, "r"), column(tri, "t")))
        self.n_triples = len(triples)
        if self.index == 0:
            self.failures += checks.check_triples(triples, ctx.expected, ctx.corpus.planted)
            ctx.first_triples = triples
        elif triples != ctx.first_triples:
            self.failures.append("round {} triples differ from round 0".format(self.index))
        nodes = read_dir(os.path.join(self.out, "nodes"), ["md5", "bel"])
        edges = read_dir(os.path.join(self.out, "edges"), ["edge_md5", "src_md5", "dst_md5"])
        self.n_nodes = 0 if nodes is None else nodes.num_rows
        self.n_edges = 0 if edges is None else edges.num_rows
        self.failures += checks.check_nodes_edges(
            column(nodes, "md5"), column(nodes, "bel"),
            column(edges, "edge_md5"), column(edges, "src_md5"), column(edges, "dst_md5"))
        events = read_dir(os.path.join(self.ck, "events"), ["kind", "url", "gated"])
        kinds = column(events, "kind")
        docs = [k == "doc" for k in kinds]
        doc_failures, self.failed_pages = checks.check_docs(
            [u for u, d in zip(column(events, "url"), docs) if d],
            [g for g, d in zip(column(events, "gated"), docs) if d],
            list(ctx.corpus.texts), ctx.corpus.non_bel)
        self.failures += doc_failures
        self.node_events = kinds.count("node")
        self.edge_events = kinds.count("edge")
        self.triple_rows = sum(
            pq.ParquetFile(f).metadata.num_rows
            for f in parquet_files(os.path.join(self.ck, "triples")))
        self.checkpoint_bytes = dir_bytes(os.path.join(self.ck, "events")) + dir_bytes(
            os.path.join(self.ck, "triples"))
        self.failed_shards = 0
        if ctx.sharded:
            from pybel_ray.pipeline import CheckpointedCompile

            after = CheckpointedCompile(self.ck, registry=ctx.registry).completed_shards()
            self.failed_shards = ctx.n_shards - len(self.shards)
            if first_pass is not None:
                self.failures += checks.check_resume(self.shards, after, first_pass, triples)
            elif after != self.shards:
                self.failures.append("round {} resume pass changed the manifest".format(self.index))

    def cleanup(self):
        shutil.rmtree(self.out, ignore_errors=True)


# -- the run ---------------------------------------------------------------------------


class Run:
    def __init__(self, args):
        self.args = args
        self.workload = args.workload
        self.sharded = args.workload == "crawl_shards"
        self.scratch = args.scratch
        self.tracer = None
        self.captured = []  # Datasets built by the compile (traced run)
        if args.trace:
            from spans import Tracer

            self.tracer = Tracer()

    def span(self, name, **attrs):
        return self.tracer.span(name, **attrs) if self.tracer else nullcontext()

    def setup(self, t_spawn):
        import ray
        import ray.data
        import pybel_ray.pipeline  # noqa: F401  (the package the rounds drive)
        from pybel_ray.resources import ResourceRegistry

        self.import_s = time.time() - t_spawn
        with self.span("setup.ray.init"):
            t0 = time.perf_counter()
            ray.init(
                address="local", num_cpus=RAY_CPUS, num_gpus=0,
                object_store_memory=OBJECT_STORE_BYTES, include_dashboard=False,
                log_to_driver=False, logging_level=logging.WARNING,
                # a path through the cwd link stays short enough for Ray's
                # unix sockets however deep the checkout is
                _temp_dir="/proc/self/cwd/" + os.path.relpath(
                    os.path.join(self.scratch, "ray"), os.getcwd()),
            )
            self.ray_init_s = time.perf_counter() - t0
        with self.span("setup.worker_import"):
            # a worker that cannot import the package would be restarted
            # without end by Ray; fail here instead
            probe = ray.remote(lambda: __import__("pybel_ray.pipeline").__file__)
            t1 = time.perf_counter()
            ray.get(probe.remote(), timeout=60)
            self.probe_s = time.perf_counter() - t1
        self.setup_s = time.time() - t_spawn
        dctx = ray.data.DataContext.get_current()
        dctx.enable_progress_bars = False
        dctx.print_on_execution_start = False
        self.registry = build_registry(ResourceRegistry)

    def make_inputs(self):
        with self.span("inputs.generate"):
            self.corpus = gen.build_corpus(self.workload, self.args.seed)
            self.paths = gen.write_corpus(self.corpus, os.path.join(self.scratch, "pages"))
            self.n_shards = len(self.paths)
        with self.span("inputs.reference"):
            self.expected = reference_triples(self.corpus.texts.values(), self.registry)

    def warm_up(self):
        """One untimed Ray Data execution (read, map, hash exchange).

        The first execution in a Ray session starts Ray Data's helper actors
        and task workers, which would otherwise slow only the first round.
        """
        import ray.data

        with self.span("warm_up"):
            ds = ray.data.read_parquet(self.paths, columns=["url", "lang"])
            ds.map_batches(lambda t: t, batch_format="pyarrow").groupby("lang").count().materialize()

    def measure(self):
        from procs import RssSampler

        rounds = []
        start = time.perf_counter()
        with RssSampler(os.getsid(0)) as rss:
            min_rounds = MIN_ROUNDS.get(self.workload, DEFAULT_MIN_ROUNDS)
            while len(rounds) < min_rounds or time.perf_counter() - start < self.args.seconds:
                release_actors()  # each round stands for a fresh job
                rnd = Round(self, len(rounds), self.paths)
                rnd.check(rnd.run())
                rounds.append(rnd)
                rnd.cleanup()
        self.rounds = rounds
        self.rss = rss

    def result(self):
        rounds = self.rounds
        compile_s = statistics.median(r.compile_s for r in rounds)
        export_s = statistics.median(r.export_s for r in rounds)
        n_triples = rounds[0].n_triples
        failures = [f for r in rounds for f in r.failures]
        attempted = len(rounds) * (self.corpus.n_pages + (self.n_shards if self.sharded else 0))
        failed = sum(r.failed_pages + r.failed_shards for r in rounds)
        if self.tracer:
            metrics = self.layer_metrics(compile_s, export_s)
        else:
            metrics = {
                "setup_s": (self.setup_s, "s"),
                "compile_s": (compile_s, "s"),
                "export_s": (export_s, "s"),
                "triples_per_s": (n_triples / (compile_s + export_s), "triples/s"),
                "checkpoint_mb": (statistics.median(r.checkpoint_bytes for r in rounds) / 1e6, "MB"),
                "peak_rss_mb": (self.rss.peak_total / 1e6, "MB"),
            }
        return {
            "correct": not failures,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }, failures, {
            "setup": {"import_s": self.import_s, "ray_init_s": self.ray_init_s,
                      "probe_s": self.probe_s},
            "rounds": len(rounds),
            "compile_s": [r.compile_s for r in rounds],
            "export_s": [r.export_s for r in rounds],
            "triples": n_triples, "nodes": rounds[0].n_nodes, "edges": rounds[0].n_edges,
            "pages": self.corpus.n_pages, "non_bel": self.corpus.non_bel,
            "planted": len(self.corpus.planted), "rss_samples": self.rss.samples,
        }

    # -- traced run ----------------------------------------------------------------------

    def layer_metrics(self, compile_s, export_s):
        import layers
        from pybel_ray import pipeline

        first = self.rounds[0]
        m = {"ray.init_s": (self.ray_init_s, "s")}
        m.update(layers.replay(self.tracer, self.corpus, self.registry,
                               os.path.join(self.scratch, "replay")))
        if self.sharded:
            shard_s = [e["seconds"] for e in first.shards.values()]
        else:
            shard_s = [first.compile_s]
        m["pipeline.executions"] = (len(first.compile_datasets), "count")
        m["pipeline.actor_pool_size"] = (pipeline._default_concurrency(), "count")
        m["pipeline.shard_s_p50"] = (statistics.median(shard_s), "s")
        m["pipeline.shard_s_max"] = (max(shard_s), "s")
        rows_in = {"triples": first.triple_rows, "nodes": first.node_events, "edges": first.edge_events}
        rows_out = {"triples": first.n_triples, "nodes": first.n_nodes, "edges": first.n_edges}
        for view in VIEWS:
            m["stages.dedup.{}.wall_s".format(view)] = (
                statistics.median(self.tracer.durations("export." + view)), "s")
            m["stages.dedup.{}.rows_in".format(view)] = (rows_in[view], "count")
            m["stages.dedup.{}.rows_out".format(view)] = (rows_out[view], "count")
        compile_ds = [first.manifest] if first.manifest is not None else first.compile_datasets
        groups = [("compile", compile_ds)] + [(v, [first.view_datasets[v]]) for v in VIEWS]
        units = {"wall_s": "s", "cpu_s": "s", "rows_out": "count", "backpressure_s": "s"}
        for name, datasets in groups:
            for key, value in ray_data_metrics(datasets).items():
                m["ray_data.{}.{}".format(name, key)] = (value, units[key])
        m["workers.peak_rss_mb"] = (self.rss.peak_workers / 1e6, "MB")
        m["traced.compile_s"] = (compile_s, "s")
        m["traced.export_s"] = (export_s, "s")
        return m

    def capture_compile_datasets(self):
        """Keep every Dataset the compile builds, for its Ray Data stats."""
        from pybel_ray import pipeline

        self.tracer.instrument(
            "pipeline.events_pipeline", pipeline.events_pipeline,
            on_result=lambda args, ds: self.captured.append(ds))


def main(argv=None):
    t_spawn = float(os.environ["PERFBENCH_T_SPAWN"])
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scratch", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace-out")
    args = ap.parse_args(argv)

    import ray

    run = Run(args)
    try:
        run.setup(t_spawn)
        run.make_inputs()
        run.warm_up()
        if run.tracer:
            run.capture_compile_datasets()
        run.measure()
        result, failures, info = run.result()
    finally:
        if run.tracer:
            run.tracer.restore()
        ray.shutdown()
    for f in failures:
        print("CHECK FAILED: " + f, file=sys.stderr)
    if run.tracer and args.trace_out:
        run.tracer.write(args.trace_out, {"workload": args.workload, "seed": args.seed,
                                          "info": info, "metrics": result["metrics"]})
    with open(args.result, "w") as f:
        json.dump({"result": result, "info": info}, f)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
