"""In-process replay of the per-actor layers, for the traced run.

Inside a Ray run, extraction, the gate, parsing, canonicalization, the
event-table build and the shard writes all happen inside actors, where the
benchmark cannot time them.  This replay feeds the workload's pages through
the same public classes and functions in the benchmark process, without Ray,
and times and counts every call into them.
"""

from __future__ import annotations

import os

import pyarrow.compute as pc


def replay(tracer, corpus, registry, out_dir):
    """Run every corpus file through extract → gate/parse → shard write once."""
    from pybel_ray import canon, fsio
    from pybel_ray.export import triples as export_triples
    from pybel_ray.parsing import document
    from pybel_ray.stages import extract, gate, parse_stage

    n = {"statements": 0, "warnings": 0, "passed": 0, "event_rows": 0,
         "event_bytes": 0, "write_bytes": 0}

    def on_document(args, result):
        n["statements"] += result.n_statements
        n["warnings"] += len(result.errors)

    def on_gate(args, passed):
        n["passed"] += bool(passed)

    def on_events(args, table):
        n["event_rows"] += table.num_rows
        n["event_bytes"] += table.nbytes

    def on_write(args, _):
        n["write_bytes"] += os.path.getsize(args[2])

    tracer.instrument("parsing", document.compile_document, on_document)
    tracer.instrument("stages.gate", gate.looks_like_bel, on_gate)
    tracer.instrument("canon.node_to_bel", canon.node_to_bel)
    tracer.instrument("canon.canonical_json", canon.canonical_json)
    tracer.instrument("canon.edge_md5", canon.edge_md5)
    tracer.instrument("export.triples.edge_to_triple", export_triples.edge_to_triple)
    tracer.instrument("fsio.write", fsio.write_parquet_atomic, on_write)
    tracer.instrument_method("stages.extract", extract.ExtractText, "__call__")
    tracer.instrument_method("stages.parse_stage", parse_stage.ParseDocuments, "__call__", on_events)

    pages = html_in = 0
    try:
        with tracer.span("replay"):
            extractor = extract.ExtractText()
            parser = parse_stage.ParseDocumentsToDir(
                out_dir=os.path.join(out_dir, "events"),
                triples_dir=os.path.join(out_dir, "triples"),
                registry=registry,
            )
            os.makedirs(parser.out_dir, exist_ok=True)
            os.makedirs(parser.triples_dir, exist_ok=True)
            for table in corpus.files:
                pages += table.num_rows
                html_only = pc.is_null(table.column("text"))
                html_in += sum(len(h) for h in pc.filter(table.column("html"), html_only).to_pylist())
                parser(extractor(table))
    finally:
        tracer.restore()

    calls = tracer.calls
    parse_busy = calls["parsing"].busy_s
    return {
        "stages.extract.busy_s": (calls["stages.extract"].busy_s, "s"),
        "stages.extract.pages": (pages, "count"),
        "stages.extract.mb_in": (html_in / 1e6, "MB"),
        "stages.gate.busy_s": (calls["stages.gate"].busy_s, "s"),
        "stages.gate.pages_in": (calls["stages.gate"].calls, "count"),
        "stages.gate.pages_passed": (n["passed"], "count"),
        "parsing.busy_s": (parse_busy, "s"),
        "parsing.statements": (n["statements"], "count"),
        "parsing.statements_per_s": (n["statements"] / parse_busy if parse_busy else 0.0, "1/s"),
        "parsing.warnings": (n["warnings"], "count"),
        "canon.node_to_bel.calls_per_statement": (
            calls["canon.node_to_bel"].calls / max(1, n["statements"]), "ratio"),
        "canon.canonical_json.calls": (calls["canon.canonical_json"].calls, "count"),
        "canon.edge_md5.calls": (calls["canon.edge_md5"].calls, "count"),
        "export.triples.edge_to_triple.busy_s": (calls["export.triples.edge_to_triple"].busy_s, "s"),
        # the event-table build alone: the parse actor's call minus the
        # grammar (parsing) and the gate it calls
        "stages.parse_stage.busy_s": (
            calls["stages.parse_stage"].busy_s - parse_busy - calls["stages.gate"].busy_s, "s"),
        "stages.parse_stage.event_rows": (n["event_rows"], "count"),
        "stages.parse_stage.bytes_per_row": (n["event_bytes"] / max(1, n["event_rows"]), "B"),
        "fsio.write.busy_s": (calls["fsio.write"].busy_s, "s"),
        "fsio.write.files": (calls["fsio.write"].calls, "count"),
        "fsio.write.mb": (n["write_bytes"] / 1e6, "MB"),
    }

