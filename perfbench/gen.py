"""Seeded page generator and spec oracle for the KG-construction benchmark.

This module is the benchmark's own source of inputs and of expected outputs.
It imports nothing from ``pybel_ray``, so a change to the program cannot
change the workload.  Every page is a pure function of (workload, seed, page
index); the same seed gives byte-identical Parquet files.

Page rows follow the crawl schema ``(url, warc_ts, html, text, lang)``.  Each
BEL page carries one BEL document.  Some of its statements come from a small
set of *planted* forms whose (h, r, t) triples the spec oracle below derives
from the statement spec alone, without the program.  The rest are broader
BEL forms that only the serial reference pass checks.
"""

from __future__ import annotations

import html as html_mod
import random
import re
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from typing import Dict, List, NamedTuple, Set, Tuple

import pyarrow as pa

PAGES_SCHEMA = pa.schema([
    ("url", pa.string()),
    ("warc_ts", pa.timestamp("us")),
    ("html", pa.binary()),
    ("text", pa.string()),
    ("lang", pa.string()),
])

# -- vocabularies ------------------------------------------------------------

NS_URLS = {
    "HGNC": "bench://ns/genes.belns",
    "CHEBI": "bench://ns/chemicals.belns",
    "GO": "bench://ns/processes.belns",
    "MESHD": "bench://ns/diseases.belns",
}
#: BEL encoding letters: which functions may use each namespace's names
ENCODING = {"HGNC": "GRP", "CHEBI": "A", "GO": "B", "MESHD": "O"}
ANNO_URLS = {
    "Species": "bench://anno/species.belanno",
    "Tissue": "bench://anno/tissue.belanno",
}

VOCAB: Dict[str, List[str]] = {
    # every fifth gene carries a hyphen, so its label must be quoted
    "HGNC": [
        "KRT-{}".format(i) if i % 5 == 0 else "PBG{:03d}".format(i)
        for i in range(1, 201)
    ],
    "CHEBI": (
        ["cmpd{:03d}".format(i) for i in range(1, 51)]
        + ["compound {} acid".format(i) for i in range(1, 51)]
    ),
    "GO": ["signalling pathway {}".format(i) for i in range(1, 61)],
    "MESHD": ["syndrome type {}".format(i) for i in range(1, 41)],
}
ANNOTATIONS = {
    "Species": ["9606", "10090", "10116"],
    "Tissue": ["liver", "lung", "brain", "kidney", "heart", "skin"],
}
_VOCAB_SETS = {ns: frozenset(names) for ns, names in VOCAB.items()}


def quote(name: str) -> str:
    """BEL quoting rule: a name that is not purely alphanumeric is quoted."""
    return name if name.isalnum() else '"{}"'.format(name)


class Term(NamedTuple):
    """A simple BEL term ``fn(NS:name)``."""

    fn: str
    ns: str
    name: str

    @property
    def curie(self) -> str:
        return "{}:{}".format(self.ns, quote(self.name))

    @property
    def bel(self) -> str:
        return "{}({})".format(self.fn, self.curie)


# -- spec oracle ---------------------------------------------------------------
#
# Planted statement specs:
#   ("edge", subject Term, relation, object Term)
#   ("pmod", Term, residue position, object Term)    p(X, pmod(Ph, Ser, n)) -> bp(Y)
#   ("complex", Term, Term, object Term)             complex(p(A), p(B)) -> bp(Y)

_AMOUNT = {"increases": "increasesAmountOf", "decreases": "decreasesAmountOf"}
_SYMMETRIC = {"association", "positiveCorrelation", "negativeCorrelation"}
_RELATION_SYNTAX = {
    "increases": ("->", "increases"),
    "decreases": ("-|", "decreases"),
    "association": ("--", "association"),
    "positiveCorrelation": ("pos", "positiveCorrelation"),
    "negativeCorrelation": ("neg", "negativeCorrelation"),
    "isA": ("isA",),
}


def edge_triples(subj: str, relation: str, obj: str) -> List[Tuple[str, str, str]]:
    """Triples of an unmodified edge between two node labels.

    A label is the CURIE of a simple term, and the BEL of a node with
    variants.  Amount relations hold between proteins, or from a chemical
    to a process; a chemical acting on a pathology keeps its relation.
    """
    if relation in _AMOUNT:
        return [(subj, _AMOUNT[relation], obj)]
    if relation == "isA":
        return [(subj, "isA", obj)]
    if relation in _SYMMETRIC:
        return [(subj, relation, obj), (obj, relation, subj)]
    raise ValueError("no oracle rule for relation {!r}".format(relation))


def pmod_bel(parent: Term, position: int) -> str:
    return "p({}, pmod(Ph, Ser, {}))".format(parent.curie, position)


def pmod_triples(parent: Term, position: int) -> List[Tuple[str, str, str]]:
    """A modified protein node implies ``parent hasVariant node``."""
    return [(parent.curie, "hasVariant", pmod_bel(parent, position))]


def complex_bel(members) -> str:
    return "complex({})".format(", ".join(sorted(m.bel for m in members)))


def complex_triples(members) -> List[Tuple[str, str, str]]:
    """A member-list complex implies ``member partOf complex`` per member."""
    bel = complex_bel(members)
    return [(m.curie, "partOf", bel) for m in sorted(set(members))]


def spec_triples(spec) -> List[Tuple[str, str, str]]:
    """Every triple the spec oracle expects from one planted statement."""
    kind = spec[0]
    if kind == "edge":
        return edge_triples(spec[1].curie, spec[2], spec[3].curie)
    if kind == "pmod":
        _, parent, position, obj = spec
        return pmod_triples(parent, position) + [
            (pmod_bel(parent, position), "increasesAmountOf", obj.curie),
        ]
    if kind == "complex":
        _, a, b, obj = spec
        return complex_triples([a, b]) + [
            (complex_bel([a, b]), "increasesAmountOf", obj.curie),
        ]
    raise ValueError("unknown spec kind {!r}".format(kind))


def render_spec(spec, rng: random.Random) -> str:
    kind = spec[0]
    if kind == "edge":
        _, subj, relation, obj = spec
        return "{} {} {}".format(subj.bel, rng.choice(_RELATION_SYNTAX[relation]), obj.bel)
    if kind == "pmod":
        _, parent, position, obj = spec
        return "{} -> {}".format(pmod_bel(parent, position), obj.bel)
    _, a, b, obj = spec
    return "complex({}, {}) -> {}".format(a.bel, b.bel, obj.bel)


# -- statement generation ------------------------------------------------------


def _pick(rng: random.Random, ns: str) -> str:
    return rng.choice(VOCAB[ns])


def _two_genes(rng: random.Random) -> Tuple[str, str]:
    a, b = rng.sample(VOCAB["HGNC"], 2)
    return a, b


def _planted_spec(rng: random.Random):
    k = rng.randrange(9)
    if k <= 1:
        a, b = _two_genes(rng)
        return ("edge", Term("p", "HGNC", a), ("increases", "decreases")[k], Term("p", "HGNC", b))
    if k == 2:
        return ("edge", Term("a", "CHEBI", _pick(rng, "CHEBI")), "increases",
                Term("bp", "GO", _pick(rng, "GO")))
    if k == 3:
        a, b = _two_genes(rng)
        return ("edge", Term("p", "HGNC", a), "isA", Term("p", "HGNC", b))
    if k == 4:
        a, b = _two_genes(rng)
        return ("edge", Term("p", "HGNC", a), "association", Term("p", "HGNC", b))
    if k == 5:
        return ("edge", Term("p", "HGNC", _pick(rng, "HGNC")),
                rng.choice(("positiveCorrelation", "negativeCorrelation")),
                Term("path", "MESHD", _pick(rng, "MESHD")))
    if k == 6:
        return ("pmod", Term("p", "HGNC", _pick(rng, "HGNC")), rng.randrange(1, 600),
                Term("bp", "GO", _pick(rng, "GO")))
    a, b = _two_genes(rng)
    return ("complex", Term("p", "HGNC", a), Term("p", "HGNC", b),
            Term("bp", "GO", _pick(rng, "GO")))


def _free_statement(rng: random.Random) -> str:
    """A broader BEL form, checked only by the serial reference pass."""
    g = lambda: "HGNC:" + quote(_pick(rng, "HGNC"))  # noqa: E731
    c = lambda: "CHEBI:" + quote(_pick(rng, "CHEBI"))  # noqa: E731
    b = lambda: "GO:" + quote(_pick(rng, "GO"))  # noqa: E731
    d = lambda: "MESHD:" + quote(_pick(rng, "MESHD"))  # noqa: E731
    k = rng.randrange(12)
    if k == 0:
        return "act(p({}), ma(kin)) -> p({}, pmod(Ph, Thr, {}))".format(g(), g(), rng.randrange(1, 900))
    if k == 1:
        return "p({}) -> act(p({}), ma(tscript))".format(g(), g())
    if k == 2:
        return "a({}) => deg(p({}))".format(c(), g())
    if k == 3:
        return "rxn(reactants(a({}), a({})), products(a({}))) -> bp({})".format(c(), c(), c(), b())
    if k == 4:
        return "composite(p({}), a({})) -> path({})".format(g(), c(), d())
    if k == 5:
        return "p({}, var(\"p.Ala{}Val\")) -| bp({})".format(g(), rng.randrange(2, 800), b())
    if k == 6:
        x = g()
        return "r({}) >> p({})".format(x, x)
    if k == 7:
        return "p(fus({}, \"p.1_{}\", {}, \"p.{}_?\")) -> bp({})".format(
            g(), rng.randrange(20, 300), g(), rng.randrange(300, 900), b())
    if k == 8:
        return "p({}, frag(\"{}_{}\")) -| p({})".format(g(), rng.randrange(1, 40), rng.randrange(41, 500), g())
    if k == 9:
        return "m({}) -| r({})".format(g(), g())
    if k == 10:
        return "p({}) -> (p({}) -| bp({}))".format(g(), g(), b())
    return "a({}) -| path({})".format(c(), d())


_BROKEN = (
    "p(NOPE:unknown) -> p(HGNC:{})",
    "p(HGNC:NOTAGENE{}) -> p(HGNC:PBG001)",
    "p(HGNC:{}) madeUpRelation p(HGNC:PBG002)",
    "p(HGNC:{}) -> act(p(HGNC:PBG003), ma(kin)",
    "lorem {} ipsum is not a statement",
)

_HEADER = (
    'SET DOCUMENT Name = "Bench document {i}"\n'
    'SET DOCUMENT Version = "1.0.0"\n'
    'SET DOCUMENT Description = "Seeded benchmark document {i}"\n'
    'SET DOCUMENT Authors = "perfbench"\n'
    'SET DOCUMENT ContactInfo = "perfbench@example.org"\n'
    + "".join(
        'DEFINE NAMESPACE {} AS URL "{}"\n'.format(ns, url) for ns, url in NS_URLS.items()
    )
    + "".join(
        'DEFINE ANNOTATION {} AS URL "{}"\n'.format(a, url) for a, url in ANNO_URLS.items()
    )
    + 'DEFINE ANNOTATION Confidence AS LIST {{"high","medium","low"}}\n'
)


def bel_document(i: int, rng: random.Random, n_statements: int, broken: bool):
    """One BEL document and the specs of its planted statements."""
    lines = [_HEADER.format(i=i)]
    planted = []
    emitted = 0
    while emitted < n_statements:
        lines.append('SET Citation = {{"PubMed", "{}"}}'.format(rng.randrange(10_000, 39_000_000)))
        lines.append('SET Evidence = "Observation {} of document {}"'.format(emitted, i))
        lines.append('SET Species = "{}"'.format(rng.choice(ANNOTATIONS["Species"])))
        if rng.random() < 0.4:
            lines.append('SET Tissue = "{}"'.format(rng.choice(ANNOTATIONS["Tissue"])))
        if rng.random() < 0.4:
            lines.append('SET Confidence = "{}"'.format(rng.choice(("high", "medium", "low"))))
        for _ in range(rng.randrange(2, 6)):
            if emitted >= n_statements:
                break
            emitted += 1
            if broken and rng.random() < 0.2:
                lines.append(rng.choice(_BROKEN).format(rng.randrange(1, 99)))
            elif rng.random() < 0.5:
                spec = _planted_spec(rng)
                planted.append(spec)
                lines.append(render_spec(spec, rng))
            else:
                lines.append(_free_statement(rng))
    return "\n".join(lines) + "\n", planted


# -- non-BEL pages ---------------------------------------------------------------
#
# Filler never contains ")" or the gate's control keywords, so no non-BEL page
# can pass the candidate gate.

_WORDS = (
    "market weather river garden council station report season travel museum "
    "recipe flour harbour league concert library bridge festival orchard "
    "mountain village coastal ferry timetable ticket gallery tournament"
).split()


def _sentence(rng: random.Random) -> str:
    words = [rng.choice(_WORDS) for _ in range(rng.randrange(6, 14))]
    return " ".join(words).capitalize() + "."


def filler_text(rng: random.Random) -> str:
    return " ".join(_sentence(rng) for _ in range(rng.randrange(4, 20)))


def paragraph_pool(rng: random.Random, n: int = 400) -> List[str]:
    """Markup paragraphs that the non-BEL pages of one corpus draw from."""
    return [
        '<div class="block b{}"><h2>{}</h2><p>{} <b>{}</b> &amp; {}</p></div>'.format(
            rng.randrange(1, 9), rng.choice(_WORDS), _sentence(rng), rng.choice(_WORDS),
            _sentence(rng))
        for _ in range(n)
    ]


def markup_page(rng: random.Random, pool: List[str], target_bytes: int) -> str:
    """Ordinary page markup (no ``<pre>``) of about ``target_bytes``."""
    parts = ['<html><head><title>{}</title></head><body><nav class="top">'.format(
        rng.choice(_WORDS))]
    parts.extend(
        '<a href="/section/{0}">section {0}</a>'.format(rng.randrange(1, 99)) for _ in range(6)
    )
    parts.append("</nav><main>")
    size = sum(map(len, parts))
    while size < target_bytes:
        para = rng.choice(pool)
        parts.append(para)
        size += len(para)
    parts.append("</main><footer>contact &copy; example</footer></body></html>")
    return "".join(parts)


def pre_html(text: str) -> bytes:
    return "<html><body><pre>{}</pre></body></html>".format(html_mod.escape(text)).encode("utf8")


# -- workloads ---------------------------------------------------------------------


@dataclass(frozen=True)
class Mix:
    """Input make-up of one workload."""

    n_pages: int
    n_files: int
    statements_per_page: int
    non_bel: float  # share of pages without BEL
    broken: float  # share of BEL documents with broken statements
    html_only: float  # share of rows whose ``text`` is NULL
    markup_bytes: int = 0  # >0: non-BEL pages are plain markup of this size


WORKLOADS: Dict[str, Mix] = {
    "crawl_stream": Mix(n_pages=1000, n_files=4, statements_per_page=20,
                        non_bel=0.10, broken=0.08, html_only=0.20),
    "crawl_shards": Mix(n_pages=120, n_files=3, statements_per_page=20,
                        non_bel=0.10, broken=0.08, html_only=0.20),
    "sparse_web": Mix(n_pages=8000, n_files=4, statements_per_page=4,
                      non_bel=0.92, broken=0.08, html_only=1.0, markup_bytes=4000),
}

_BASE_TS = datetime(2025, 3, 1)


@dataclass
class Corpus:
    """Generated inputs plus everything the checks need to know about them."""

    workload: str
    seed: int
    files: List[pa.Table]
    texts: Dict[str, str]  # url -> page text (as the program should see it)
    non_bel: int
    planted: Set[Tuple[str, str, str]] = field(default_factory=set)

    @property
    def n_pages(self) -> int:
        return sum(t.num_rows for t in self.files)


def page_row(mix: Mix, seed: int, i: int, pool: List[str]):
    """(row dict, page text, planted specs or None for a non-BEL page)."""
    rng = random.Random("{}/{}".format(seed, i))
    url = "https://site{}.example.net/page/{:07d}".format(rng.randrange(50), i)
    specs = None
    if rng.random() < mix.non_bel:
        if mix.markup_bytes:
            page_html = markup_page(
                rng, pool, rng.randrange(mix.markup_bytes // 2, mix.markup_bytes * 3 // 2))
            text = html_mod.unescape(re.sub(r"<[^>]+>", " ", page_html))
            html = page_html.encode("utf8")
        else:
            text = filler_text(rng)
            html = pre_html(text)
    else:
        text, specs = bel_document(i, rng, mix.statements_per_page, rng.random() < mix.broken)
        html = pre_html(text)
    html_only = rng.random() < mix.html_only
    row = {
        "url": url,
        "warc_ts": _BASE_TS + timedelta(seconds=i * 7),
        "html": html,
        "text": None if html_only else text,
        "lang": "en",
    }
    return row, text, specs


def build_corpus(workload: str, seed: int) -> Corpus:
    mix = WORKLOADS[workload]
    rows: List[dict] = []
    texts: Dict[str, str] = {}
    planted: Set[Tuple[str, str, str]] = set()
    non_bel = 0
    pool = paragraph_pool(random.Random("{}/pool".format(seed)))
    for i in range(mix.n_pages):
        row, text, specs = page_row(mix, seed, i, pool)
        rows.append(row)
        texts[row["url"]] = text
        if specs is None:
            non_bel += 1
        else:
            for spec in specs:
                planted.update(spec_triples(spec))
    per_file = -(-mix.n_pages // mix.n_files)
    files = [
        pa.Table.from_pylist(rows[i:i + per_file], schema=PAGES_SCHEMA)
        for i in range(0, mix.n_pages, per_file)
    ]
    return Corpus(workload, seed, files, texts, non_bel, planted)


def write_corpus(corpus: Corpus, out_dir: str) -> List[str]:
    """Write one Parquet file per corpus file; return their paths in order."""
    import os

    import pyarrow.parquet as pq

    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for k, table in enumerate(corpus.files):
        path = os.path.join(out_dir, "pages-{:04d}.parquet".format(k))
        pq.write_table(table, path, compression="zstd")
        paths.append(path)
    return paths


# -- vocabulary check ----------------------------------------------------------------

_ENTITY_RE = re.compile(r'\b([A-Za-z]+):("[^"]*"|[A-Za-z0-9]+)')


def foreign_entities(label: str) -> List[str]:
    """Entities named in a triple label that are outside the generator's vocabularies."""
    out = []
    for ns, name in _ENTITY_RE.findall(label):
        if name.startswith('"'):
            name = name[1:-1]
        if name not in _VOCAB_SETS.get(ns, ()):
            out.append("{}:{}".format(ns, name))
    return out
