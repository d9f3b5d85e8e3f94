"""Parsers for the WordNet 3.0 noun database files and toy edge lists.

Only ``data.noun`` and ``index.noun`` are read.  Synset ids are formed as
``<offset>-n`` so other parts of speech could be added without id
collisions.  Plain (``@``) and instance (``@i``) hypernym pointers are
merged into one parent relation; hyponym pointers (``~``/``~i``) are used
only to cross-check pointer symmetry.
"""

from __future__ import annotations

import logging
import os

from .errors import DanglingPointer, MalformedLine, MissingFile
from .taxonomy import RawGraph, SynsetId

log = logging.getLogger(__name__)

HYPERNYM_SYMBOLS = ("@", "@i")
LINK_SYMBOLS = HYPERNYM_SYMBOLS + ("~", "~i")  # hypernyms and hyponyms

WORDNET_DIR_ENV = "SEMSIM_WORDNET_DIR"


def synset_id(offset: str) -> SynsetId:
    return offset + "-n"


def parse_wordnet(dir_path) -> tuple[RawGraph, dict[str, tuple[SynsetId, ...]]]:
    """Parse ``data.noun`` and ``index.noun`` into a raw graph and word index.

    The license header (lines starting with two spaces) is skipped.  Every
    synset line must start at the byte offset its own offset field claims,
    which guards against truncated or re-encoded copies of the database,
    and its pointers must end where its pointer count says, at the ``|``
    that opens the gloss.
    A line of either file that is not UTF-8, and an ``index.noun`` lemma
    on a second line, raise ``MalformedLine``.  Parents come as tuples in
    pointer order; ``freeze`` drops a parent listed twice.
    """
    data_path = os.path.join(dir_path, "data.noun")
    index_path = os.path.join(dir_path, "index.noun")
    for p in (data_path, index_path):
        if not os.path.isfile(p):
            raise MissingFile(f"required WordNet file not found: {p}")

    ids, lemmas, links = _parse_data_noun(data_path)
    parents: dict[SynsetId, tuple[SynsetId, ...]] = {}
    asymmetries = 0
    for offset, sid in ids.items():
        ps = []
        pairs = iter(links[offset])
        for symbol, target in zip(pairs, pairs):
            target_id = ids.get(target)
            if target_id is None:
                raise DanglingPointer(sid, symbol, target)
            if symbol in HYPERNYM_SYMBOLS:
                ps.append(target_id)
                continue
            reverse = "@" if symbol == "~" else "@i"
            back = iter(links[target])
            if (reverse, offset) not in zip(back, back):
                asymmetries += 1
                log.warning("hyponym pointer %s %s -> %s lacks a reverse %s",
                            symbol, offset, target, reverse)
        parents[sid] = tuple(ps)
    if asymmetries:
        log.warning("%d asymmetric hyponym pointers in %s", asymmetries, data_path)

    return RawGraph(parents=parents, lemmas=lemmas), _parse_index_noun(index_path, ids)


def utf8_lines(path):
    """Yield ``(line_no, line)`` for each line of a UTF-8 text file, line
    numbers from 1 and the newline kept; a line that is not UTF-8 raises
    ``MalformedLine``."""
    with open(path, "rb") as fh:
        for line_no, raw_line in enumerate(fh, start=1):
            yield line_no, _decode(path, line_no, raw_line)


def _decode(path, line_no: int, raw_line: bytes, byte_offset: int | None = None) -> str:
    try:
        return raw_line.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedLine(path, line_no, f"not UTF-8: {exc.reason} at byte {exc.start} "
                            "of the line", byte_offset=byte_offset) from None


def _parse_data_noun(path):
    """In file order: each synset's id by offset, its lemmas by id, and its
    noun hypernym and hyponym pointers by offset, as one flat
    ``(symbol, target_offset, ...)`` tuple."""
    ids: dict[str, SynsetId] = {}
    lemmas: dict[SynsetId, tuple[str, ...]] = {}
    links: dict[str, tuple[str, ...]] = {}
    byte_pos = 0
    with open(path, "rb") as fh:
        for line_no, raw_line in enumerate(fh, start=1):
            line_start = byte_pos
            byte_pos += len(raw_line)
            if raw_line.startswith(b"  "):  # license header
                continue
            line = _decode(path, line_no, raw_line, line_start).rstrip("\n")
            if not line:
                continue
            fields = line.split(" ")
            try:
                offset = fields[0]
                if len(offset) != 8 or not offset.isdigit():
                    raise ValueError(f"bad offset field {offset!r}")
                if int(offset) != line_start:
                    raise ValueError(
                        f"offset {offset} does not match line byte position {line_start}")
                pos = 4 + 2 * int(fields[3], 16)  # a word and its lex_id per word
                words = fields[4:pos:2]
                p_cnt = int(fields[pos])
                pos += 1
                pointers = []
                for _ in range(p_cnt):
                    symbol, target, target_pos, _src_tgt = fields[pos:pos + 4]
                    pos += 4
                    # meronyms, the other relations and other parts of speech
                    if target_pos == "n" and symbol in LINK_SYMBOLS:
                        pointers += symbol, target
                if fields[pos:pos + 1] != ["|"]:
                    raise ValueError(f"no '|' gloss field after {p_cnt} pointers")
            except (IndexError, ValueError) as exc:
                raise MalformedLine(path, line_no, str(exc), byte_offset=line_start) from None
            ids[offset] = sid = synset_id(offset)
            lemmas[sid] = tuple(words)
            links[offset] = tuple(pointers)
    if not ids:
        raise MalformedLine(path, 0, "no synset lines found")
    return ids, lemmas, links


def _parse_index_noun(path, ids) -> dict[str, tuple[SynsetId, ...]]:
    """The word index: each lemma's senses in file order, as the ids that
    ``ids`` maps their offsets to; an offset it lacks raises ``DanglingPointer``."""
    word_index: dict[str, tuple[SynsetId, ...]] = {}
    for line_no, line in utf8_lines(path):
        if line.startswith("  "):
            continue
        fields = line.split()
        if not fields:
            continue
        try:
            lemma = fields[0]
            synset_cnt = int(fields[2])
            p_cnt = int(fields[3])
            offsets = fields[6 + p_cnt:]
            if len(offsets) != synset_cnt:
                raise ValueError(
                    f"expected {synset_cnt} sense offsets, found {len(offsets)}")
            if lemma in word_index:
                raise ValueError(f"lemma {lemma!r} is on an earlier line too")
        except (IndexError, ValueError) as exc:
            raise MalformedLine(path, line_no, str(exc)) from None
        try:
            word_index[lemma] = tuple(map(ids.__getitem__, offsets))
        except KeyError as exc:
            raise DanglingPointer(lemma, "index", exc.args[0]) from None
    return word_index


def parse_edgelist(path) -> RawGraph:
    """Parse a toy ontology in ``child<TAB>parent`` edge-list form.

    Lines starting with ``#`` are comments; an optional ``!root <label>``
    line pins the root node.  Duplicate edges are dropped with a warning.
    A line that is not UTF-8 raises ``MalformedLine``.
    """
    if not os.path.isfile(path):
        raise MissingFile(f"edge list not found: {path}")
    parents: dict[SynsetId, list[SynsetId]] = {}
    pinned_root = None
    seen_edges: set[tuple[str, str]] = set()
    for line_no, line in utf8_lines(path):
        line = line.rstrip("\n")
        if not line.strip() or line.startswith("#"):
            continue
        if line.startswith("!root"):
            fields = line.split()
            if len(fields) != 2:
                raise MalformedLine(path, line_no, "expected '!root <label>'")
            pinned_root = fields[1]
            continue
        fields = line.split("\t")
        if len(fields) != 2 or not fields[0].strip() or not fields[1].strip():
            raise MalformedLine(path, line_no,
                                "expected 'child<TAB>parent', got " + repr(line))
        child, parent = fields[0].strip(), fields[1].strip()
        if (child, parent) in seen_edges:
            log.warning("%s:%d: duplicate edge %s -> %s dropped",
                        path, line_no, child, parent)
            continue
        seen_edges.add((child, parent))
        parents.setdefault(parent, [])
        parents.setdefault(child, []).append(parent)
    return RawGraph(parents=parents, pinned_root=pinned_root)


def serialize_edgelist(raw: RawGraph) -> str:
    """Render a raw graph back into the edge-list format (round-trip aid)."""
    lines = []
    if raw.pinned_root is not None:
        lines.append(f"!root {raw.pinned_root}")
    for child in sorted(raw.parents):
        for parent in sorted(raw.parents[child]):
            lines.append(f"{child}\t{parent}")
    return "\n".join(lines) + "\n"


def default_wordnet_dir() -> str | None:
    """Directory from the SEMSIM_WORDNET_DIR environment variable, if set."""
    value = os.environ.get(WORDNET_DIR_ENV, "").strip()
    return value or None
