"""Line-oriented text formats for algebras and maps.

Algebra files:

    # comment                    (anywhere; '#' to end of line)
    algebra <name>
    elements <l1> <l2> ...       (distinct whitespace-free labels)
    unit <label>
    op                           (then n rows of n labels; row i col j = i->j)
    <l..> <l..> ...
    order                        (then whitespace-separated pairs a<=b,
    <a><=<b> ...                  across any number of lines)

Map files:

    map <name> : <srcAlgebra> -> <dstAlgebra>
    <a> -> <b>                   (one line per source element)

Labels may not contain whitespace, '#', or the sequence '<='.
Parsing a serialized structure yields an identical structure.
"""

from __future__ import annotations

from .core import RawStructure, StructureError
from .morphisms import Mapping


class ParseError(ValueError):
    def __init__(self, message: str, source: str = "<string>", line: int | None = None):
        where = source if line is None else f"{source}:{line}"
        super().__init__(f"{where}: {message}")
        self.source = source
        self.line = line


def _logical_lines(text: str):
    """(line_number, tokens) for non-empty lines, comments stripped."""
    for i, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            yield i, body.split()


def parse_algebra(text: str, *, source: str = "<string>") -> RawStructure:
    lines = _logical_lines(text)

    def take(expected: str):
        line = next(lines, None)
        if line is None:
            raise ParseError(f"missing '{expected}' section", source)
        return line

    ln, toks = take("algebra")
    if toks[0] != "algebra" or len(toks) != 2:
        raise ParseError("expected 'algebra <name>'", source, ln)
    name = toks[1]

    ln, toks = take("elements")
    if toks[0] != "elements" or len(toks) < 2:
        raise ParseError("expected 'elements <l1> <l2> ...'", source, ln)
    labels = tuple(toks[1:])
    for l in labels:
        if "<=" in l:
            raise ParseError(f"label {l!r} may not contain '<='", source, ln)
    if len(set(labels)) != len(labels):
        raise ParseError("element labels must be pairwise distinct", source, ln)
    index = {l: i for i, l in enumerate(labels)}
    n = len(labels)

    ln, toks = take("unit")
    if toks[0] != "unit" or len(toks) != 2:
        raise ParseError("expected 'unit <label>'", source, ln)
    if toks[1] not in index:
        raise ParseError(f"unit {toks[1]!r} is not an element", source, ln)
    unit = index[toks[1]]

    ln, toks = take("op")
    if toks != ["op"]:
        raise ParseError("expected 'op' on its own line", source, ln)
    op_rows = []
    for i in range(n):
        ln, toks = take(f"operation row {i}")
        if len(toks) != n:
            raise ParseError(f"operation row {i} needs {n} entries, got {len(toks)}", source, ln)
        row = []
        for t in toks:
            if t not in index:
                raise ParseError(f"unknown element {t!r} in operation row {i}", source, ln)
            row.append(index[t])
        op_rows.append(tuple(row))

    ln, toks = take("order")
    if toks != ["order"]:
        raise ParseError("expected 'order' after the operation rows", source, ln)
    order = [[False] * n for _ in range(n)]
    for ln, toks in lines:  # the order pairs are the rest of the file
        for t in toks:
            if "<=" not in t:
                raise ParseError(f"expected '<a><=<b>' pair, got {t!r}", source, ln)
            a, _, b = t.partition("<=")
            if a not in index or b not in index:
                raise ParseError(f"unknown element in order pair {t!r}", source, ln)
            order[index[a]][index[b]] = True

    try:
        return RawStructure(name, labels, tuple(op_rows), unit,
                            tuple(tuple(r) for r in order))
    except StructureError as exc:
        raise ParseError(str(exc), source) from exc


def serialize_algebra(s: RawStructure) -> str:
    lines = [f"algebra {s.name}", "elements " + " ".join(s.labels),
             f"unit {s.labels[s.unit]}", "op"]
    for row in s.op:
        lines.append(" ".join(s.labels[v] for v in row))
    pairs = [f"{s.labels[i]}<={s.labels[j]}"
             for i in range(s.n) for j in range(s.n) if s.order[i][j]]
    lines.append("order")
    if pairs:
        lines.append(" ".join(pairs))
    return "\n".join(lines) + "\n"


def parse_map(text: str, src: RawStructure, dst: RawStructure, *,
              source: str = "<string>") -> Mapping:
    lines = list(_logical_lines(text))
    if not lines:
        raise ParseError("empty map file", source)
    ln, toks = lines[0]
    if len(toks) != 6 or toks[0] != "map" or toks[2] != ":" or toks[4] != "->":
        raise ParseError("expected 'map <name> : <src> -> <dst>'", source, ln)
    name, src_name, dst_name = toks[1], toks[3], toks[5]
    if src_name != src.name:
        raise ParseError(f"map declares source {src_name!r}, got algebra {src.name!r}", source, ln)
    if dst_name != dst.name:
        raise ParseError(f"map declares target {dst_name!r}, got algebra {dst.name!r}", source, ln)
    table: dict[int, int] = {}
    for ln, toks in lines[1:]:
        if len(toks) != 3 or toks[1] != "->":
            raise ParseError(f"expected '<a> -> <b>', got {' '.join(toks)!r}", source, ln)
        a, b = toks[0], toks[2]
        try:
            i = src.index(a)
            j = dst.index(b)
        except StructureError as exc:
            raise ParseError(str(exc), source, ln) from exc
        if i in table:
            raise ParseError(f"element {a!r} mapped twice", source, ln)
        table[i] = j
    missing = [src.labels[i] for i in range(src.n) if i not in table]
    if missing:
        raise ParseError(f"map is not total; missing {', '.join(missing)}", source)
    return Mapping(src, dst, tuple(table[i] for i in range(src.n)), name)


def serialize_map(m: Mapping) -> str:
    lines = [f"map {m.name} : {m.source.name} -> {m.target.name}"]
    for i, v in enumerate(m.table):
        lines.append(f"{m.source.labels[i]} -> {m.target.labels[v]}")
    return "\n".join(lines) + "\n"


def _read_text(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8 text: {exc.reason} at byte {exc.start}",
                             path) from None


def load_algebra(path: str) -> RawStructure:
    return parse_algebra(_read_text(path), source=path)


def load_map(path: str, src: RawStructure, dst: RawStructure) -> Mapping:
    return parse_map(_read_text(path), src, dst, source=path)
