"""Document parsing and canonical serialization for every value kind.

Documents are JSON with a ``kind`` discriminator.  Serialization is
canonical: the text is defined as ``json.dumps(value, sort_keys=True,
indent=2)`` plus a trailing newline, so identical values always produce
byte-identical text.  :func:`canonical_json` writes it in one recursive
pass over the only types documents and reports hold (dicts with string
keys, lists, tuples, strings, ints, bools and None); the tests pin the
equivalence with ``json.dumps``.  Given a sink, it hands the text over in
chunks as it is made instead of returning it, and :func:`write_document`
passes the open file's ``write``, so an ``--out`` document is never held
whole as one string; the file is new and replaces its target once whole.
"""

from __future__ import annotations

import json
import os
import stat
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .core import (
    Error,
    PresheafMap,
    PresheafObject,
    ValidationError,
    fin_graph,
    fin_set,
)
from .lifting import AnodyneFamily, FamilyEntry
from .monads import FiniteCategory, FiniteMonoid
from .simplicial import sset_cap, trunc_sset

OBJECT_KINDS = ("set", "graph", "sset")


def _required(doc, key, where, shape=None):
    """``doc[key]``, refused when ``doc`` is not a JSON object or has no such
    key, or when the value fails ``shape``, one of the ``(description,
    test)`` pairs below."""
    if not isinstance(doc, dict):
        raise ValidationError(f"{where} is not a JSON object")
    if key not in doc:
        raise ValidationError(f"{where} has no {key!r}")
    value = doc[key]
    if shape is not None and not shape[1](value):
        raise ValidationError(f"{where} {key!r} is not {shape[0]}")
    return value


# The shape tests run on every document that is read, so they loop over
# labels in ``map`` and ``chain``, whose loops run in C, rather than in
# generator expressions.

def _strings(value) -> bool:
    return isinstance(value, list) and all(map(isinstance, value, repeat(str)))


def _string_lists(values, length=None) -> bool:
    """Whether every one of ``values``, a list or a dict view, is a list of
    strings, of ``length`` of them if given."""
    return (all(map(isinstance, values, repeat(list)))
            and (length is None or set(map(len, values)) <= {length})
            and all(map(isinstance, chain.from_iterable(values), repeat(str))))


def _names(value) -> bool:
    return isinstance(value, dict) and all(map(isinstance, value.values(), repeat(str)))


def _natural(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _by_dimension(fits):
    """The test that a value is a JSON object from dimensions to values
    that pass ``fits``."""
    return lambda value: isinstance(value, dict) and all(
        str(n).isdecimal() and fits(item) for n, item in value.items())


_STRING = ("a string", lambda value: isinstance(value, str))
_ARRAY = ("a JSON array", lambda value: isinstance(value, list))
_NATURAL = ("a nonnegative integer", _natural)
_STRINGS = ("a JSON array of strings", _strings)
_TRIPLES = ("a JSON array of [label, source, target] string arrays",
            lambda value: isinstance(value, list) and _string_lists(value, 3))
_NAMES = ("a JSON object of strings", _names)
_TABLES = ("a JSON object of JSON objects of strings",
           lambda value: isinstance(value, dict) and all(map(_names, value.values())))
_CELLS = ("a JSON object from dimensions to arrays of strings", _by_dimension(_strings))
_FACES = ("a JSON object from dimensions to objects of arrays of strings", _by_dimension(
    lambda value: isinstance(value, dict) and _string_lists(value.values())))
_COUNTS = ("a JSON object from depths to nonnegative integers", _by_dimension(_natural))


# A sink is handed the pending text after a nested item once the text is
# more than this many pieces.
_CHUNK = 4096


def canonical_json(data, write=None):
    """``json.dumps(data, sort_keys=True, indent=2) + "\\n"``; a float or a
    key that is not a string raises ``TypeError``.  Without ``write`` the
    text is returned; with it, each finished chunk of the text is passed to
    ``write`` as it is made, and None is returned."""
    chunks = None
    if write is None:
        chunks = []
        write = chunks.append
    out = []
    _emit(data, out, "\n", write)
    out.append("\n")
    write("".join(out))
    return None if chunks is None else "".join(chunks)


def _emit(value, out, newline, write):
    """Append the text of ``value`` to ``out``; ``newline`` starts a line at
    the value's own indent.  A container writes its string items in its own
    loop.  ``out`` is handed to ``write`` and cleared after a nested item
    once it holds more than ``_CHUNK`` pieces."""
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in sorted(value.items()):
            if not isinstance(key, str):
                raise TypeError(f"canonical JSON keys are strings, got {type(key).__name__}")
            out.append(sep)
            out.append(encode_basestring_ascii(key))
            out.append(": ")
            if isinstance(item, str):
                out.append(encode_basestring_ascii(item))
            else:
                _emit(item, out, inner, write)
                if len(out) > _CHUNK:
                    write("".join(out))
                    out.clear()
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            if isinstance(item, str):
                out.append(encode_basestring_ascii(item))
            else:
                _emit(item, out, inner, write)
                if len(out) > _CHUNK:
                    write("".join(out))
                    out.clear()
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    else:
        raise TypeError(f"canonical JSON has no {type(value).__name__} values")


def load_document(source) -> dict:
    """The JSON object of a document given as a dict, a path or JSON text;
    a string is JSON text when its first non-blank character is ``{``, and
    a path otherwise.  Any other JSON value is refused."""
    if isinstance(source, str) and not source.lstrip().startswith("{"):
        source = Path(source)
    name = "document"
    if isinstance(source, Path):
        name = str(source)
        try:
            source = source.read_text(encoding="utf-8")
        except OSError as exc:
            raise ValidationError(f"{name} cannot be read: {exc.strerror}") from None
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{name} is not UTF-8 text: {exc.reason}") from None
    if isinstance(source, str):
        try:
            source = json.loads(source)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{name} is not well-formed JSON: {exc}") from exc
    if not isinstance(source, dict):
        raise ValidationError(f"{name} is not a JSON object")
    return source


def write_document(path, document) -> None:
    """Write ``document`` to ``path`` as canonical JSON, refused with the
    path named when it cannot be written.  A missing or regular target gets
    the text in a new hidden file beside it; once the text is whole the
    target is removed and the new file renamed to its name.  A failure
    before that (an ``OSError``, a ``TypeError`` for a value that is not
    canonical, an interrupt) removes the new file and leaves the target as
    it was; an interrupt between the removal and the rename leaves the
    whole text in the hidden file.  A symlink is written through: its target
    is replaced and the link kept.  A new file gets the mode that ``open``
    gives one (0666 less the umask); a replaced file keeps its mode but not
    its owner or group, its other hard links keep the old text, and its
    directory must be writable.  Any other target (a FIFO, a terminal, a
    device such as ``/dev/null``) is written in place, as it cannot be
    replaced."""
    try:
        try:
            kind = os.stat(path).st_mode
        except FileNotFoundError:
            kind = None
        if kind is not None and not stat.S_ISREG(kind):
            with open(path, "w", encoding="utf-8") as handle:
                canonical_json(document, handle.write)
            return
        target = os.path.realpath(path)
        head, name = os.path.split(target)
        temp = os.path.join(head, f".{name}.{os.urandom(4).hex()}.tmp")
        handle = open(temp, "x", encoding="utf-8")
        try:
            with handle:
                if kind is not None:
                    os.chmod(temp, stat.S_IMODE(kind))
                canonical_json(document, handle.write)
            if kind is not None:
                # ext4 writes out a file renamed over another before the
                # rename returns, which costs more than a small write itself
                os.remove(target)
        except BaseException:
            os.remove(temp)
            raise
        os.rename(temp, target)
    except OSError as exc:
        raise ValidationError(f"{path} cannot be written: {exc.strerror}") from None


def parse_document(source):
    """Validated typed object from a document, path, or JSON text."""
    doc = load_document(source)
    kind = doc.get("kind")
    if kind == "set":
        return fin_set(_required(doc, "elements", "set document", _STRINGS))
    if kind == "graph":
        return fin_graph(_required(doc, "vertices", "graph document", _STRINGS),
                         _required(doc, "edges", "graph document", _TRIPLES))
    if kind == "sset":
        return _parse_sset(doc)
    if kind == "map":
        return parse_map(doc)
    if kind in ("monoid", "category"):
        where = f"{kind} document"
        name = _required(doc, "name", where, _STRING) if "name" in doc else kind
        if kind == "monoid":
            return FiniteMonoid(*(_required(doc, key, where, shape) for key, shape in (
                ("elements", _STRINGS), ("unit", _STRING), ("table", _TABLES))), name=name)
        return FiniteCategory(*(_required(doc, key, where, shape) for key, shape in (
            ("objects", _STRINGS), ("morphisms", _TRIPLES), ("identities", _NAMES),
            ("compose", _TABLES))), name=name)
    if kind == "seeds":
        return {
            "instance": _required(doc, "instance", "seeds document", _STRING),
            **{key: [parse_map(m) for m in _required(doc, key, "seeds document", _ARRAY)]
               for key in ("seeds", "generators")},
        }
    if kind == "family":
        return _parse_family(doc)
    if kind == "square":
        square = {
            side: parse_map(_required(doc, side, "square document"))
            for side in ("left", "right", "top", "bottom")
        }
        square["corner"] = doc.get("corner")
        return square
    raise ValidationError(f"unknown sort {kind!r}")


def _parse_sset(doc):
    cap = doc.get("cap")
    if not isinstance(cap, int) or isinstance(cap, bool):
        raise ValidationError("sset document needs an integer cap")
    tables = {}
    for key, shape, dims in (
        ("cells", _CELLS, range(cap + 1)), ("faces", _FACES, range(1, cap + 1)),
        ("degeneracies", _FACES, range(cap)),
    ):
        table = tables[key] = {
            int(n): rows for n, rows in _required(doc, key, "sset document", shape).items()
        }
        extra = sorted(table.keys() - set(dims))
        if extra:
            raise ValidationError(f"sset document {key!r} has dimension {extra[0]}, outside cap {cap}")
    faces, degens = {}, {}
    for key, ops in (("faces", faces), ("degeneracies", degens)):
        for n, table in tables[key].items():
            if not set(map(len, table.values())) <= {n + 1}:
                cell = next(c for c, images in table.items() if len(images) != n + 1)
                raise ValidationError(f"sset document {key!r} row {cell!r} in dimension {n} has "
                                      f"{len(table[cell])} images, not {n + 1}")
            # the i-th images of all rows are the table of the i-th operator
            for i, column in enumerate(zip(*table.values())):
                ops[n, i] = dict(zip(table, column))
    return trunc_sset(cap, {n: tuple(v) for n, v in tables["cells"].items()}, faces, degens)


def parse_map(doc):
    """The map of a map document nested in another.  The document, its
    domain and its codomain must be JSON objects: a string is never read
    as a path, so no file is opened for them.  Its ``on`` may name only the
    sorts of its base."""
    if not isinstance(doc, dict) or doc.get("kind") != "map":
        raise ValidationError("expected a map document")
    ends = []
    for key in ("domain", "codomain"):
        end = _required(doc, key, "map document")
        if not isinstance(end, dict):
            raise ValidationError(f"map {key} is not a JSON object")
        if end.get("kind") not in OBJECT_KINDS:
            raise ValidationError(f"map {key} is not a set, graph or sset document")
        ends.append(parse_document(end))
    on = doc.get("on", {})
    if not isinstance(on, dict) or not all(isinstance(table, dict) for table in on.values()):
        raise ValidationError("map 'on' is not a JSON object of JSON objects")
    f = PresheafMap(*ends, on)
    extra = on.keys() - f.on.keys()
    if extra:
        raise ValidationError(f"map 'on' names the sort {min(extra)!r}, which the base "
                              f"{f.domain.signature.name!r} does not have")
    return f


def _parse_family(doc):
    where = "family document"
    instance = _required(doc, "instance", where, _STRING)
    depth = _required(doc, "depth", where, _NATURAL)
    listed = _required(doc, "entries", where, _ARRAY)
    entries = []
    for k, entry in enumerate(listed):
        arrow = _required(entry, "arrow", f"family entry {k}")
        entry_depth = _required(entry, "depth", f"family entry {k}", _NATURAL)
        provenance = _required(entry, "provenance", f"family entry {k}", _STRING)
        try:
            entries.append(FamilyEntry(parse_map(arrow), entry_depth, provenance))
        except Error as exc:
            raise type(exc)(f"family entry {k}: {exc}") from None
    return AnodyneFamily(
        instance,
        tuple(entries),
        depth,
        _required(doc, "seed_count", where, _NATURAL),
        _required(doc, "generator_count", where, _NATURAL),
        {int(k): v for k, v in _required(doc, "pre_dedup_counts", where, _COUNTS).items()},
    )


# ---------------------------------------------------------------------------
# Serializers
# ---------------------------------------------------------------------------

def object_to_document(obj: PresheafObject) -> dict:
    name = obj.signature.name
    if name == "set":
        return {"kind": "set", "elements": list(obj.cells["element"])}
    if name == "graph":
        return {
            "kind": "graph",
            "vertices": list(obj.cells["vertex"]),
            "edges": [
                [e, obj.op("src", e), obj.op("tgt", e)] for e in obj.cells["edge"]
            ],
        }
    if name.startswith("sset@"):
        cap = sset_cap(obj)
        faces = {}
        degens = {}
        for n in range(1, cap + 1):
            faces[str(n)] = {
                cell: [obj.op(f"d{n}_{i}", cell) for i in range(n + 1)]
                for cell in obj.cells[str(n)]
            }
        for n in range(cap):
            degens[str(n)] = {
                cell: [obj.op(f"s{n}_{i}", cell) for i in range(n + 1)]
                for cell in obj.cells[str(n)]
            }
        return {
            "kind": "sset",
            "cap": cap,
            "cells": {str(n): list(obj.cells[str(n)]) for n in range(cap + 1)},
            "faces": faces,
            "degeneracies": degens,
        }
    raise ValidationError(f"cannot serialize objects of base {name!r}")


def map_to_document(f: PresheafMap) -> dict:
    return {
        "kind": "map",
        "domain": object_to_document(f.domain),
        "codomain": object_to_document(f.codomain),
        "on": {sort: dict(f.on[sort]) for sort in f.domain.signature.sorts},
    }


def monoid_to_document(m: FiniteMonoid) -> dict:
    return {
        "kind": "monoid",
        "name": m.name,
        "elements": list(m.morphisms),
        "unit": m.identity(None),
        "table": {a: dict(m.compose[a]) for a in m.morphisms},
    }


def category_to_document(c: FiniteCategory) -> dict:
    return {
        "kind": "category",
        "name": c.name,
        "objects": list(c.objects),
        "morphisms": [[m, c.src[m], c.tgt[m]] for m in c.morphisms],
        "identities": dict(c.identities),
        "compose": {f: dict(c.compose[f]) for f in c.morphisms},
    }


def family_to_document(family: AnodyneFamily) -> dict:
    return {
        "kind": "family",
        "instance": family.instance_name,
        "depth": family.depth,
        "seed_count": family.seed_count,
        "generator_count": family.generator_count,
        "pre_dedup_counts": {str(k): v for k, v in family.pre_dedup_counts.items()},
        "entries": [
            {
                "depth": entry.depth,
                "provenance": entry.provenance,
                "arrow": map_to_document(entry.arrow),
            }
            for entry in family.entries
        ],
    }


def algebra_to_document(algebra) -> dict:
    if isinstance(algebra, FiniteMonoid):
        return monoid_to_document(algebra)
    if isinstance(algebra, FiniteCategory):
        return category_to_document(algebra)
    raise ValidationError(f"cannot serialize {algebra!r}")
