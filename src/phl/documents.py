"""Document parsing and canonical serialization for every value kind.

Documents are JSON with a ``kind`` discriminator.  Serialization is
canonical: the text is defined as ``json.dumps(value, sort_keys=True,
indent=2)`` plus a trailing newline, so identical values always produce
byte-identical text.  :func:`canonical_json` writes it in one recursive
pass over the only types documents and reports hold (dicts with string
keys, lists, tuples, strings, ints, bools and None); the tests pin the
equivalence with ``json.dumps``.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .core import (
    PresheafMap,
    PresheafObject,
    ValidationError,
    fin_graph,
    fin_set,
)
from .lifting import AnodyneFamily, FamilyEntry
from .monads import FiniteCategory, FiniteMonoid
from .simplicial import trunc_sset


class MissingKeyError(ValidationError):
    """A document lacks a key that its parser reads."""


def _required(doc, key, where):
    """``doc[key]``, refused when the document has no such key."""
    if key not in doc:
        raise MissingKeyError(f"{where} has no {key!r}")
    return doc[key]


def canonical_json(data) -> str:
    """``json.dumps(data, sort_keys=True, indent=2) + "\\n"``; a float or a
    key that is not a string raises ``TypeError``."""
    out = []
    _emit(data, out, "\n")
    out.append("\n")
    return "".join(out)


def _emit(value, out, newline):
    """Append the text of ``value`` to ``out``; ``newline`` starts a line at
    the value's own indent."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif isinstance(value, dict):
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
            _emit(item, out, inner)
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
            _emit(item, out, inner)
            sep = "," + inner
        out.append(newline + "]")
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


def load_document(source):
    """The JSON value of a document given as a dict, a path or JSON text."""
    if isinstance(source, dict):
        return source
    if isinstance(source, str) and "\n" not in source and source.endswith(".json"):
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
    try:
        return json.loads(source)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{name} is not well-formed JSON: {exc}") from exc


def write_document(path, document) -> None:
    """Write ``document`` to ``path`` as canonical JSON, refused with the
    path named when it cannot be written."""
    try:
        Path(path).write_text(canonical_json(document), encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"{path} cannot be written: {exc.strerror}") from None


def parse_document(source):
    """Validated typed object from a document, path, or JSON text."""
    doc = load_document(source)
    if not isinstance(doc, dict):
        raise ValidationError("document must be a JSON object")
    kind = doc.get("kind")
    if kind == "set":
        return fin_set(_required(doc, "elements", "set document"))
    if kind == "graph":
        return fin_graph(
            _required(doc, "vertices", "graph document"), _required(doc, "edges", "graph document")
        )
    if kind == "sset":
        return _parse_sset(doc)
    if kind == "map":
        return _parse_map(doc)
    if kind == "monoid":
        return FiniteMonoid(
            *(_required(doc, key, "monoid document") for key in ("elements", "unit", "table")),
            name=doc.get("name", "monoid"),
        )
    if kind == "category":
        return FiniteCategory(
            *(_required(doc, key, "category document")
              for key in ("objects", "morphisms", "identities", "compose")),
            name=doc.get("name", "category"),
        )
    if kind == "seeds":
        return {
            "instance": _required(doc, "instance", "seeds document"),
            "seeds": [_parse_map(m) for m in _required(doc, "seeds", "seeds document")],
            "generators": [
                _parse_map(m) for m in _required(doc, "generators", "seeds document")
            ],
        }
    if kind == "family":
        return _parse_family(doc)
    if kind == "square":
        square = {
            side: _parse_map(_required(doc, side, "square document"))
            for side in ("left", "right", "top", "bottom")
        }
        square["corner"] = doc.get("corner")
        return square
    raise ValidationError(f"unknown sort {kind!r}")


def _parse_sset(doc):
    cap = doc.get("cap")
    if not isinstance(cap, int):
        raise ValidationError("sset document needs an integer cap")
    cells = {int(n): tuple(v) for n, v in _required(doc, "cells", "sset document").items()}
    faces, degens = {}, {}
    for key, ops in (("faces", faces), ("degeneracies", degens)):
        for n, table in _required(doc, key, "sset document").items():
            n = int(n)
            for cell, images in table.items():
                for i, image in enumerate(images):
                    ops.setdefault((n, i), {})[cell] = image
    return trunc_sset(cap, cells, faces, degens)


def _parse_map(doc):
    if doc.get("kind") != "map":
        raise ValidationError("expected a map document")
    domain = parse_document(_required(doc, "domain", "map document"))
    codomain = parse_document(_required(doc, "codomain", "map document"))
    return PresheafMap(domain, codomain, doc.get("on", {}))


def _parse_family(doc):
    instance = _required(doc, "instance", "family document")
    depth = _required(doc, "depth", "family document")
    entries = []
    for k, entry in enumerate(_required(doc, "entries", "family document")):
        arrow, entry_depth, provenance = (
            _required(entry, key, f"family entry {k}") for key in ("arrow", "depth", "provenance")
        )
        entries.append(FamilyEntry(_parse_map(arrow), entry_depth, provenance))
    return AnodyneFamily(
        instance,
        tuple(entries),
        depth,
        _required(doc, "seed_count", "family document"),
        _required(doc, "generator_count", "family document"),
        {int(k): v for k, v in _required(doc, "pre_dedup_counts", "family document").items()},
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
        cap = len(obj.signature.sorts) - 1
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
