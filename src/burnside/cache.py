"""On-disk cache of computed marks tables, keyed by group fingerprint."""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

from .permgroup import PermGroup

CACHE_VERSION = 1
ENV_VAR = "BURNSIDE_CACHE"


def fingerprint(group: PermGroup) -> str:
    """Degree plus sorted generator images; equal strings mean equal input."""
    gens = sorted(",".join(map(str, g.images)) for g in group.generators)
    return f"{group.degree}|" + ";".join(gens)


def resolve_cache_dir(explicit: str | None = None) -> Path:
    if explicit:
        return Path(explicit)
    env = os.environ.get(ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "burnside"


def _path_for(cache_dir: Path, fp: str) -> Path:
    digest = hashlib.sha256(fp.encode()).hexdigest()[:32]
    return cache_dir / f"marks-{digest}.json"


def _is_marks_document(marks) -> bool:
    """Cheap shape checks of a cached marks payload.

    Every class has a string label, an int order and a list representative
    of that many elements; the matrix is square with one int row per
    class, lower triangular with a positive diagonal, and its first column
    is |G|/|H| (so matrix[i][0] * order_i == matrix[0][0]).
    """
    if not isinstance(marks, dict):
        return False
    classes, matrix = marks.get("classes"), marks.get("matrix")
    if not (isinstance(classes, list) and isinstance(matrix, list)
            and classes and len(matrix) == len(classes)):
        return False
    n = len(classes)
    for i, (cls, row) in enumerate(zip(classes, matrix)):
        if not (isinstance(cls, dict) and isinstance(cls.get("label"), str)
                and type(cls.get("order")) is int
                and isinstance(cls.get("representative"), list)
                and len(cls["representative"]) == cls["order"]
                and isinstance(row, list) and len(row) == n
                and all(type(x) is int for x in row)):
            return False
        if (row[i] <= 0 or any(row[i + 1:])
                or row[0] * cls["order"] != matrix[0][0]):
            return False
    return len({cls["label"] for cls in classes}) == n


def _names_group_elements(marks: dict, group: PermGroup) -> bool:
    """Every representative element is the image list of a group element,
    so `verify --suite dress` can rebuild the class representatives."""
    images = {g.images for g in group.elements}
    return all(isinstance(g, list) and all(type(x) is int for x in g)
               and tuple(g) in images
               for cls in marks["classes"] for g in cls["representative"])


def load_marks_json(cache_dir: Path, group: PermGroup) -> dict | None:
    """The cached marks document, or None on miss/stale/foreign entries.

    An entry that fails `_is_marks_document` or `_names_group_elements`
    counts as a miss, so the caller recomputes it and overwrites the file.
    """
    fp = fingerprint(group)
    path = _path_for(cache_dir, fp)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError, RecursionError):
        # unreadable, not UTF-8 JSON, or nested past the decoder's depth
        return None
    if (not isinstance(doc, dict) or doc.get("version") != CACHE_VERSION
            or doc.get("fingerprint") != fp
            or not _is_marks_document(doc.get("marks"))
            or not _names_group_elements(doc["marks"], group)):
        return None
    return doc["marks"]


def store_marks_json(cache_dir: Path, group: PermGroup, marks: dict) -> None:
    """Write-temp-then-rename so concurrent readers never see partial files."""
    cache_dir.mkdir(parents=True, exist_ok=True)
    fp = fingerprint(group)
    doc = {"version": CACHE_VERSION, "fingerprint": fp, "marks": marks}
    payload = json.dumps(doc, sort_keys=True, indent=None, separators=(",", ":"))
    path = _path_for(cache_dir, fp)
    fd, tmp = tempfile.mkstemp(dir=cache_dir, prefix=".marks-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
