"""On-disk cache of computed marks tables, keyed by group fingerprint.

An entry holds the compact document of `MarksTable.to_sparse_json`: each
class as its label, order and member mask in image order, each row of the
table as its nonzero [j, mark] pairs.  Entries of an earlier version are
misses.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from itertools import accumulate, chain
from pathlib import Path

from .permgroup import PermGroup

CACHE_VERSION = 2
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


def _is_marks_document(marks, group: PermGroup) -> bool:
    """Cheap shape checks of a cached compact marks payload.

    Every class has a str label, an int order and an int `members` with
    that many bits, all below bit |G|, so `marks` and `verify --suite
    dress` can rebuild its representative; labels are distinct.  Each
    class has a row, a nonempty list of [j, mark] pairs of ints with every
    mark positive and j increasing from the first pair, (0, |G|/|H|), to
    the last, the diagonal (i, mark): the expanded table is lower
    triangular with a positive diagonal.

    Each check runs over all classes or all pairs in one C-level pass.
    """
    if type(marks) is not dict:
        return False
    classes, rows = marks.get("classes"), marks.get("rows")
    if not (type(classes) is list and type(rows) is list and classes
            and len(rows) == len(classes) and {*map(type, classes)} == {dict}
            and {*map(type, rows)} == {list} and all(rows)):
        return False
    n = len(classes)
    labels = [cls.get("label") for cls in classes]
    orders = [cls.get("order") for cls in classes]
    members = [cls.get("members") for cls in classes]
    if not ({*map(type, labels)} == {str} and len({*labels}) == n
            and {*map(type, orders)} == {*map(type, members)} == {int}
            and min(members) > 0 and max(members) < 1 << group.order
            and list(map(int.bit_count, members)) == orders):
        return False
    pairs = list(chain.from_iterable(rows))
    if {*map(type, pairs)} != {list} or {*map(len, pairs)} != {2}:
        return False
    js, marks_of = zip(*pairs)
    if ({*map(type, js), *map(type, marks_of)} != {int}
            or min(marks_of) <= 0):
        return False
    # row i is pairs[starts[i]:starts[i + 1]]; its first j is 0 and its
    # last is i, so the only adjacent j that do not increase are those
    # across the end of a row, n - 1 of them, when every row increases
    starts = list(accumulate(map(len, rows), initial=0))
    return (all(js[s] == 0 for s in starts[:-1])
            and [js[e - 1] for e in starts[1:]] == list(range(n))
            and sum(map(int.__lt__, js, js[1:])) == len(js) - n
            and all(marks_of[s] * order == group.order
                    for s, order in zip(starts, orders)))


def load_marks_json(cache_dir: Path, group: PermGroup) -> dict | None:
    """The cached compact marks document, or None on a miss, a stale
    version or a foreign or malformed entry.

    An entry that fails `_is_marks_document` counts as a miss, so the
    caller recomputes it and overwrites the file.
    """
    fp = fingerprint(group)
    path = _path_for(cache_dir, fp)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError, RecursionError):
        # unreadable, not UTF-8 JSON, or nested past the decoder's depth
        return None
    if (type(doc) is not dict or doc.get("version") != CACHE_VERSION
            or doc.get("fingerprint") != fp
            or not _is_marks_document(doc.get("marks"), group)):
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
