import json

import pytest

from burnside.cache import (CACHE_VERSION, fingerprint, load_marks_json,
                            resolve_cache_dir, store_marks_json)
from burnside.cli import main
from burnside.marks import table_of_marks
from util import get_group, get_marks


def test_fingerprint_ignores_generator_order():
    g = get_group("S3")
    fp = fingerprint(g)
    assert fp.startswith("3|")
    from burnside.permgroup import enumerate_elements
    reordered = enumerate_elements(list(reversed(g.generators)))
    assert fingerprint(reordered) == fp


def test_round_trip_identical_bytes(tmp_path):
    group = get_group("S3")
    doc = get_marks("S3").to_json("S3")
    store_marks_json(tmp_path, group, doc)
    loaded = load_marks_json(tmp_path, group)
    recomputed = table_of_marks(group).to_json("S3")
    dump = lambda d: json.dumps(d, sort_keys=True).encode()
    assert dump(loaded) == dump(doc) == dump(recomputed)


def test_miss_and_stale_version(tmp_path):
    group = get_group("C4")
    assert load_marks_json(tmp_path, group) is None
    store_marks_json(tmp_path, group, get_marks("C4").to_json("C4"))
    assert load_marks_json(tmp_path, group) is not None
    # corrupt the version tag: the entry must be treated as a miss
    path = next(tmp_path.glob("marks-*.json"))
    doc = json.loads(path.read_text())
    doc["version"] = CACHE_VERSION + 1
    path.write_text(json.dumps(doc))
    assert load_marks_json(tmp_path, group) is None


def test_resolve_cache_dir_precedence(tmp_path, monkeypatch):
    monkeypatch.setenv("BURNSIDE_CACHE", str(tmp_path / "env"))
    assert resolve_cache_dir(None) == tmp_path / "env"
    assert resolve_cache_dir(str(tmp_path / "flag")) == tmp_path / "flag"
    monkeypatch.delenv("BURNSIDE_CACHE")
    assert resolve_cache_dir(None).name == "burnside"


def _set(path, value):
    """Corruption that sets doc[path[0]][path[1]]... to value."""
    def corrupt(doc):
        *head, last = path
        for key in head:
            doc = doc[key]
        doc[last] = value
    return corrupt


# each corruption of a cached S3 entry ended in a traceback or in wrong
# output before entries were validated on load
CORRUPTIONS = {
    "truncated matrix": lambda doc: doc["marks"]["matrix"].pop(),
    "empty payload": lambda doc: doc["marks"].clear(),
    "matrix not a list": _set(["marks", "matrix"], 7),
    "row not a list": _set(["marks", "matrix", 2], 3),
    "short row": lambda doc: doc["marks"]["matrix"][3].pop(),
    "entry above the diagonal": _set(["marks", "matrix", 0, 1], 1),
    "zero diagonal": _set(["marks", "matrix", 3, 3], 0),
    "first column not |G|/|H|": _set(["marks", "matrix", 1, 0], 2),
    "non-int entry": _set(["marks", "matrix", 2, 2], "2"),
    "missing classes": lambda doc: doc["marks"].pop("classes"),
    "class without order": lambda doc: doc["marks"]["classes"][1].pop("order"),
    "duplicate label": _set(["marks", "classes", 2, "label"], "2"),
    "payload not a dict": _set(["marks"], []),
}


@pytest.mark.parametrize("command", ["marks", "dmatrix"])
@pytest.mark.parametrize("corrupt", CORRUPTIONS.values(), ids=CORRUPTIONS)
def test_corrupted_entry_is_recomputed(capsys, tmp_path, command, corrupt):
    argv = [command, "--group", "S3", "--format", "json",
            "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    fresh = capsys.readouterr().out
    path = next(tmp_path.glob("marks-*.json"))
    good = path.read_bytes()
    doc = json.loads(good)
    corrupt(doc)
    path.write_text(json.dumps(doc))
    assert load_marks_json(tmp_path, get_group("S3")) is None
    assert main(argv) == 0
    out = capsys.readouterr()
    assert out.out == fresh
    assert "Traceback" not in out.err
    assert path.read_bytes() == good  # the entry was overwritten


def test_deeply_nested_entry_is_recomputed(capsys, tmp_path):
    # json.load raises RecursionError, not ValueError, on an array nested
    # past the decoder's depth; the entry still counts as a miss
    argv = ["marks", "--group", "S3", "--format", "json",
            "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    fresh = capsys.readouterr().out
    path = next(tmp_path.glob("marks-*.json"))
    good = path.read_bytes()
    path.write_text("[" * 200_000 + "]" * 200_000)
    assert load_marks_json(tmp_path, get_group("S3")) is None
    assert main(argv) == 0
    out = capsys.readouterr()
    assert out.out == fresh
    assert "Traceback" not in out.err
    assert path.read_bytes() == good


def test_document_that_is_not_an_object_is_a_miss(tmp_path):
    group = get_group("C4")
    store_marks_json(tmp_path, group, get_marks("C4").to_json("C4"))
    path = next(tmp_path.glob("marks-*.json"))
    path.write_text("[1, 2]")
    assert load_marks_json(tmp_path, group) is None


# `verify --suite dress` rebuilds the class representatives from the cached
# element lists, so each one must name an element of the group
BAD_REPRESENTATIVES = {
    "not a permutation": [0, 0, 2],
    "outside the group": [0, 1, 2, 3],
    "nested list": [[0], 1, 2],
    "not a list": 5,
}


@pytest.mark.parametrize("element", BAD_REPRESENTATIVES.values(),
                         ids=BAD_REPRESENTATIVES)
def test_foreign_representative_is_recomputed(capsys, tmp_path, element):
    argv = ["verify", "--group", "S3", "--suite", "dress",
            "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    fresh = capsys.readouterr().out
    path = next(tmp_path.glob("marks-*.json"))
    good = path.read_bytes()
    doc = json.loads(good)
    doc["marks"]["classes"][1]["representative"][1] = element
    path.write_text(json.dumps(doc))
    assert load_marks_json(tmp_path, get_group("S3")) is None
    assert main(argv) == 0
    out = capsys.readouterr()
    assert out.out == fresh
    assert "Traceback" not in out.err
    assert path.read_bytes() == good
