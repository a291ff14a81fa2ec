import json

import pytest

from burnside.cache import (CACHE_VERSION, fingerprint, load_marks_json,
                            resolve_cache_dir, store_marks_json)
from burnside.cli import main
from burnside.marks import dense_matrix, marks_document, table_of_marks
from burnside.permgroup import Subgroup, enumerate_elements
from util import get_group, get_marks


def test_fingerprint_ignores_generator_order():
    g = get_group("S3")
    fp = fingerprint(g)
    assert fp.startswith("3|")
    reordered = enumerate_elements(list(reversed(g.generators)))
    assert fingerprint(reordered) == fp


def test_round_trip_identical_bytes(tmp_path):
    group = get_group("S3")
    doc = get_marks("S3").to_sparse_json()
    store_marks_json(tmp_path, group, doc)
    loaded = load_marks_json(tmp_path, group)
    recomputed = table_of_marks(group).to_sparse_json()
    dump = lambda d: json.dumps(d, sort_keys=True).encode()
    assert dump(loaded) == dump(doc) == dump(recomputed)
    assert loaded == {
        "classes": [{"label": "1", "order": 1, "members": 0b1},
                    {"label": "2", "order": 2, "members": 0b11},
                    {"label": "3", "order": 3, "members": 0b11001},
                    {"label": "6", "order": 6, "members": 0b111111}],
        "rows": [[[0, 6]], [[0, 3], [1, 1]], [[0, 2], [2, 2]],
                 [[0, 1], [1, 1], [2, 1], [3, 1]]]}


@pytest.mark.parametrize("name", ["S3", "D4", "Q8", "A4"])
def test_entry_expands_to_the_table_and_representatives(name):
    # the rows expand to the dense table, and each member mask, in image
    # order, to the representative's elements
    table = get_marks(name)
    doc = table.to_sparse_json()
    assert dense_matrix(doc["rows"]) == table.matrix
    group = get_group(name)
    for cls, entry in zip(table.class_table, doc["classes"]):
        rep = Subgroup.from_rank_mask(group, entry["members"])
        assert rep == cls.representative
        assert rep.elements == cls.representative.elements
    printed = marks_document(group, {**doc, "group": name})
    assert printed["matrix"] == table.matrix
    assert [c["representative"] for c in printed["classes"]] == [
        [list(g.images) for g in c.representative.elements]
        for c in table.class_table]


def test_entry_does_not_depend_on_generator_order():
    # the fingerprint ignores generator order, so both orders share one
    # entry; member masks are in image order, which closure order is not
    gens = get_group("S4").generators
    forward = enumerate_elements(gens)
    backward = enumerate_elements(list(reversed(gens)))
    assert fingerprint(forward) == fingerprint(backward)
    assert [g.images for g in forward.elements] != [
        g.images for g in backward.elements]
    assert (table_of_marks(forward).to_sparse_json()
            == table_of_marks(backward).to_sparse_json())


def test_miss_and_stale_version(tmp_path):
    group = get_group("C4")
    assert load_marks_json(tmp_path, group) is None
    store_marks_json(tmp_path, group, get_marks("C4").to_sparse_json())
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


def _swap_pairs(doc):
    row = doc["marks"]["rows"][3]
    row[1], row[2] = row[2], row[1]


# Each corruption of a cached S3 entry breaks one load check.  S3's entry
# has classes 1, 2, 3, 6 with rows [[0, 6]], [[0, 3], [1, 1]],
# [[0, 2], [2, 2]] and [[0, 1], [1, 1], [2, 1], [3, 1]].
CORRUPTIONS = {
    "truncated matrix": lambda doc: doc["marks"]["rows"].pop(),
    "empty payload": lambda doc: doc["marks"].clear(),
    "matrix not a list": _set(["marks", "rows"], 7),
    "row not a list": _set(["marks", "rows", 2], 3),
    "empty row": _set(["marks", "rows", 2], []),
    "empty last row": _set(["marks", "rows", 3], []),
    "pair not a list": _set(["marks", "rows", 3, 1], 1),
    "pair of three": lambda doc: doc["marks"]["rows"][3][1].append(1),
    "short row": lambda doc: doc["marks"]["rows"][3].pop(),  # no diagonal
    "pair indices not increasing": _swap_pairs,
    "pair index repeated": _set(["marks", "rows", 3, 2, 0], 1),
    "entry above the diagonal": lambda doc: doc["marks"]["rows"][0].append(
        [1, 1]),
    "zero diagonal": _set(["marks", "rows", 3, 3, 1], 0),
    "negative mark": _set(["marks", "rows", 3, 1, 1], -1),
    "first pair off column 0": _set(["marks", "rows", 2, 0, 0], 1),
    "first column not |G|/|H|": _set(["marks", "rows", 1, 0, 1], 2),
    "non-int entry": _set(["marks", "rows", 2, 1, 1], "2"),
    "bool entry": _set(["marks", "rows", 1, 1, 1], True),
    "missing classes": lambda doc: doc["marks"].pop("classes"),
    "class not a dict": _set(["marks", "classes", 1], 2),
    "class without order": lambda doc: doc["marks"]["classes"][1].pop("order"),
    "label not a str": _set(["marks", "classes", 2, "label"], 3),
    "duplicate label": _set(["marks", "classes", 2, "label"], "2"),
    "payload not a dict": _set(["marks"], []),
}

# argv of the commands that read an entry, each on S3
COMMANDS = {
    "marks": ["marks", "--group", "S3", "--format", "json"],
    "dmatrix": ["dmatrix", "--group", "S3", "--format", "json"],
    "dress": ["verify", "--group", "S3", "--suite", "dress"],
}


def _check_recomputed(capsys, cache_dir, command, corrupt):
    """Run `command` cold, corrupt its entry, and check that the entry is
    a miss which the next run recomputes, printing the same stdout and
    writing the same bytes back."""
    argv = COMMANDS[command] + ["--cache-dir", str(cache_dir)]
    assert main(argv) == 0
    fresh = capsys.readouterr().out
    path = next(cache_dir.glob("marks-*.json"))
    good = path.read_bytes()
    doc = json.loads(good)
    corrupt(doc)
    path.write_text(json.dumps(doc))
    assert load_marks_json(cache_dir, get_group("S3")) is None
    assert main(argv) == 0
    out = capsys.readouterr()
    assert out.out == fresh
    assert "Traceback" not in out.err
    assert path.read_bytes() == good  # the entry was overwritten


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("corrupt", CORRUPTIONS.values(), ids=CORRUPTIONS)
def test_corrupted_entry_is_recomputed(capsys, tmp_path, command, corrupt):
    _check_recomputed(capsys, tmp_path, command, corrupt)


@pytest.mark.parametrize("version", [1, CACHE_VERSION])
def test_v1_entry_is_recomputed(capsys, tmp_path, version):
    # an entry as version 1 wrote it sits at the path of the same
    # fingerprint: it is a miss, and so is its payload under version 2.
    # Its payload was the printed document without the group name: the
    # dense table and each representative's image lists
    def corrupt(doc):
        doc["marks"] = marks_document(get_group("S3"),
                                      {**doc["marks"], "group": "S3"})
        del doc["marks"]["group"]
        doc["version"] = version
    for command in COMMANDS:
        (tmp_path / command).mkdir()
        _check_recomputed(capsys, tmp_path / command, command, corrupt)


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


def test_empty_row_of_the_trivial_group_is_a_miss(tmp_path):
    # with C1's one row empty, no pair is left at all
    group = get_group("C1")
    store_marks_json(tmp_path, group, get_marks("C1").to_sparse_json())
    assert load_marks_json(tmp_path, group)["rows"] == [[[0, 1]]]
    path = next(tmp_path.glob("marks-*.json"))
    doc = json.loads(path.read_text())
    doc["marks"]["rows"] = [[]]
    path.write_text(json.dumps(doc))
    assert load_marks_json(tmp_path, group) is None


def test_document_that_is_not_an_object_is_a_miss(tmp_path):
    group = get_group("C4")
    store_marks_json(tmp_path, group, get_marks("C4").to_sparse_json())
    path = next(tmp_path.glob("marks-*.json"))
    path.write_text("[1, 2]")
    assert load_marks_json(tmp_path, group) is None


# `marks` and `verify --suite dress` rebuild the representative of class 2
# of S3 (order 2, members 0b11) from its member mask, so the mask must
# name `order` elements of the group
BAD_REPRESENTATIVES = {
    "outside the group": 0b1 | 1 << 6,  # bit |G| set
    "more members than the order": 0b111,
    "fewer members than the order": 0b1,
    "negative": -0b11,  # its bit_count is 2
    "not an int": "3",
    "a list": [0, 1],
}


@pytest.mark.parametrize("members", BAD_REPRESENTATIVES.values(),
                         ids=BAD_REPRESENTATIVES)
def test_foreign_representative_is_recomputed(capsys, tmp_path, members):
    for command in COMMANDS:
        (tmp_path / command).mkdir()
        _check_recomputed(capsys, tmp_path / command, command,
                          _set(["marks", "classes", 1, "members"], members))
