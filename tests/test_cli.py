import json
from pathlib import Path

import pytest

from burnside.cli import build_parser, main


# `blocks -p p` and `growth -p p --max-degree 6` for every p | |G|, and `ext`
# and `tor` from class 1 to the second class at `--max-degree 4`, for S3,
# C4, C6, V4, D4, Q8 and S4; `ext` and `tor` between the same classes at
# `--max-degree 3 --oracle` for S3, C4, C6, V4, Q8 and A4: the JSON on
# stdout, byte for byte
REPORT_GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "cli_golden.json").read_text())


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_marks_json(capsys, tmp_path):
    code, out, _ = run(capsys, "marks", "--group", "S3", "--format", "json",
                       "--cache-dir", str(tmp_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["matrix"] == [[6, 0, 0, 0], [3, 1, 0, 0], [2, 0, 2, 0],
                             [1, 1, 1, 1]]


def test_marks_uses_cache(capsys, tmp_path):
    run(capsys, "marks", "--group", "S4", "--cache-dir", str(tmp_path))
    assert len(list(tmp_path.glob("marks-*.json"))) == 1
    code, out, _ = run(capsys, "marks", "--group", "S4", "--format", "json",
                       "--cache-dir", str(tmp_path))
    assert code == 0
    assert len(json.loads(out)["classes"]) == 11


def test_gens_flag(capsys, tmp_path):
    code, out, _ = run(capsys, "marks", "--gens", "(1 2 3),(1 2)",
                       "--format", "json", "--cache-dir", str(tmp_path))
    assert code == 0
    assert json.loads(out)["group"] == "(1 2 3),(1 2)"


def test_dmatrix_json(capsys, tmp_path):
    code, out, _ = run(capsys, "dmatrix", "--group", "C4", "--format", "json",
                       "--cache-dir", str(tmp_path))
    assert code == 0
    doc = json.loads(out)
    assert {"i": "1", "j": "2", "d": 4} in doc["d"]
    assert doc["partitions"] == [{"p": 2, "classes": [["1", "2", "4"]]}]


def test_blocks_json(capsys, tmp_path):
    code, out, _ = run(capsys, "blocks", "--group", "S3", "-p", "2",
                       "--format", "json", "--cache-dir", str(tmp_path))
    assert code == 0
    doc = json.loads(out)
    assert [b["dim"] for b in doc["blocks"]] == [2, 2]
    assert all(b["symmetric"] and b["bounded"] for b in doc["blocks"])


def test_blocks_at_a_large_prime(capsys, tmp_path):
    # no per-prime table: p = 2^31 - 1 costs what p = 13 does
    code, out, _ = run(capsys, "blocks", "--group", "S3", "-p", "2147483647",
                       "--format", "json", "--cache-dir", str(tmp_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["p"] == 2147483647
    assert [b["dim"] for b in doc["blocks"]] == [1, 1, 1, 1]


@pytest.mark.parametrize("case", REPORT_GOLDEN,
                         ids=lambda case: " ".join(case["argv"]))
def test_report_json_is_byte_identical(capsys, tmp_path, case):
    assert main(case["argv"] + ["--cache-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out == case["stdout"]


@pytest.mark.parametrize("case", REPORT_GOLDEN,
                         ids=lambda case: " ".join(case["argv"]))
def test_warm_report_json_is_byte_identical(capsys, tmp_path, case):
    # the second run reads the entry the first one stored: the cache never
    # changes output
    argv = case["argv"] + ["--cache-dir", str(tmp_path)]
    for _ in range(2):
        assert main(argv) == 0
        assert capsys.readouterr().out == case["stdout"]
    assert len(list(tmp_path.glob("marks-*.json"))) == 1


def test_ext_json_with_oracle(capsys, tmp_path):
    code, out, _ = run(capsys, "ext", "--group", "S3", "--source", "1",
                       "--target", "1", "--max-degree", "4", "--oracle",
                       "--format", "json", "--cache-dir", str(tmp_path))
    assert code == 0
    doc = json.loads(out)
    cells = doc["degrees"]
    assert cells[2]["module"] == "Z/6"
    assert cells[2]["provenance"] == "oracle"
    assert cells[4]["provenance"] == "closed-form"
    assert cells[3]["module"] == "0"


def test_tor_table(capsys, tmp_path):
    code, out, _ = run(capsys, "tor", "--group", "S3", "--source", "1",
                       "--target", "2", "--max-degree", "3",
                       "--cache-dir", str(tmp_path))
    assert code == 0
    assert "l=0: Z/2" in out


@pytest.mark.parametrize("p", ["0", "4"])
@pytest.mark.parametrize("argv", [
    ("growth", "--group", "S3", "--source", "1", "--target", "2"),
    ("growth", "--group", "S3", "--source", "1", "--target", "3"),
    ("blocks", "--group", "S3"),
])
def test_non_prime_p_exits_2(capsys, tmp_path, argv, p):
    code, out, err = run(capsys, *argv, "-p", p, "--cache-dir", str(tmp_path))
    assert code == 2
    assert out == ""
    assert f"{p} is not prime" in err
    assert "Traceback" not in err


def test_blocks_at_a_prime_near_10_to_18(capsys, tmp_path):
    # dividing by every d <= sqrt(p) takes minutes at this p; S3's four
    # classes stay apart at a prime coprime to its order
    code, out, _ = run(capsys, "blocks", "--group", "S3",
                       "-p", "1000000000000000003", "--format", "json",
                       "--cache-dir", str(tmp_path))
    assert code == 0
    doc = json.loads(out)
    assert [b["dim"] for b in doc["blocks"]] == [1, 1, 1, 1]


def test_p_from_psi_13_on_exits_2(capsys, tmp_path):
    code, out, err = run(capsys, "blocks", "--group", "S3",
                         "-p", "3317044064679887385961981",
                         "--cache-dir", str(tmp_path))
    assert (code, out) == (2, "")
    assert "decided only below psi_13 = 3317044064679887385961981" in err
    assert "Traceback" not in err


def test_growth_command(capsys, tmp_path):
    code, out, _ = run(capsys, "growth", "--group", "C4", "-p", "2",
                       "--max-degree", "8", "--cache-dir", str(tmp_path))
    assert code == 0
    assert "ranks 0,2,2,6,10,22,42,86" in out
    assert "verdict: unbounded" in out
    code, out, _ = run(capsys, "growth", "--group", "S3", "-p", "2",
                       "--max-degree", "4", "--cache-dir", str(tmp_path))
    assert code == 0
    assert "verdict: bounded" in out


@pytest.mark.parametrize("suite,group,expect_code,needle", [
    ("squarefree", "C6", 0, "pass"),
    ("squarefree", "C4", 0, "not-applicable"),
    ("dress", "S3", 0, "ok"),
    ("blocks", "S4", 0, "ok"),
    ("oracle", "C4", 0, "ok"),
])
def test_verify_suites(capsys, tmp_path, suite, group, expect_code, needle):
    code, out, _ = run(capsys, "verify", "--group", group, "--suite", suite,
                       "--cache-dir", str(tmp_path))
    assert code == expect_code
    assert needle in out


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_verify_takes_no_format(capsys, tmp_path, fmt):
    # verify prints a verdict line, not a report: --format is a usage error
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--group", "S3", "--suite", "dress", "--format", fmt,
              "--cache-dir", str(tmp_path)])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "unrecognized arguments: --format" in err


def _never_same(self, other):
    return False


def _no_blocks(algebra):
    return []


def _always_conjugate(group, h, k):
    return True


def _free_five(ctx, i, j, L):
    from burnside.exttor import ModuleType
    return [ModuleType.free(5) for _ in range(L + 1)]


# each suite with one collaborator made to fail: a failed verification
# exits 1 and says so on stdout, with nothing on stderr
@pytest.mark.parametrize("suite,group,target,name,fake,needle", [
    ("squarefree", "C6", "burnside.exttor.DegreeCell", "same_value",
     _never_same, "squarefree: FAIL at ('1', '1', 1)"),
    ("dress", "S3", "burnside.cli", "are_conjugate", _always_conjugate,
     "MISMATCHES"),
    ("blocks", "S3", "burnside.cli", "blocks", _no_blocks, ": FAIL (count 0"),
    ("oracle", "C2", "burnside.cli", "oracle_ext", _free_five,
     "oracle: 16 FAILURES"),
])
def test_failed_verification_exits_1(capsys, tmp_path, monkeypatch, suite,
                                     group, target, name, fake, needle):
    monkeypatch.setattr(f"{target}.{name}", fake)
    argv = ["verify", "--group", group, "--suite", suite]
    if suite in ("squarefree", "oracle"):
        argv += ["--max-degree", "3"]
    code, out, err = run(capsys, *argv, "--cache-dir", str(tmp_path))
    assert code == 1
    assert needle in out
    assert err == ""


def test_one_parser_serves_every_call(capsys, tmp_path):
    # the parser is built once per process; a usage error and an input
    # error parsed by it leave nothing behind for the next call
    assert build_parser() is build_parser()
    case = next(c for c in REPORT_GOLDEN if "--oracle" in c["argv"])
    with pytest.raises(SystemExit) as exc:
        main(["ext", "--group", "S3", "--max-degree", "1", "--format",
              "table", "--cache-dir", str(tmp_path)])
    assert exc.value.code == 2
    code, out, err = run(capsys, "ext", "--group", "E9", "--source", "1",
                         "--target", "1", "--max-degree", "1",
                         "--cache-dir", str(tmp_path))
    assert code == 2 and out == "" and "unknown group name" in err
    assert main(case["argv"] + ["--cache-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out == case["stdout"]


def test_usage_errors(capsys, tmp_path):
    code, _, err = run(capsys, "marks", "--cache-dir", str(tmp_path))
    assert code == 2 and "exactly one" in err
    code, _, err = run(capsys, "marks", "--group", "E9",
                       "--cache-dir", str(tmp_path))
    assert code == 2 and "unknown group name" in err
    code, _, err = run(capsys, "marks", "--gens", "(1 2",
                       "--cache-dir", str(tmp_path))
    assert code == 2
    assert main([]) == 2


def test_deterministic_output(capsys, tmp_path):
    args = ("dmatrix", "--group", "D4", "--format", "json",
            "--cache-dir", str(tmp_path))
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_cache_hit_reports_its_own_group_name(capsys, tmp_path):
    # both spellings close to S3 on the same generators: one cache entry
    specs = [("--group", "S3"), ("--gens", "(1 2 3),(1 2)"),
             ("--gens", "(1 2),(1 2 3)")]
    for flag, spec in specs + specs:
        code, out, _ = run(capsys, "marks", flag, spec, "--format", "json",
                           "--cache-dir", str(tmp_path))
        assert code == 0
        assert json.loads(out)["group"] == spec
    assert len(list(tmp_path.glob("marks-*.json"))) == 1
    code, out, _ = run(capsys, "marks", "--gens", "(1 2),(1 2 3)",
                       "--cache-dir", str(tmp_path))
    assert out.startswith("table of marks for (1 2),(1 2 3)\n")


@pytest.mark.parametrize("argv,least", [
    (("ext", "--group", "C2", "--source", "1", "--target", "1"), 0),
    (("tor", "--group", "C2", "--source", "1", "--target", "1"), 0),
    (("growth", "--group", "C2", "-p", "2"), 1),
    (("verify", "--group", "C6", "--suite", "squarefree"), 3),
    (("verify", "--group", "C2", "--suite", "oracle"), 0),
])
def test_degenerate_max_degree_rejected(capsys, tmp_path, argv, least):
    for bad in (least - 1, -1):
        code, out, err = run(capsys, *argv, "--max-degree", str(bad),
                             "--cache-dir", str(tmp_path))
        assert code == 2 and out == ""
        assert f"--max-degree must be at least {least}" in err
    code, _, err = run(capsys, *argv, "--max-degree", str(least),
                       "--cache-dir", str(tmp_path))
    assert code == 0, err


def test_verify_oracle_keeps_max_degree_zero(capsys, tmp_path):
    code, out, _ = run(capsys, "verify", "--group", "C2", "--suite", "oracle",
                       "--max-degree", "0", "--cache-dir", str(tmp_path))
    assert code == 0
    assert "degrees 0..0," in out


def test_oracle_mismatch_exits_2_without_traceback(capsys, tmp_path,
                                                   monkeypatch):
    import burnside.cli as cli
    from burnside.exttor import ModuleType

    monkeypatch.setattr(cli, "oracle_ext", lambda ctx, i, j, L: [
        ModuleType.free(5) for _ in range(L + 1)])
    code, out, err = run(capsys, "ext", "--group", "S3", "--source", "1",
                         "--target", "1", "--max-degree", "1", "--oracle",
                         "--cache-dir", str(tmp_path))
    assert code == 2 and out == ""
    assert err.startswith("error: oracle ")
    assert "Traceback" not in err


CONGRUENCE_MATRIX_COUNTS = [
    (("blocks", "-p", "2", "--group", "S3"), 0, 1),
    (("ext", "--group", "S3", "--source", "1", "--target", "2",
      "--max-degree", "3", "--oracle"), 0, 1),
    (("tor", "--group", "S3", "--source", "1", "--target", "2"), 0, 1),
    (("growth", "--group", "S3", "-p", "2"), 0, 1),
    (("verify", "--group", "S3", "--suite", "blocks"), 0, 1),
    (("verify", "--group", "S3", "--suite", "oracle", "--max-degree", "2"),
     0, 1),
    (("verify", "--group", "S3", "--suite", "squarefree"), 0, 1),
    (("dmatrix", "--group", "S3"), 1, 1),
    (("verify", "--group", "S3", "--suite", "dress"), 1, 0),
]


def test_one_congruence_matrix_per_context(capsys, tmp_path, monkeypatch):
    # the p-classes come from the columns' residues and each d(i, j) a
    # report reads from its own columns: only `dmatrix`, which prints the
    # matrix, and `verify --suite dress`, which checks it against O^p
    # conjugacy, build the congruence matrix
    from burnside.bring import CongruenceMatrix
    from burnside.exttor import ExtTorContext

    built = {CongruenceMatrix: 0, ExtTorContext: 0}

    def counting(cls):
        init = cls.__init__

        def counted(self, *args, **kwargs):
            built[cls] += 1
            init(self, *args, **kwargs)
        return counted

    for cls in built:
        monkeypatch.setattr(cls, "__init__", counting(cls))
    for argv, matrices, contexts in CONGRUENCE_MATRIX_COUNTS:
        built.update(dict.fromkeys(built, 0))
        code, _, err = run(capsys, *argv, "--cache-dir", str(tmp_path))
        assert code == 0, err
        assert built == {CongruenceMatrix: matrices,
                         ExtTorContext: contexts}, argv


def test_dmatrix_rejects_partitions_its_matrix_disagrees_with(
        capsys, tmp_path, monkeypatch):
    # the printed p-classes are checked against p | d(i, j) read off the
    # printed matrix: a merged partition exits 2 and prints nothing
    from burnside import cli
    from burnside.bring import PrimeEquivalence

    def merged(ring, p):
        return PrimeEquivalence(p, [list(range(ring.n))], [0] * ring.n, ring)

    monkeypatch.setattr(cli, "p_classes", merged)
    code, out, err = run(capsys, "dmatrix", "--group", "S3",
                         "--cache-dir", str(tmp_path))
    assert code == 2 and out == ""
    assert err == "error: the 2-classes put 1 and 3 together, but d = 3\n"


def test_growth_builds_r_mod_p_only_for_a_shared_block(capsys, tmp_path,
                                                    monkeypatch):
    # S3 classes 1 and 2 have d = 2: they share no block at p = 3
    from burnside.modp import ModPAlgebra

    built = []
    init = ModPAlgebra.__init__

    def counted(self, ring, p):
        built.append(p)
        init(self, ring, p)
    monkeypatch.setattr(ModPAlgebra, "__init__", counted)
    for p, want in (("3", []), ("2", ["2"])):
        code, out, err = run(capsys, "growth", "--group", "S3", "-p", p,
                             "--source", "1", "--target", "2",
                             "--max-degree", "4", "--cache-dir", str(tmp_path))
        assert code == 0, err
        assert "verdict: bounded" in out
        assert [str(q) for q in built] == want
        built.clear()


def test_ext_oracle_checks_primes_missing_from_the_report(capsys, tmp_path,
                                                          monkeypatch):
    # an oracle with an extra Z/3 at degree 1 must fail the cross-check
    # even though the report lists only p = 2 there
    import burnside.cli as cli
    from burnside.exttor import ModuleType

    real = cli.oracle_ext

    def skewed(ctx, i, j, L):
        out = real(ctx, i, j, L)
        out[1] = ModuleType(out[1].free_rank, (3,) + out[1].invariants)
        return out

    monkeypatch.setattr(cli, "oracle_ext", skewed)
    code, out, err = run(capsys, "ext", "--group", "C4", "--source", "1",
                         "--target", "2", "--max-degree", "2", "--oracle",
                         "--cache-dir", str(tmp_path))
    assert code == 2 and out == ""
    assert err.startswith("error: oracle p-rank 1 != report 0 at degree 1, p = 3")
    assert "Traceback" not in err


def test_dress_on_the_trivial_group_is_not_applicable(capsys, tmp_path):
    code, out, err = run(capsys, "verify", "--group", "C1", "--suite", "dress",
                         "--cache-dir", str(tmp_path))
    assert code == 0, err
    assert out == "dress: not-applicable (|C1| = 1 has no prime divisor)\n"


@pytest.mark.parametrize("suite", ["dress", "blocks"])
@pytest.mark.parametrize("degree", ["-4", "0", "3"])
def test_max_degree_rejected_by_suites_without_degrees(capsys, tmp_path,
                                                       suite, degree):
    code, out, err = run(capsys, "verify", "--group", "S3", "--suite", suite,
                         "--max-degree", degree, "--cache-dir", str(tmp_path))
    assert code == 2 and out == ""
    assert "--suite squarefree" in err and "--suite oracle" in err
    assert "Traceback" not in err


def test_warm_dress_reads_the_marks_cache(capsys, tmp_path, monkeypatch):
    # the second run must take its subgroup classes from the cached marks
    # document, wherever a module binds the lattice function
    import sys

    from burnside.permgroup import subgroup_classes

    argv = ("verify", "--group", "S4", "--suite", "dress",
            "--cache-dir", str(tmp_path))
    code, cold, err = run(capsys, *argv)
    assert code == 0, err

    def lattice(group):
        raise RuntimeError("subgroup lattice recomputed on a warm cache")

    for name, module in list(sys.modules.items()):
        if name == "burnside" or name.startswith("burnside."):
            for key, value in list(vars(module).items()):
                if value is subgroup_classes:
                    monkeypatch.setattr(module, key, lattice)
    code, warm, err = run(capsys, *argv)
    assert code == 0, err
    assert warm == cold


def _out_of_memory(*args, **kwargs):
    raise MemoryError


# a layer that runs out of memory: the request is refused with exit 2 and
# one line on stderr, not a traceback and the exit 1 of a failed suite
@pytest.mark.parametrize("argv, target", [
    (("marks", "--group", "S3"), "burnside.cli.table_of_marks"),
    (("blocks", "--group", "S3", "-p", "2"), "burnside.cli.blocks_report"),
    (("growth", "--group", "C4", "-p", "2"), "burnside.exttor.ext_dims_pair"),
])
def test_out_of_memory_exits_2(capsys, tmp_path, monkeypatch, argv, target):
    monkeypatch.setattr(target, _out_of_memory)
    code, out, err = run(capsys, *argv, "--cache-dir", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err == f"error: out of memory in {argv[0]}\n"
