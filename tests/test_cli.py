import argparse
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from localzeta import cache, cli, groups, zeta
from localzeta.rings import parse_ring


def run_cli(args, env_extra=None, timeout=None):
    env = dict(os.environ)
    env.pop("ZETA_CACHE_DIR", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "localzeta.cli", *args],
        capture_output=True,
        env=env,
        timeout=timeout,
    )


DET3 = "a*e*i+b*f*g+c*d*h-c*e*g-b*d*i-a*f*h"
ENTRIES = "table-*.bin"  # the disk-cache entries of a cache directory
CC_ARGS = ["cc", "--group", "heisenberg", "--ring", "zq:p=2,f=1,m=3",
           "--levels", "3"]


def test_cc_report_schema():
    proc = run_cli(CC_ARGS)
    assert proc.returncode == 0
    assert proc.stdout.endswith(b"\n")
    report = json.loads(proc.stdout)
    assert set(report) == {
        "M", "coefficients", "command", "crosschecks", "family",
        "ring", "timings",
    }
    assert report["coefficients"] == ["1", "5", "22"]
    assert report["timings"] == {}
    assert report["M"] == "3"
    # stable key order in the raw bytes
    keys = [k for k in report]
    assert keys == sorted(keys)


def test_repeated_runs_byte_identical():
    for args in (
        CC_ARGS,
        ["hecke", "--group", "A1", "--ring", "zq:p=3,f=1,m=2"],
        ["igusa", "--poly", "a*b - c*d", "--ring", "zq:p=2,f=1,m=2"],
        ["presburger", "--where", "n >= 0", "--sum", "q^(-n*s)",
         "--q", "3", "--levels", "4"],
    ):
        first = run_cli(args)
        second = run_cli(args)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout


def test_cold_and_warm_cache_agree(tmp_path):
    env = {"ZETA_CACHE_DIR": str(tmp_path)}
    cold = run_cli(CC_ARGS, env)
    assert cold.returncode == 0
    entries = list(tmp_path.glob(ENTRIES))
    assert entries
    warm = run_cli(CC_ARGS, env)
    assert warm.returncode == 0
    assert warm.stdout == cold.stdout
    assert b"warning" not in warm.stderr


def test_corrupted_cache_recomputes(tmp_path):
    env = {"ZETA_CACHE_DIR": str(tmp_path)}
    clean = run_cli(CC_ARGS, env)
    for entry in tmp_path.glob(ENTRIES):
        entry.write_bytes(b"not an archive")
    again = run_cli(CC_ARGS, env)
    assert again.returncode == 0
    assert again.stdout == clean.stdout
    assert b"discarding cache entry" in again.stderr


def test_cache_version_bump_ignores_old_entries(tmp_path, monkeypatch):
    monkeypatch.setenv("ZETA_CACHE_DIR", str(tmp_path))
    from localzeta.rings import make_ring

    cache.clear_memo()
    ring = make_ring("zq", 2, 1, 2)
    t1 = cache.table_for("heisenberg", ring)
    before = set(tmp_path.glob(ENTRIES))
    assert len(before) == 2  # level 2 and the level 1 it was built over
    cache.clear_memo()
    monkeypatch.setattr(cache, "FORMAT_VERSION", cache.FORMAT_VERSION + 1)
    t2 = cache.table_for("heisenberg", ring)
    after = set(tmp_path.glob(ENTRIES))
    # old entries untouched but unused; fresh ones were written
    assert before < after and len(after) == 4
    assert t1.size == t2.size
    cache.clear_memo()


def test_an_entry_of_an_older_format_is_reported_as_such(tmp_path,
                                                        monkeypatch, capsys):
    # the discard names the version, before any other field is read
    from localzeta.rings import make_ring

    monkeypatch.setenv("ZETA_CACHE_DIR", str(tmp_path))
    cache.clear_memo()
    ring = make_ring("zq", 2, 1, 2)
    fresh = cache.table_for("heisenberg", ring)
    path = tmp_path / os.path.basename(
        cache._cache_path(cache.as_family("heisenberg"), ring))
    header, arrays = _read_entry(path)
    header["version"] = 4
    _write_entry(path, header, arrays)
    cache.clear_memo()
    capsys.readouterr()
    again = cache.table_for("heisenberg", ring)
    err = capsys.readouterr().err
    assert err.count("discarding cache entry") == 1
    assert "header field version does not match" in err
    assert (again.mats == fresh.mats).all()
    cache.clear_memo()


def test_a_format_4_archive_is_never_read(tmp_path, monkeypatch, capsys):
    # format 4 kept each table as an .npz archive named by a key over
    # version 4; format 5 neither opens nor overwrites one
    from localzeta.rings import make_ring

    def unreadable(*args, **kwargs):
        raise AssertionError("an .npz archive was opened")

    monkeypatch.setenv("ZETA_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(np, "load", unreadable)
    ring = make_ring("zq", 2, 1, 2)
    fam = cache.as_family("heisenberg")
    archives = []
    for level in (ring.subring_level(1), ring):
        key = hashlib.sha256(json.dumps(
            [4, fam.text, fam.struct_hash(), level.literal],
            sort_keys=True).encode()).hexdigest()[:24]
        archives.append(tmp_path / f"table-{key}.npz")
        archives[-1].write_bytes(b"PK\x03\x04 a format-4 archive")
    for _ in range(2):  # cold, then warm
        cache.clear_memo()
        assert cache.table_for(fam, ring).size == 64
        assert capsys.readouterr().err == ""
    assert len(list(tmp_path.glob(ENTRIES))) == 2
    assert all(path.read_bytes() == b"PK\x03\x04 a format-4 archive"
               for path in archives)
    cache.clear_memo()


def test_cache_hits_respect_the_cap(tmp_path, monkeypatch):
    from localzeta.groups import TooLarge
    from localzeta.rings import make_ring

    def unreachable(*args, **kwargs):
        raise AssertionError("the table should come from the cache")

    monkeypatch.setenv("ZETA_CACHE_DIR", str(tmp_path))
    ring = make_ring("zq", 2, 1, 2)
    cache.clear_memo()
    try:
        assert cache.table_for("heisenberg", ring).size == 64
        load = cache._load_disk
        monkeypatch.setattr(cache.Family, "table", unreachable)
        monkeypatch.setattr(cache, "_load_disk", unreachable)
        with pytest.raises(TooLarge):  # memo hit
            cache.table_for("heisenberg", ring, cap=63)
        monkeypatch.setattr(cache, "_load_disk", load)
        cache.clear_memo()
        with pytest.raises(TooLarge):  # disk hit
            cache.table_for("heisenberg", ring, cap=63)
        assert cache.table_for("heisenberg", ring, cap=64).size == 64
    finally:
        cache.clear_memo()


def test_warm_cache_keeps_the_cap_exit_code(tmp_path):
    env = {"ZETA_CACHE_DIR": str(tmp_path)}
    assert run_cli(CC_ARGS, env).returncode == 0
    assert list(tmp_path.glob(ENTRIES))
    assert run_cli(CC_ARGS + ["--cap", "10"], env).returncode == 3


def test_exit_codes():
    assert run_cli(["cc", "--group", "heisenberg",
                    "--ring", "zn:n=6"]).returncode == 2
    assert run_cli(["cc", "--group", "heisenberg"]).returncode == 2
    assert run_cli(["verify", "--suite", "nosuch"]).returncode == 2
    assert run_cli(["presburger", "--where", "n <= 5",
                    "--sum", "q^(-n*s)"]).returncode == 3
    # an empty set with an unbounded variable sums to 0
    assert run_cli(["presburger", "--where", "n >= 0 and n <= -1 and x <= 0",
                    "--sum", "q^(-n*s)"]).returncode == 0
    # the 3x3 determinant over F_2[t]/t^5 has 50 singular zeros over F_2,
    # whose lifting would evaluate about 6.7e9 points
    assert run_cli(["igusa", "--poly", DET3,
                    "--ring", "fqt:p=2,f=1,m=5"]).returncode == 3
    # quantifier elimination turns this formula into about 3.7e63 cells,
    # which the cell budget refuses before building any of them
    proc = run_cli(["presburger", "--sum", "q^(-x*s)", "--where",
                    "exists k ((2*k + x >= 8 and k + 7 != 2*x mod 4)"
                    " or not 2*x + 4 <= 0 or (2*x - 4 <= k and 2*x + 4 <= 2*k"
                    " and (4 - 2*x != k mod 3 or 2*k + 2*x + 8 <= 0)))"],
                   timeout=30)
    assert proc.returncode == 3
    assert b"cells exceed budget 4096" in proc.stderr


@pytest.mark.parametrize("ring", [
    "zq:p=2,f=1,m=2,m=3", "zq:p=2,f=1,m=3,x=5", "zn:n=6,p=3",
], ids=["repeated-key", "unknown-key", "zn-extra-key"])
def test_ring_literal_with_a_bad_key_is_a_usage_error(ring):
    proc = run_cli(["cc", "--group", "heisenberg", "--ring", ring])
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr.startswith(b"error: ring literal")


SERIES = ["presburger", "--where", "n >= 0", "--sum", "q^(-n*s)"]


@pytest.mark.parametrize("argv", [
    ["cc", "--group", "heisenberg", "--ring", "zq:p=2,f=1,m=2",
     "--levels", "0"],
    ["hecke", "--group", "A1", "--ring", "zq:p=2,f=1,m=2", "--levels", "-1"],
    SERIES + ["--q", "2", "--levels", "-1"],
    SERIES + ["--q", "2", "--levels", "two"],
    SERIES + ["--levels", "3"],
    ["transfer", "--group", "heisenberg", "--primes", "2", "--levels", "0"],
], ids=["cc-zero", "hecke-negative", "presburger-negative",
        "presburger-text", "presburger-without-q", "transfer-zero"])
def test_levels_must_be_a_positive_integer(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse's usage error
        code = exc.code
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--levels" in captured.err


@pytest.mark.parametrize("argv", [
    ["cc", "--group", "heisenberg", "--ring", "zq:p=2,f=1,m=2",
     "--cap", "-1"],
    ["hecke", "--group", "A1", "--ring", "zq:p=2,f=1,m=2", "--cap", "0"],
    ["transfer", "--group", "heisenberg", "--primes", "2", "--levels", "2",
     "--cap", "-1"],
], ids=["cc-negative", "hecke-zero", "transfer-negative"])
def test_cap_must_be_a_positive_integer(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse's usage error
        code = exc.code
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--cap" in captured.err and "budget" not in captured.err


def test_the_parser_is_built_once_and_keeps_its_defaults(capsys,
                                                        monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli.build_parser.cache_clear()

    def levels(argv):
        assert cli.main(SERIES + ["--q", "2"] + argv) == 0
        return json.loads(capsys.readouterr().out)["M"]

    assert levels([]) == "6"
    assert levels(["--levels", "3"]) == "3"
    with pytest.raises(SystemExit) as exc:  # argparse's usage error
        cli.main(SERIES + ["--q", "2", "--levels", "0"])
    assert exc.value.code == 2
    assert cli.main(["presburger", "--where", "n >= 0 and", "--sum",
                     "q^(-n*s)", "--levels", "4", "--q", "2"]) == 2
    capsys.readouterr()
    assert levels([]) == "6"
    assert built.count("zeta") == 1  # the subcommands' are "zeta cc", ...


TRANSFER = ["transfer", "--group", "chevalley:A1", "--levels", "2"]


@pytest.mark.parametrize("argv", [
    TRANSFER + ["--primes", "2", "--s1", "-"],
    TRANSFER + ["--primes", "2", "--s2", "-"],
    TRANSFER + ["--primes", ","],
], ids=["s1-without-s2", "s2-without-s1", "no-primes"])
def test_transfer_options_that_name_no_run_are_usage_errors(argv, capsys):
    # a hecke transfer needs both subgroups, and a transfer a prime
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


@pytest.mark.parametrize("group", [
    "borel:A1", "torus:A1", "unipotent:A2", "parabolic:A2:a1",
    "rootset:A2:a1", "chevalley:A2:a1", "heisenberg:A1", ":A1",
])
def test_hecke_takes_only_a_system_or_a_chevalley_family(group, capsys):
    # hecke counts double cosets in chevalley:<system>; any other family
    # prefix is refused, not dropped
    argv = ["hecke", "--group", group, "--ring", "zq:p=2,f=1,m=2"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_hecke_reads_a_system_with_or_without_its_prefix(capsys):
    for group in ("A1", "chevalley:A1"):
        assert cli.main(["hecke", "--group", group,
                         "--ring", "zq:p=2,f=1,m=2"]) == 0
    first, second = capsys.readouterr().out.splitlines()
    assert first == second
    assert json.loads(first)["family"] == "chevalley:A1"


def test_double_cosets_build_no_subgroup_table(tmp_path, monkeypatch,
                                               capsys):
    # hecke builds and stores the tables of G alone; prop73_consistency
    # builds subgroup tables only at level 1, for its order law
    built = []
    enumerate_table = groups.Family.table

    def recording(self, ring, *args, **kwargs):
        built.append((self.text, ring.m))
        return enumerate_table(self, ring, *args, **kwargs)

    monkeypatch.setattr(groups.Family, "table", recording)
    monkeypatch.setenv("ZETA_CACHE_DIR", str(tmp_path))
    cache.clear_memo()
    assert cli.main(["hecke", "--group", "B2", "--s1", "a1", "--s2", "a2",
                     "--ring", "fqt:p=2,f=1,m=3"]) == 0
    assert sorted(built) == [("chevalley:B2", 1), ("chevalley:B2", 2)]
    stored = [_read_entry(path)[0] for path in tmp_path.glob(ENTRIES)]
    assert sorted((h["family"], h["ring"]) for h in stored) == [
        ("chevalley:B2", "fqt:p=2,f=1,m=1"),
        ("chevalley:B2", "fqt:p=2,f=1,m=2")]
    monkeypatch.delenv("ZETA_CACHE_DIR")
    cache.clear_memo()
    built.clear()
    # levels 1-3 (A2 at level 2 passes the pair-scan cap)
    assert zeta.prop73_consistency("A1", "-", "a1", "zq", 2, 1, 4)["ok"]
    assert sorted(built) == [("chevalley:A1", 1), ("chevalley:A1", 2),
                             ("chevalley:A1", 3), ("parabolic:A1:-", 1),
                             ("parabolic:A1:a1", 1)]
    cache.clear_memo()


@pytest.mark.parametrize("group,lit,orders", [
    ("torus:A2", "zq:p=2,f=1,m=3", [1, 4, 16]),
    ("torus:A1", "zq:p=2,f=1,m=2", [1, 2]),
], ids=["A2", "A1"])
def test_a_torus_over_f2_keeps_its_tower(group, lit, orders, capsys,
                                         tmp_path, monkeypatch):
    # F_2^* is trivial, so the level-1 torus has no generators and is the
    # identity alone, of the family's own matrix size; the torus is
    # abelian, so its class counts are its orders
    monkeypatch.delenv("ZETA_CACHE_DIR", raising=False)
    cache.clear_memo()
    for argv in (["cc", "--group", group, "--ring", lit],
                 ["cc", "--group", group, "--ring", lit,
                  "--levels", str(len(orders) + 1)]):
        assert cli.main(argv) == 0
    counts = [json.loads(out)["coefficients"]
              for out in capsys.readouterr().out.splitlines()]
    want = ["1"] + [str(n) for n in orders]
    assert counts == [want[:-1], want]
    fam, ring = groups.Family(group), parse_ring(lit)
    for m, order in enumerate(orders, start=1):
        level = ring.subring_level(m)
        G = cache.table_for(fam, level)
        keyed = groups.generate(level, fam.generators(level), d=fam.d)
        assert G.size == keyed.size == order and G.d == fam.d
        assert G.class_count() == keyed.class_count() == order
    # the identity-alone table is stored and read back like any other
    monkeypatch.setenv("ZETA_CACHE_DIR", str(tmp_path))
    for _ in range(2):  # cold, then warm
        cache.clear_memo()
        assert cli.main(["cc", "--group", group, "--ring", lit]) == 0
        out, err = capsys.readouterr()
        assert json.loads(out)["coefficients"] == want[:-1]
        assert "cache" not in err
    assert len(list(tmp_path.glob(ENTRIES))) == len(orders) - 1
    cache.clear_memo()


def test_levels_given_or_defaulted(capsys):
    cache.clear_memo()
    assert cli.main(["cc", "--group", "heisenberg",
                     "--ring", "zq:p=2,f=1,m=3", "--levels", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["M"], report["coefficients"]) == ("1", ["1"])
    assert cli.main(SERIES + ["--q", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["M"] == "6" and len(report["coefficients"]) == 6


def test_igusa_three_by_three_at_level_three():
    proc = run_cli(["igusa", "--poly", DET3, "--ring", "fqt:p=2,f=1,m=3"])
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["coefficients"] == ["21/64", "147/512", "735/4096"]
    assert report["tail"] == "841/4096"


def test_igusa_has_no_arity_option(capsys):
    # the measures are over exactly the variables f mentions
    try:
        code = cli.main(["igusa", "--poly", "x", "--ring", "zq:p=2,f=1,m=2",
                         "--arity", "1"])
    except SystemExit as exc:  # argparse's usage error
        code = exc.code
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--arity" in captured.err


def test_csv_projection():
    proc = run_cli(CC_ARGS + ["--format", "csv"])
    assert proc.returncode == 0
    lines = proc.stdout.decode().splitlines()
    assert lines[0] == "m,coefficient"
    assert lines[1:] == ["0,1", "1,5", "2,22"]


def test_transfer_subcommand():
    proc = run_cli(["transfer", "--group", "heisenberg",
                    "--primes", "2,3", "--levels", "2"])
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["ok"] is True
    assert [row["equal"] for row in report["rows"]] == [True, True]
    assert report["rows"][0]["zq"] == report["rows"][0]["fqt"] == ["1", "5"]


def test_presburger_subcommand():
    proc = run_cli(["presburger", "--where", "0 <= l and l <= n",
                    "--sum", "q^(-n*s - l)", "--q", "2", "--levels", "4"])
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["sigma0"] == "1"
    assert report["coefficients"] == ["1", "3/2", "7/4", "15/8"]
    assert "X^-1" in report["rational"]


def test_verify_subcommand_small_suite():
    proc = run_cli(["verify", "--suite", "euler"])
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["ok"] is True
    assert report["suite"] == "euler"
    assert all(c["ok"] for c in report["checks"])


def test_verify_repeated_byte_identical():
    first = run_cli(["verify", "--suite", "haar"])
    second = run_cli(["verify", "--suite", "haar"])
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


# sha256 of the stdout of `zeta verify --suite all`, recorded at commit
# ba875de: a change to how tables are built must leave every report
# byte-identical
VERIFY_ALL_SHA256 = (
    "9d58a41bcaad5bfedfec6395a9a108897d960b3342a14e96ce36159e23ffd087"
)


def test_verify_all_stdout_is_pinned():
    proc = run_cli(["verify", "--suite", "all"])
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout).hexdigest() == VERIFY_ALL_SHA256


# sha256 of the stdout of the five fixed `cc` and `hecke` jobs of the
# benchmark (the REFERENCE_SHA256 of bench/workloads.py): their tables are
# enumerated over the level below, so these pin that route's reports
BENCH_JOB_SHA256 = {
    "cc --group heisenberg --ring zq:p=3,f=1,m=5":
        "353169463e68ecfcf01f27ff9565544657cdc9ffdbbdb475ab2ae86383276389",
    "hecke --group A1 --s1 - --s2 - --ring fqt:p=2,f=1,m=6":
        "77079d46f0f812cc3705e17d47e8089c5eb71dea823da8e6581d57940fdcaa1c",
    "hecke --group A1 --s1 - --s2 all --ring fqt:p=2,f=1,m=6":
        "addae75659211d3f1999c62011010e9e30fd44e28494f5825887b261842c2698",
    "cc --group chevalley:A1 --ring fqt:p=2,f=1,m=6":
        "db29169f60da6311f827175e51350494ef7254648e056d486568fe38a421f109",
    "hecke --group B2 --s1 a1 --s2 a2 --ring fqt:p=2,f=1,m=2":
        "87fcaab30a469c7b0262e3678cf0ebccf74ade40e1c7a82378ee4f46e07d6295",
}


def test_benchmark_job_stdout_is_pinned(monkeypatch):
    import contextlib
    import io

    monkeypatch.delenv("ZETA_CACHE_DIR", raising=False)
    try:
        for command, digest in BENCH_JOB_SHA256.items():
            cache.clear_memo()
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                assert cli.main(command.split()) == 0
            got = hashlib.sha256(out.getvalue().encode()).hexdigest()
            assert got == digest, command
    finally:
        cache.clear_memo()


# (poly, ring) of seven igusa reports: factored input, cancelled variables,
# f = 2, a power under unary minus and a constant.  IGUSA_SHA256 is the
# sha256 of their stdout, concatenated in this order; CI pins it too.
IGUSA_REPORTS = [
    ("(x + y)^3 - x*y + 1", "fqt:p=3,f=1,m=3"),
    ("a+b+c-a-b-c", "zq:p=2,f=1,m=3"),
    ("x^3 - y^2", "fqt:p=2,f=1,m=5"),
    ("-(x*y)^2 + 2*x - 7", "zq:p=3,f=2,m=2"),
    ("(w + 2*x + 3*x^2*y)*x - y*z", "zq:p=2,f=1,m=4"),
    ("x - x", "zq:p=2,f=1,m=5"),
    ("9", "zq:p=3,f=1,m=3"),
]
IGUSA_SHA256 = (
    "8d3b8a8a93ea74fa482ca768dcdca84f32e9388763a8b28069ba080eb1877920"
)


def test_igusa_reports_are_pinned():
    import contextlib
    import io

    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        for poly, ring in IGUSA_REPORTS:
            assert cli.main(["igusa", "--poly", poly, "--ring", ring]) == 0
    got = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert got == IGUSA_SHA256


def test_verify_failure_exit_code(monkeypatch):
    from localzeta import verify

    def broken():
        return {"suite": "euler",
                "checks": [{"name": "forced", "ok": False}], "ok": False}

    monkeypatch.setitem(verify.SUITES, "euler", broken)
    import contextlib
    import io

    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["verify", "--suite", "euler"])
    assert code == 1
    assert json.loads(out.getvalue())["ok"] is False


def test_internal_identity_failure_exit_code(monkeypatch, capsys):
    from localzeta.groups import GroupTable

    law = GroupTable.double_coset_data

    def broken(self, gens1, gens2):
        b, e, n1, n2 = law(self, gens1, gens2)
        return b, e + 1, n1, n2

    monkeypatch.setattr(GroupTable, "double_coset_data", broken)
    cache.clear_memo()
    code = cli.main(["hecke", "--group", "A1", "--ring", "zq:p=2,f=1,m=2"])
    cache.clear_memo()
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: double-coset/pair-count identity")


def test_stringify_rejects_floats():
    with pytest.raises(TypeError):
        cli.to_json({"x": 1.5})


def _cc_in_process(capsys):
    cache.clear_memo()
    assert cli.main(CC_ARGS) == 0
    captured = capsys.readouterr()
    return captured.out, captured.err


def _read_entry(path):
    """(header, arrays) of an entry: an 8-byte little-endian length, the
    JSON header of that length, then the int32 arrays it lists, in order."""
    data = path.read_bytes()
    n = int.from_bytes(data[:8], "little")
    header = json.loads(data[8:8 + n])
    buf = np.frombuffer(data, dtype="<i4", offset=8 + n)
    arrays, at = {}, 0
    for key, shape in header["arrays"]:
        size = int(np.prod(shape))
        arrays[key] = buf[at:at + size].reshape(shape).copy()
        at += size
    assert at == buf.size
    return header, arrays


def _write_entry(path, header, arrays):
    text = json.dumps(header, sort_keys=True).encode()
    path.write_bytes(len(text).to_bytes(8, "little") + text + b"".join(
        np.ascontiguousarray(arrays[key], dtype="<i4").tobytes()
        for key, _ in header["arrays"]))


def _corrupt(field, header, arrays):
    """A copy of a stored entry with one field changed, hash kept."""
    header = json.loads(json.dumps(header))
    arrays = {key: arr.copy() for key, arr in arrays.items()}
    if field in arrays:
        flat = arrays[field].reshape(-1)
        flat[-1] ^= 1
    elif field == "provenance":
        header["provenance"][0][0] += "x"
    elif field == "name":
        header["name"] += "x"
    else:  # "arrays": every shape reversed, the buffer kept
        header["arrays"] = [[key, shape[::-1]]
                            for key, shape in header["arrays"]]
    return header, arrays


def _discards_each_corrupted_entry(field, tmp_path, monkeypatch, capsys):
    """Each entry that stores field, corrupted alone, is discarded with one
    warning, and the report is the one without a cache."""
    monkeypatch.delenv("ZETA_CACHE_DIR", raising=False)
    fresh, _ = _cc_in_process(capsys)
    monkeypatch.setenv("ZETA_CACHE_DIR", str(tmp_path))
    _cc_in_process(capsys)  # writes one entry per level
    entries = sorted(tmp_path.glob(ENTRIES))
    assert len(entries) == 2
    corrupted = 0
    for path in entries:
        header, arrays = _read_entry(path)
        if field not in arrays and field not in header:
            continue
        _write_entry(path, *_corrupt(field, header, arrays))
        out, err = _cc_in_process(capsys)
        assert out == fresh
        assert err.count("discarding cache entry") == 1
        assert str(path) in err
        corrupted += 1
        # the recomputed table was stored again, byte for byte
        assert _read_entry(path)[0] == header
    cache.clear_memo()
    return corrupted


@pytest.mark.parametrize(
    "field",
    ["mats", "inv", "rho", "gen_mats", "provenance", "name", "arrays"],
)
def test_cache_discards_each_corrupted_field(tmp_path, monkeypatch, capsys,
                                             field):
    # the level-1 entry stores mats, inv and rho; both entries store the
    # generators and the hashed header fields
    want = 1 if field in ("mats", "inv", "rho") else 2
    assert _discards_each_corrupted_entry(field, tmp_path, monkeypatch,
                                          capsys) == want


@pytest.mark.parametrize("field", groups.LiftRecord.ARRAYS)
def test_cache_discards_corrupted_kernel_coordinates(tmp_path, monkeypatch,
                                                     capsys, field):
    # only the level-2 entry is enumerated over a lower level and stores
    # its lift record; the content hash covers every array of it
    assert _discards_each_corrupted_entry(field, tmp_path, monkeypatch,
                                          capsys) == 1


def test_cache_discards_a_record_whose_lifts_fill_no_residue_blocks(
        tmp_path, monkeypatch, capsys):
    # the level-2 record with one residue fewer, rehashed, so only the fit
    # of its arrays can refuse it: its lift count is no multiple of its
    # residue count, and the entry is discarded, not trusted
    monkeypatch.delenv("ZETA_CACHE_DIR", raising=False)
    fresh, _ = _cc_in_process(capsys)
    monkeypatch.setenv("ZETA_CACHE_DIR", str(tmp_path))
    _cc_in_process(capsys)
    (path,) = [path for path in tmp_path.glob(ENTRIES)
               if "residues" in _read_entry(path)[1]]
    header, arrays = _read_entry(path)
    arrays["residues"] = arrays["residues"][:-1]
    assert len(arrays["lifts"]) % len(arrays["residues"])
    header["arrays"] = [[key, list(arrays[key].shape)]
                        for key, _ in header["arrays"]]
    header["sha256"] = cache._entry_hash(
        header["arrays"], [np.ascontiguousarray(arrays[key], dtype="<i4")
                           for key, _ in header["arrays"]],
        header["provenance"], header["name"])
    _write_entry(path, header, arrays)
    out, err = _cc_in_process(capsys)
    cache.clear_memo()
    assert out == fresh
    assert err.count("discarding cache entry") == 1
    assert str(path) in err and "do not fit" in err


def test_store_leaves_no_temp_file(tmp_path, monkeypatch, capsys):
    from localzeta.rings import make_ring

    monkeypatch.setenv("ZETA_CACHE_DIR", str(tmp_path))
    cache.clear_memo()
    cache.table_for("heisenberg", make_ring("zq", 2, 1, 2))
    # level 2 and the level 1 it was built over
    names = sorted(p.name for p in tmp_path.iterdir())
    assert len(names) == 2 and all(n.endswith(".bin") for n in names)
    real = os.fdopen

    class FullDisk:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            raise OSError("no space left on device")

    monkeypatch.setattr(cache.os, "fdopen",
                        lambda fd, mode: FullDisk(real(fd, mode)))
    cache.table_for("heisenberg", make_ring("zq", 2, 1, 3))
    assert "could not write cache" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    cache.clear_memo()
