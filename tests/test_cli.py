"""CLI surface: commands, formats, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cache_file import editing, split
from cli_runner import invoke
from nilcone.cli import EXIT_USAGE, EXIT_VIOLATION, CheckFailure, exit_code_for, main
from nilcone.errors import (
    InadmissibleTypeError,
    InternalInconsistencyError,
    NonDominantWeightError,
    PositivityViolationError,
)
from nilcone.partition import PARTITION_CACHE_SCHEMA


def test_exit_code_mapping():
    assert exit_code_for(PositivityViolationError((0, 0), 1, -1)) == EXIT_VIOLATION
    assert exit_code_for(InternalInconsistencyError("x")) == EXIT_VIOLATION
    assert exit_code_for(CheckFailure("x")) == EXIT_VIOLATION
    assert exit_code_for(InadmissibleTypeError("E", 9)) == EXIT_USAGE
    assert exit_code_for(NonDominantWeightError((-1,))) == EXIT_USAGE


def test_kconst_all_table():
    result = invoke(["kconst", "--all"])
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert len(lines) == 1 + 33  # header + 8+7+7+6+5 types
    assert any(line.split()[:2] == ["E8", "29"] for line in lines[1:])


def test_kconst_json():
    result = invoke(["kconst", "-f", "G", "-r", "2", "--format", "json"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["schema_version"] == 1
    assert doc["entries"] == [
        {"family": "G", "rank": 2, "k": 3, "reflection_length": 5}
    ]


def test_kconst_csv():
    result = invoke(["kconst", "-f", "C", "-r", "4", "--format", "csv"])
    assert result.exit_code == 0
    assert result.output.splitlines() == [
        "family,rank,k,reflection_length",
        "C,4,6,11",
    ]


def test_kconst_check_passes_on_every_type():
    result = invoke(["kconst", "--all", "--check"])
    assert result.exit_code == 0, result.output


def test_kconst_check_sees_a_wrong_reflection_length(monkeypatch):
    # The check compares k with h^vee(R^vee) - 1 from a table that shares
    # no code with the inversion count, so an odd but wrong length fails.
    from nilcone import weyl

    real = weyl.reflection_length_theta
    monkeypatch.setattr(weyl, "reflection_length_theta", lambda rs: real(rs) + 2)
    args = ["kconst", "-f", "G", "-r", "2"]
    assert invoke(args).exit_code == 0
    result = invoke([*args, "--check"])
    assert result.exit_code == EXIT_VIOLATION
    assert "k = 4 from len(s_theta) = 7, but h^vee(R^vee) - 1 = 3 for G_2" in result.output


def test_kconst_requires_type_or_all():
    result = invoke(["kconst"])
    assert result.exit_code == EXIT_USAGE


def test_kconst_inadmissible_rank():
    result = invoke(["kconst", "-f", "E", "-r", "9"])
    assert result.exit_code == EXIT_USAGE
    assert "E_9" in result.output


def test_graded_subregular_adjoint():
    result = invoke([
        "graded", "-f", "A", "-r", "2", "--variety", "subregular",
        "--lambda", "1,1",
    ])
    assert result.exit_code == 0
    assert "1:1" in result.output
    row = [l for l in result.output.splitlines() if l.startswith("(1,1)")][0]
    assert row.split()[-2:] == ["1", "1"]  # total and m(0)-m(theta)


def test_graded_zero_weight():
    result = invoke([
        "graded", "-f", "A", "-r", "2", "--variety", "subregular",
        "--lambda", "0,0", "--format", "json",
    ])
    doc = json.loads(result.output)
    assert doc["entries"] == [
        {"lambda": [0, 0], "degrees": [[0, 1]], "total": 1, "check": 1}
    ]


def test_graded_check_of_a_deep_weight():
    # The m(0) column of L((4000)) is 2000 Freudenthal steps below lambda.
    result = invoke(["graded", "-f", "A", "-r", "1", "--variety", "nilcone",
                     "--lambda", "4000", "--check"])
    assert result.exit_code == 0, result.output
    assert result.stdout.splitlines()[-1].split() == ["(4000)", "2000:1", "1", "1"]


def test_graded_nilcone_adjoint():
    # A value may also follow a short flag directly, or a long one after '='.
    for spelling in (["-f", "A", "-r", "2", "--variety", "nilcone"],
                     ["-fA", "-r2", "--variety=nilcone"]):
        result = invoke(["graded", *spelling, "--lambda", "1,1", "--format", "json"])
        doc = json.loads(result.output)
        assert doc["entries"][0]["degrees"] == [[1, 1], [2, 1]]
        assert doc["entries"][0]["total"] == 2
        assert doc["check_column"] == "m(0)"


def test_graded_sweep_with_check():
    result = invoke([
        "graded", "-f", "B", "-r", "2", "--variety", "subregular",
        "--sweep", "2", "--check",
    ])
    assert result.exit_code == 0


@pytest.mark.parametrize("args", [
    "graded -f A -r 2 --variety nilcone --sweep 2 --jobs 1",
    "graded -f A -r 2 --variety nilcone --sweep 2 --jobs 2",
    # hilbert reads no partition value from a cache file and writes none.
    "hilbert -f A -r 2 --variety nilcone --cache-dir DIR",
    # mult always prints Freudenthal's value; --check adds Kostant's sum.
    "mult -f A -r 2 --lambda 1,1 --mu 0,0 --algorithm both",
], ids=["1", "2", "hilbert-cache-dir", "mult-algorithm-both"])
def test_jobs_is_no_longer_an_option(tmp_path, args):
    # Options that commands no longer take.
    directory = tmp_path / "cache"
    directory.mkdir()
    args = [str(directory) if arg == "DIR" else arg for arg in args.split()]
    command, option = args[0], args[-2]
    result = invoke(args)
    assert result.exit_code == EXIT_USAGE
    assert "unrecognized arguments" in result.output and option in result.output
    assert result.stdout == ""
    assert result.stderr.startswith(f"usage: nilcone {command} ")
    assert list(directory.iterdir()) == []


def test_import_loads_no_process_pool():
    # Nor json, hashlib or fractions: each is imported where it is used,
    # so start-up does not pay for them.  Start-up is most of a short run:
    # a G2 Hilbert series to degree 24 took 70 ms of CPU with the
    # interpreter's finalization (normalised medians of 40 runs, Python
    # 3.11): a bare interpreter 53 ms, 7 ms of it the finalization that
    # run() now skips; importing nilcone.cli 6.5 ms more; the command's
    # own work about 11 ms.
    # Nor a parsing library: importing click cost more CPU than the
    # package's own modules and a G2 Hilbert series together, and argparse
    # (with gettext) and building its parsers about 10 ms a command.
    import nilcone

    code = ("import sys, nilcone.cli; print(' '.join(m for m in "
            "('multiprocessing', 'concurrent.futures', 'pickle', 'socket', "
            "'json', 'hashlib', 'fractions', 'click', 'argparse', 'gettext') "
            "if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": str(Path(nilcone.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == []


def test_cacheless_run_loads_no_cache_modules():
    # Only cache files need SHA-256, from _sha256 up to 3.11 and _sha2
    # from 3.12; hashlib (which loads OpenSSL) serves nothing, json only JSON output, and
    # fractions only the two rational root-system methods; dataclasses
    # serve nothing.  Neither the import nor a cache-less table run pays
    # for them.  Nor for a parsing library:
    # click, the difflib it imported to parse a short option such as -f,
    # or argparse and the gettext it imports.
    import nilcone

    code = ("import sys\n"
            "def loaded():\n"
            "    return [m for m in ('hashlib', '_hashlib', 'json', 'dataclasses',\n"
            "                        'fractions', 'click', 'difflib', 'argparse',\n"
            "                        'gettext', '_sha256', '_sha2')\n"
            "            if m in sys.modules]\n"
            "from nilcone.cli import main\n"
            "print('import:', *loaded(), file=sys.stderr)\n"
            "main(['hilbert', '-f', 'G', '-r', '2', '--variety', 'subregular',\n"
            "      '--max-degree', '3'])\n"
            "print('hilbert:', *loaded(), file=sys.stderr)\n")
    env = {**os.environ, "PYTHONPATH": str(Path(nilcone.__file__).parents[1])}
    env.pop("NILCONE_CACHE_DIR", None)
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "subregular Hilbert coefficients for G_2: 1 14 104 539\n"
    assert result.stderr.splitlines() == ["import:", "hilbert:"]


def test_cached_runs_load_no_json_or_hashlib(tmp_path):
    # The cache exists to skip the DP, and on E6 --sweep 1 importing json
    # and hashlib cost more than that DP: a cold run that writes the file,
    # a warm run that reads it, and 'cache list' load neither.
    import nilcone

    code = ("import sys\n"
            "from nilcone.cli import main\n"
            "args = ['graded', '-f', 'A', '-r', '2', '--variety', 'nilcone',\n"
            "        '--sweep', '1', '--cache-dir', sys.argv[1]]\n"
            "for step, argv in [('cold', args), ('warm', args),\n"
            "                   ('list', ['cache', 'list', '--cache-dir', sys.argv[1]])]:\n"
            "    main(argv)\n"
            "    print(step + ':', *[m for m in ('json', 'hashlib', '_hashlib')\n"
            "                        if m in sys.modules], file=sys.stderr)\n")
    env = {**os.environ, "PYTHONPATH": str(Path(nilcone.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stderr.splitlines() == ["cold:", "warm:", "list:"]
    plain = invoke(["graded", "-f", "A", "-r", "2", "--variety", "nilcone", "--sweep", "1"])
    listing = invoke(["cache", "list", "--cache-dir", str(tmp_path)])
    assert listing.stdout.startswith("partition_A2.txt: schema=3 type=A2 ")
    assert result.stdout == 2 * plain.stdout + listing.stdout


def test_graded_rejects_non_dominant():
    result = invoke([
        "graded", "-f", "A", "-r", "2", "--variety", "nilcone",
        "--lambda", "-1,0",
    ])
    assert result.exit_code == EXIT_USAGE
    # an input error after parsing prints no usage line
    assert result.stdout == ""
    assert result.stderr == "error: weight (-1, 0) is not dominant\n"


def test_graded_rejects_bad_weight():
    # After --lambda, --help is the weight, not a request for help.
    for weight in ("1,x", "--help"):
        result = invoke([
            "graded", "-f", "A", "-r", "2", "--variety", "nilcone",
            "--lambda", weight,
        ])
        assert result.exit_code == EXIT_USAGE
        assert result.stdout == ""
        assert f"weight {weight!r} is not a comma-separated integer vector" in result.stderr


def test_graded_needs_lambda_xor_sweep():
    base = ["graded", "-f", "A", "-r", "2", "--variety", "nilcone"]
    assert invoke(base).exit_code == EXIT_USAGE
    assert invoke(base + ["--lambda", "1,1", "--sweep", "1"]).exit_code == EXIT_USAGE


@pytest.mark.parametrize("args", [
    ["cohomology", "--kind", "simple", "--sweep", "-1"],
    ["cohomology", "--kind", "simple", "--max-i", "-1"],
    ["graded", "--variety", "nilcone", "--sweep", "1", "--max-degree", "-1"],
    ["graded", "--variety", "nilcone", "--sweep", "-1"],
    ["hilbert", "--variety", "nilcone", "--max-degree", "-1"],
], ids=["cohomology-sweep", "cohomology-max-i", "graded-max-degree",
        "graded-sweep", "hilbert-max-degree"])
def test_negative_counts_are_usage_errors(tmp_path, args):
    cache = [] if args[0] == "hilbert" else ["--cache-dir", str(tmp_path)]
    result = invoke([*args, "-f", "A", "-r", "2", *cache])
    assert result.exit_code == EXIT_USAGE
    assert "-1 is not in the range" in result.output
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args", [
    ["graded", "-f", "A", "-r", "2", "--variety", "nilcone", "--sweep", "1"],
    ["cache", "list"],
    ["cache", "clear"],
], ids=["graded", "cache-list", "cache-clear"])
def test_empty_cache_dir_is_a_usage_error(tmp_path, monkeypatch, args):
    # An empty path would name the working directory: graded wrote its
    # cache file there, and cache clear emptied it.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "partition_A2.txt").write_text("")
    for spelling in (["--cache-dir", ""], ["--cache-dir="]):
        result = invoke([*args, *spelling])
        assert result.exit_code == EXIT_USAGE
        assert result.stdout == ""
        assert result.stderr.endswith(
            ": error: argument --cache-dir: expected a directory, got ''\n")
    assert [(p.name, p.read_text()) for p in tmp_path.iterdir()] == [
        ("partition_A2.txt", "")]


def test_graded_e8_runs():
    result = invoke([
        "graded", "-f", "E", "-r", "8", "--variety", "nilcone",
        "--lambda", "0,0,0,0,0,0,0,0", "--check",
    ])
    assert result.exit_code == 0
    row = [l for l in result.stdout.splitlines() if l.startswith("(0,0,0,0,0,0,0,0)")]
    assert row[0].split()[1] == "0:1"


def test_cohomology_tilting_even_rows_only():
    result = invoke([
        "cohomology", "-f", "A", "-r", "1", "--kind", "tilting", "--sweep", "2",
    ])
    assert result.exit_code == 0
    assert "parity vanishing: OK" in result.output
    assert "H^1   0" in result.output


def test_cohomology_simple_a2_h1():
    result = invoke([
        "cohomology", "-f", "A", "-r", "2", "--kind", "simple",
        "--max-i", "3", "--format", "json",
    ])
    doc = json.loads(result.output)
    rows = {row["i"]: row["entries"] for row in doc["rows"]}
    assert rows[1] == [{"lambda": [0, 0], "mult": 1}]
    assert doc["parity_ok"] is True
    assert doc["k"] == 2


def test_cohomology_weyl_check_passes():
    result = invoke([
        "cohomology", "-f", "A", "-r", "2", "--kind", "weyl",
        "--sweep", "1", "--max-i", "5", "--check",
    ])
    assert result.exit_code == 0


def test_cohomology_csv():
    # A repeated option keeps its last value.
    for sweeps in (["--sweep", "1"], ["--sweep", "3", "--sweep", "1"]):
        result = invoke([
            "cohomology", "-f", "A", "-r", "1", "--kind", "trivial",
            *sweeps, "--max-i", "2", "--format", "csv",
        ])
        assert result.output.splitlines() == ['i,lambda,mult', '0,"0",1', '2,"2",1']


def test_tilting_example_rows():
    result = invoke(["tilting-example", "--format", "json"])
    doc = json.loads(result.output)
    table = {tuple(e["lambda"]): e["euler_mult"] for e in doc["entries"]}
    assert table[(0, 0)] == 1
    assert table[(3, 0)] == -1
    assert table[(0, 3)] == 0
    assert doc["parity_vanishing_fails"] is True


def test_tilting_example_flags_sign_change():
    result = invoke(["tilting-example"])
    assert result.exit_code == 0
    assert "sign change" in result.output
    assert "parity vanishing FAILS" in result.output


def test_tilting_example_check():
    assert invoke(["tilting-example", "--check"]).exit_code == 0


def test_mult_command():
    result = invoke([
        "mult", "-f", "A", "-r", "2", "--lambda", "3,0", "--mu", "1,1",
    ])
    assert result.exit_code == 0
    assert "= 1" in result.output


def test_mult_both_algorithms():
    # mult prints Freudenthal's value; --check compares Kostant's with it.
    for check, algorithms in ([], ["freudenthal"]), (["--check"], ["freudenthal", "kostant"]):
        result = invoke([
            "mult", "-f", "G", "-r", "2", "--lambda", "0,1", "--mu", "0,0",
            *check, "--format", "json",
        ])
        doc = json.loads(result.output)
        assert doc["mult"] == 2  # adjoint zero weight space of G_2
        assert doc["algorithms"] == algorithms


def test_hilbert_command():
    result = invoke([
        "hilbert", "-f", "A", "-r", "1", "--variety", "nilcone",
        "--max-degree", "4", "--format", "json",
    ])
    doc = json.loads(result.output)
    assert doc["coefficients"] == [1, 3, 5, 7, 9]


def test_rootsystem_schema():
    result = invoke(["rootsystem", "-f", "A", "-r", "2"])
    doc = json.loads(result.output)
    assert doc["cartan"] == [[2, -1], [-1, 2]]
    assert doc["rho"] == [1, 1]
    assert doc["theta_short"] == [1, 1]


def test_json_outputs_are_deterministic():
    for args in (
        ["kconst", "--all", "--format", "json"],
        ["graded", "-f", "B", "-r", "2", "--variety", "subregular",
         "--sweep", "1", "--format", "json"],
        ["cohomology", "-f", "A", "-r", "2", "--kind", "weyl",
         "--sweep", "1", "--format", "json"],
    ):
        first = invoke(args)
        second = invoke(args)
        assert first.exit_code == second.exit_code == 0
        assert first.output == second.output


def test_cache_list_and_clear(tmp_path):
    from nilcone import build
    from nilcone.partition import PartitionTable, cache_path

    rs = build("A", 2)
    table = PartitionTable(rs)
    table.poly((1, 1))
    table.save(cache_path(rs.id, tmp_path))

    result = invoke(["cache", "list", "--cache-dir", str(tmp_path)])
    assert result.exit_code == 0
    assert "partition_A2.txt" in result.output
    assert "type=A2" in result.output

    result = invoke(["cache", "clear", "--cache-dir", str(tmp_path)])
    assert "removed 1" in result.output
    result = invoke(["cache", "list", "--cache-dir", str(tmp_path)])
    assert "no cache files" in result.output

    (tmp_path / "a-file").write_text("")
    for path in (tmp_path / "a-file", tmp_path / "missing"):
        for command in ("list", "clear"):
            result = invoke(["cache", command, "--cache-dir", str(path)])
            assert result.exit_code == 0
            assert result.stdout == f"no cache directory at {path}\n"


def _nest_too_deep(path):
    # JSON that json.loads could not read: nesting past the recursion limit.
    path.write_text("[" * 200000 + "]" * 200000)


def _too_many_digits(path):
    # JSON with an int past the interpreter's digit limit.
    path.write_text('{"records": [[[0, 0], [' + "1" * 5000 + ']]]}')


def test_cache_list_marks_unreadable_files(tmp_path):
    (tmp_path / "partition_A2.txt").write_text("[]")
    (tmp_path / "partition_B2.txt").write_bytes(b"\xff\xfe\x00")
    _nest_too_deep(tmp_path / "partition_C2.txt")
    _too_many_digits(tmp_path / "partition_D4.txt")
    (tmp_path / "partition_G2.txt").write_text('{"records": 3}')
    args = ["graded", "-f", "A", "-r", "3", "--variety", "nilcone", "--sweep", "1"]
    assert invoke(args + ["--cache-dir", str(tmp_path)]).exit_code == 0
    assert invoke(["cache", "list", "--cache-dir", str(tmp_path)]).stdout.splitlines()[1] == (
        "partition_A3.txt: schema=3 type=A3 height_cutoff=3 records=3")
    _set_header(4, "0" * 16)(tmp_path / "partition_A3.txt")  # another root order
    result = invoke(["cache", "list", "--cache-dir", str(tmp_path)])
    assert result.exit_code == 0
    assert result.output.splitlines() == [
        "partition_A2.txt: stale", "partition_A3.txt: stale",
        "partition_B2.txt: stale", "partition_C2.txt: stale",
        "partition_D4.txt: stale", "partition_G2.txt: stale"]


def test_cache_dir_env_override(tmp_path):
    result = invoke(["cache", "list"], env={"NILCONE_CACHE_DIR": str(tmp_path)})
    assert str(tmp_path) in result.output


@pytest.mark.parametrize("command", ["list", "clear"])
def test_cache_commands_need_a_cache_dir(tmp_path, monkeypatch, command):
    # No command writes a cache without --cache-dir or NILCONE_CACHE_DIR,
    # so there is no default directory to list or clear.
    monkeypatch.delenv("NILCONE_CACHE_DIR", raising=False)
    monkeypatch.setenv("HOME", str(tmp_path))
    (tmp_path / ".cache" / "nilcone").mkdir(parents=True)
    (tmp_path / ".cache" / "nilcone" / "partition_A2.txt").write_text("{}")
    result = invoke(["cache", command])
    assert result.exit_code == EXIT_USAGE
    assert "--cache-dir or set NILCONE_CACHE_DIR" in result.output
    assert (tmp_path / ".cache" / "nilcone" / "partition_A2.txt").exists()


@pytest.mark.parametrize("command,first,second", [
    (["graded", "-f", "B", "-r", "2", "--variety", "nilcone", "--format", "json"],
     "1", "1"),
    (["graded", "-f", "B", "-r", "3", "--variety", "subregular", "--check"], "1", "2"),
    (["cohomology", "-f", "B", "-r", "3", "--kind", "weyl", "--check"], "1", "2"),
], ids=["graded-B2-warm", "graded-B3-taller", "cohomology-B3-taller"])
def test_graded_persists_and_reuses_caches(tmp_path, command, first, second):
    # A second run on the cache a first run wrote, at the same sweep or a
    # taller one (whose batch reads the narrower records), prints what a
    # run without a cache prints and leaves the file a cold run writes.
    cache, cold = tmp_path / "cache", tmp_path / "cold"
    name = f"partition_{command[2]}{command[4]}.txt"
    result = invoke([*command, "--sweep", first, "--cache-dir", str(cache)])
    assert result.exit_code == 0, result.output
    assert [p.name for p in cache.iterdir()] == [name]
    args = [*command, "--sweep", second]
    result = invoke([*args, "--cache-dir", str(cache)])
    assert result.exit_code == 0, result.output
    assert result.output == invoke(args).output
    assert invoke([*args, "--cache-dir", str(cold)]).exit_code == 0
    assert (cache / name).read_bytes() == (cold / name).read_bytes()

    listing = invoke(["cache", "list", "--cache-dir", str(cache)])
    assert name in listing.output


def test_warm_run_leaves_the_cache_file_alone(tmp_path):
    args = ["graded", "-f", "A", "-r", "2", "--variety", "subregular",
            "--sweep", "2", "--cache-dir", str(tmp_path)]
    cold = invoke(args)
    assert cold.exit_code == 0
    path = tmp_path / "partition_A2.txt"
    before = path.stat()
    warm = invoke(args)
    assert warm.exit_code == 0 and warm.output == cold.output
    after = path.stat()
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
    assert [p.name for p in tmp_path.iterdir()] == ["partition_A2.txt"]


def _truncate(path):
    text = path.read_text()
    path.write_text(text[: len(text) // 2])


def _set_header(field, value):
    """Set one field of the header line; the records and their digest
    stay as written."""
    def edit(header, records):
        header[field] = value

    return editing(edit, rehash=False)


def _edit_last_record(edit):
    """Apply edit to the fields of the last record line and keep the
    digest consistent, so only the record checks can catch the edit."""
    def change(header, records):
        fields = records[-1].split(" ")
        edit(fields)
        records[-1] = " ".join(fields)

    return editing(change)


def _tamper_theta(header, records):
    # p(theta, 1) = 1 becomes 5: well formed, but not what was written
    i = records.index("1 1 0 1 1")
    records[i] = "1 1 0 5 1"


@pytest.mark.parametrize("corrupt", [
    _set_header(1, str(PARTITION_CACHE_SCHEMA + 1)),
    _truncate,
    lambda path: path.write_text("[]"),
    lambda path: path.write_bytes(b"\xff\xfe\x00"),
    _nest_too_deep,
    _too_many_digits,
    editing(_tamper_theta, rehash=False),
    editing(lambda header, records: records.clear(), rehash=False),
    _edit_last_record(lambda fields: fields.insert(1, "")),
    _edit_last_record(lambda fields: fields.insert(2, "0")),
    _edit_last_record(lambda fields: fields.__setitem__(2, "-1")),
    _edit_last_record(lambda fields: fields.append("0")),
    _edit_last_record(lambda fields: fields.pop()),
    editing(lambda header, records: records.append(f"{10**30} 0 1")),
    _set_header(2, "B"),
    _set_header(4, "0" * 16),
    editing(lambda header, records: records.append(records[0])),
    editing(lambda header, records: records.append("0 0 " + "1" * 5000)),
    _edit_last_record(lambda fields: fields.__setitem__(2, "\u0661")),
], ids=["schema-bump", "truncated", "not-an-object", "not-text",
        "nested-too-deep", "too-many-digits",
        "tampered-value", "no-records", "wrong-arity", "wrong-rank",
        "negative-coefficient", "too-many-coefficients", "too-few-coefficients",
        "too-tall", "another-type", "another-root-order",
        "repeated-x", "digits-past-limit", "non-ascii"])
def test_stale_partition_cache_is_a_miss(tmp_path, corrupt):
    args = ["graded", "-f", "A", "-r", "2", "--variety", "subregular",
            "--sweep", "2", "--check"]
    cold = invoke(args)
    assert cold.exit_code == 0
    cached = args + ["--cache-dir", str(tmp_path)]
    assert invoke(cached).exit_code == 0
    path = tmp_path / "partition_A2.txt"
    corrupt(path)
    stale_inode = path.stat().st_ino

    result = invoke(cached)
    assert result.exit_code == 0
    assert result.stdout == cold.stdout
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith("warning: ")
    # the file was rewritten and now loads without a warning
    assert path.stat().st_ino != stale_inode
    assert split(path)[1]
    again = invoke(cached)
    assert again.stdout == cold.stdout and again.stderr == ""


def _directory_at_the_cache_file(tmp_path):
    (tmp_path / "partition_A2.txt").mkdir()
    return tmp_path


def _regular_file_as_cache_dir(tmp_path):
    path = tmp_path / "not-a-dir"
    path.write_text("")
    return path


@pytest.mark.parametrize("cache_dir,warnings", [
    (_directory_at_the_cache_file, 2),  # unreadable, then unwritable
    (_regular_file_as_cache_dir, 1),
], ids=["directory-at-file", "file-as-dir"])
def test_unwritable_cache_warns_and_still_prints(tmp_path, cache_dir, warnings):
    args = ["graded", "-f", "A", "-r", "2", "--variety", "subregular",
            "--sweep", "2", "--check"]
    plain = invoke(args)
    result = invoke(args + ["--cache-dir", str(cache_dir(tmp_path))])
    assert result.exit_code == 0, result.output
    assert result.stdout == plain.stdout
    lines = result.stderr.splitlines()
    assert len(lines) == warnings and all(l.startswith("warning: ") for l in lines)
    assert "cannot write partition cache" in lines[-1]
    assert not [p for p in tmp_path.rglob("*.tmp")]


def test_cache_clear_skips_what_is_not_a_file(tmp_path):
    (tmp_path / "partition_A2.txt").mkdir()
    (tmp_path / "partition_B2.txt").write_text("{}")
    result = invoke(["cache", "clear", "--cache-dir", str(tmp_path)])
    assert result.exit_code == 0
    assert result.stdout == f"removed 1 cache file(s) from {tmp_path}\n"
    assert result.stderr.startswith("warning: skipping ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["partition_A2.txt"]


def test_compute_commands_honour_cache_env(tmp_path, monkeypatch):
    monkeypatch.setenv("NILCONE_CACHE_DIR", str(tmp_path))
    result = invoke([
        "graded", "-f", "A", "-r", "1", "--variety", "subregular",
        "--lambda", "2",
    ])
    assert result.exit_code == 0
    assert (tmp_path / "partition_A1.txt").exists()


def test_unknown_option_rejected():
    for args, message in [
        (["--bogus"], "unrecognized arguments: --bogus"),
        (["-h"], "unrecognized arguments: -h"),  # only --help
        (["--all", "--", "--help"], "unrecognized arguments: -- --help"),
        (["--all", "--check=1"], "argument --check: ignored explicit argument '1'"),
        (["--all", "--format"], "argument --format: expected one argument"),
        (["-f", "Z", "-r", "2"], "argument -f/--family: invalid choice: 'Z' "
                                 "(choose from 'A', 'B', 'C', 'D', 'E', 'F', 'G')"),
        (["-f", "G", "-r", "x"], "argument -r/--rank: invalid int value: 'x'"),
    ]:
        result = invoke(["kconst", *args])
        assert result.exit_code == EXIT_USAGE
        assert result.stdout == ""
        assert result.stderr.startswith("usage: nilcone kconst ")
        assert result.stderr.endswith(f"\nnilcone kconst: error: {message}\n")


def test_abbreviated_options_are_refused():
    # The unknown --var is named, although --variety is missing too.
    result = invoke(["graded", "-f", "A", "-r", "2", "--var", "nilcone",
                     "--lambda", "1,1"])
    assert result.exit_code == EXIT_USAGE
    assert result.stdout == ""
    assert result.stderr.startswith("usage: nilcone graded ")
    assert result.stderr.endswith(
        "\nnilcone graded: error: unrecognized arguments: --var nilcone\n")


@pytest.mark.parametrize("args,stderr", [
    (["graded", "--variety", "bogus", "--sweep", "1"],
     "usage: nilcone graded [--help] -f {A,B,C,D,E,F,G} -r RANK\n"
     "                      --variety {nilcone,subregular} [--lambda WEIGHT]\n"
     "                      [--sweep SWEEP] [--max-degree MAX_DEGREE] [--check]\n"
     "                      [--cache-dir DIR] [--format {table,json,csv}]\n"
     "nilcone graded: error: argument --variety: invalid choice: 'bogus' "
     "(choose from 'nilcone', 'subregular')\n"),
    (["hilbert", "--variety", "bogus"],
     "usage: nilcone hilbert [--help] -f {A,B,C,D,E,F,G} -r RANK\n"
     "                       --variety {nilcone,subregular}\n"
     "                       [--max-degree MAX_DEGREE] [--check]\n"
     "                       [--format {table,json,csv}]\n"
     "nilcone hilbert: error: argument --variety: invalid choice: 'bogus' "
     "(choose from 'nilcone', 'subregular')\n"),
    (["cohomology", "--kind", "bogus"],
     "usage: nilcone cohomology [--help] -f {A,B,C,D,E,F,G} -r RANK\n"
     "                          --kind {trivial,induced_wall,tilting,weyl,simple}\n"
     "                          [--sweep SWEEP] [--max-i MAX_I] [--check]\n"
     "                          [--cache-dir DIR] [--format {table,json,csv}]\n"
     "nilcone cohomology: error: argument --kind: invalid choice: 'bogus' "
     "(choose from 'trivial', 'induced_wall', 'tilting', 'weyl', 'simple')\n"),
], ids=["graded", "hilbert", "cohomology"])
def test_variety_and_kind_choices_are_pinned(args, stderr):
    # The choices, in their order, in the usage line and the error.
    result = invoke([args[0], "-f", "G", "-r", "2", *args[1:]])
    assert result.exit_code == EXIT_USAGE
    assert result.stdout == ""
    assert result.stderr == stderr


@pytest.mark.parametrize("fmt,line", [
    ("table", "m_(1,1)(-1,2) = 1"),
    ("csv", '"1,1","-1,2",1'),
])
def test_option_values_may_start_with_a_dash(fmt, line):
    # An option that takes a value takes the next argument, even one that
    # looks like an option.
    result = invoke(["mult", "-f", "A", "-r", "2", "--lambda", "1,1",
                     "--mu", "-1,2", "--format", fmt])
    assert result.exit_code == 0, result.output
    assert result.stdout.splitlines()[-1] == line


@pytest.mark.parametrize("fmt,line", [
    ("table", "m_(1,1)(0,0) = 2"),
    ("csv", '"1,1","0,0",2'),
])
def test_mult_prints_the_parsed_weights(fmt, line):
    # Weight text with signs, spaces and leading zeros is printed as the
    # weight it parses to, as the JSON format and every other CSV do.
    result = invoke(["mult", "-f", "A", "-r", "2", "--lambda", "+1, 01",
                     "--mu", " 0,0", "--format", fmt])
    assert result.exit_code == 0, result.output
    assert result.stdout.splitlines()[-1] == line


def test_kconst_all_refuses_a_type():
    for extra in (["-f", "G", "-r", "2"], ["-f", "G"], ["-r", "2"]):
        result = invoke(["kconst", "--all", *extra])
        assert result.exit_code == EXIT_USAGE
        assert "give --family and --rank, or --all" in result.stderr
        assert result.stdout == ""


def test_version():
    result = invoke(["--version"])
    assert result.exit_code == 0
    assert result.stdout == "nilcone, version 0.1.0\n"


def test_every_name_in_all_resolves():
    import nilcone

    namespace = {}
    exec("from nilcone import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(nilcone.__all__)
    assert all(namespace[name] is getattr(nilcone, name) for name in nilcone.__all__)
    # the public names, pinned: one joins or leaves __all__ with an edit here
    assert sorted(nilcone.__all__) == [
        "GradedCalculator", "InadmissibleTypeError", "InternalInconsistencyError",
        "NilconeError", "NonDominantWeightError", "PartitionTable",
        "PositivityViolationError", "RootSystem", "RootSystemId", "StaleCacheError",
        "WeightMultiplicities", "build", "dot_terms", "kostant_mult",
        "reflection_length_theta", "shift_constant", "weyl_dim",
    ]


@pytest.mark.parametrize("command", [
    [], ["kconst"], ["graded"], ["cohomology"], ["tilting-example"], ["mult"],
    ["hilbert"], ["rootsystem"], ["cache"], ["cache", "list"], ["cache", "clear"],
], ids=lambda command: " ".join(command) or "nilcone")
def test_help(command):
    result = invoke([*command, "--help"])
    assert result.exit_code == 0
    assert result.stdout.startswith(f"usage: {' '.join(['nilcone', *command])} ")
    assert "%(" not in result.stdout  # a default is shown, not its placeholder
    assert result.stderr == ""


def test_main_reads_sys_argv(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["nilcone", "hilbert", "-f", "A", "-r", "1",
                                      "--variety", "nilcone", "--max-degree", "2"])
    main()
    assert capsys.readouterr().out == "nilcone Hilbert coefficients for A_1: 1 3 5\n"


# -- the process entry: python -m nilcone.cli, through cli.run ---------------------

def process(args, stdout=subprocess.PIPE, shell_prefix=()):
    """python -m nilcone.cli args as a child, with PYTHONUNBUFFERED unset
    so stdout is block-buffered as in a plain run; stdout and stderr as
    bytes."""
    import nilcone

    env = {**os.environ, "PYTHONPATH": str(Path(nilcone.__file__).parents[1])}
    env.pop("PYTHONUNBUFFERED", None)
    argv = [*shell_prefix, sys.executable, "-m", "nilcone.cli", *args]
    return subprocess.run(argv, env=env, stdout=stdout, stderr=subprocess.PIPE,
                          timeout=60)


G2_HILBERT = ["hilbert", "-f", "G", "-r", "2", "--variety", "nilcone"]


def test_process_prints_what_main_prints():
    args = [*G2_HILBERT, "--max-degree", "24", "--check"]
    result = process(args)
    assert result.returncode == 0, result.stderr
    assert result.stderr == b""
    assert result.stdout == invoke(args).stdout.encode()


def test_process_usage_error():
    result = process([*G2_HILBERT, "--max-degree", "-1"])
    assert result.returncode == EXIT_USAGE
    assert result.stdout == b""
    assert result.stderr.decode().splitlines()[-1] == (
        "nilcone hilbert: error: argument --max-degree: -1 is not in the range x>=0")
    assert result.stderr.startswith(b"usage: nilcone hilbert ")


def test_process_on_a_closed_pipe():
    # The flush in run() fails, so the interpreter's own exit flushes
    # again and reports it once, with status 120 and no traceback.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = process(G2_HILBERT, stdout=write_end)
    finally:
        os.close(write_end)
    assert result.returncode == 120
    first, second = result.stderr.decode().splitlines()
    assert first.startswith("Exception ignored in: <_io.TextIOWrapper name='<stdout>' ")
    assert second == "BrokenPipeError: [Errno 32] Broken pipe"


def test_process_with_stdout_closed():
    # sys.stdout is None: print() writes nothing and run() has nothing
    # to flush there.
    result = process(G2_HILBERT, stdout=None,
                     shell_prefix=["sh", "-c", 'exec "$0" "$@" >&-'])
    assert result.returncode == 0, result.stderr
    assert result.stderr == b""


STDERR_CLOSED = ["sh", "-c", 'exec "$0" "$@" 2>&-']


def test_process_usage_error_with_stderr_closed():
    # sys.stderr is None: the usage line and the error are lost, never
    # moved to stdout.
    result = process([*G2_HILBERT, "--max-degree", "-1"], shell_prefix=STDERR_CLOSED)
    assert result.returncode == EXIT_USAGE
    assert result.stdout == b""


def test_process_stale_cache_with_stderr_closed(tmp_path):
    args = ["graded", "-f", "A", "-r", "2", "--variety", "nilcone", "--sweep", "1"]
    (tmp_path / "partition_A2.txt").write_text("stale")
    result = process([*args, "--cache-dir", str(tmp_path)], shell_prefix=STDERR_CLOSED)
    assert result.returncode == 0
    assert result.stdout == invoke(args).stdout.encode()


def test_process_writes_the_whole_cache_file(tmp_path):
    args = ["graded", "-f", "A", "-r", "2", "--variety", "nilcone", "--sweep", "1",
            "--cache-dir", str(tmp_path)]
    cold, warm = process(args), process(args)
    assert cold.returncode == warm.returncode == 0
    assert cold.stderr == warm.stderr == b""
    assert warm.stdout == cold.stdout == invoke(args[:-2]).stdout.encode()
    listing = process(["cache", "list", "--cache-dir", str(tmp_path)])
    line = listing.stdout.decode()
    assert line.startswith("partition_A2.txt: schema=3 type=A2 ")
    assert int(line.split("records=")[1]) > 0
