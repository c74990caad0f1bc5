"""Every command but cohomology prints exactly what it printed when these
hashes were taken: the sha256 of stdout in each format, for kconst on G2
and on every type with --check, mult and tilting-example with and
without --check, graded on A2 and G2 with --sweep 1 --check for
both varieties, and hilbert on G2 to degree 12 for both varieties.  Each
run exits 0 with nothing on stderr.  (The cohomology pins are in
``test_cohomology_output.py``.)"""

import hashlib

import pytest

import nilcone.cli
from cli_runner import invoke
from nilcone.cli import EXIT_VIOLATION

PINNED = {
    "kconst -f G -r 2 --format table":
        "8f99f17a6c68ecd9d6f25e508634c7fae94973661095bfe48dfa15817c74a671",
    "kconst -f G -r 2 --format json":
        "6409c1a816b5f336595383407d1e833c6c32a577a30d20fd68716092631be5da",
    "kconst -f G -r 2 --format csv":
        "0cf0b99a177cc8efbf96948d73b188e4fd304fadf5336fa3779ff7b0b0d866ce",
    "kconst --all --check --format table":
        "4cf11410e0ac2a372aba8228edf4b46bad803438203abfe67f40ff70a242b523",
    "kconst --all --check --format json":
        "86592fca15a4b6e715e488bc63db459a370c6c52b3143fc9b481adca41f8e1dc",
    "kconst --all --check --format csv":
        "3a7f740a1e1713f94affdbad25778f0bdc2ebb534c4cad672c0ce3d97a50ebd8",
    "mult -f A -r 2 --lambda 1,1 --mu 0,0 --format table":
        "0871d184444c4c6f9cace37fa2847bcd97967d1d1718bbc971d8d9f598cf1dd7",
    "mult -f A -r 2 --lambda 1,1 --mu 0,0 --format json":
        "bd6cf2f85c42b76f15eedbe91f1b9a7d2c32cc62d95b43ec07df484fdb15a98e",
    "mult -f A -r 2 --lambda 1,1 --mu 0,0 --format csv":
        "68faa8157f6060f0aff5a34dc50b4c5aa979935f39d1f14f85b17c214afc2e0b",
    "mult -f A -r 2 --lambda 1,1 --mu 0,0 --check --format table":
        "0871d184444c4c6f9cace37fa2847bcd97967d1d1718bbc971d8d9f598cf1dd7",
    "mult -f A -r 2 --lambda 1,1 --mu 0,0 --check --format json":
        "7f7d0cb0633691a9c6ed997da49b12a57ce667e76b98c4edd3b14dc584959fb8",
    "mult -f A -r 2 --lambda 1,1 --mu 0,0 --check --format csv":
        "68faa8157f6060f0aff5a34dc50b4c5aa979935f39d1f14f85b17c214afc2e0b",
    "tilting-example --format table":
        "60fcdd56c3ed19e22c55daee0ec837a2219150dc0242df48985e0723c6b638a5",
    "tilting-example --format json":
        "2b6cd36969394f3536edec8bdcc1cfdaf0e79a9cd8ca4410c0e5022e7f27e2ae",
    "tilting-example --format csv":
        "aff6d53dca376bc5aeac28ef772629db8aea5b977cd364184dee517ffd0e7e9a",
    "tilting-example --check --format table":
        "60fcdd56c3ed19e22c55daee0ec837a2219150dc0242df48985e0723c6b638a5",
    "tilting-example --check --format json":
        "2b6cd36969394f3536edec8bdcc1cfdaf0e79a9cd8ca4410c0e5022e7f27e2ae",
    "tilting-example --check --format csv":
        "aff6d53dca376bc5aeac28ef772629db8aea5b977cd364184dee517ffd0e7e9a",
    "graded -f A -r 2 --variety nilcone --sweep 1 --check --format table":
        "32f3e7ec434a31a09094638fefe6727196186f84ffda548d69078c0448519fc2",
    "graded -f A -r 2 --variety nilcone --sweep 1 --check --format json":
        "29d4655f3aef9a76b6200aa5dec7a1c0b152323b811f42f84658a850b1ccbf26",
    "graded -f A -r 2 --variety nilcone --sweep 1 --check --format csv":
        "996c84781e9da434de6cbd262720bb541950e0276117e9e1545e8e04d091cf27",
    "graded -f A -r 2 --variety subregular --sweep 1 --check --format table":
        "d3fbdb0cc918da24d50773bbbf30e4b78e3a3856cae720c6d99f1eb5af82b507",
    "graded -f A -r 2 --variety subregular --sweep 1 --check --format json":
        "91925e523a3053e68349470a18de368d893fd3c8fd79b83773c45c6f34c46cef",
    "graded -f A -r 2 --variety subregular --sweep 1 --check --format csv":
        "61a120c91a084359a2e85831e4b3da2397906ed052902d0f97c56aedf0dbe212",
    "graded -f G -r 2 --variety nilcone --sweep 1 --check --format table":
        "43a89e3602177beda1f243d72aa45b053c28666d06b24327ae603cb3c2d3ff53",
    "graded -f G -r 2 --variety nilcone --sweep 1 --check --format json":
        "647e34268b0ea6a962cbdbbd538644b48bd39d76f5a178d752eaee55c29e468e",
    "graded -f G -r 2 --variety nilcone --sweep 1 --check --format csv":
        "e55ae92656976e5bf088d5f797aa95e4d039e096b1f40e503002ddcb3c083279",
    "graded -f G -r 2 --variety subregular --sweep 1 --check --format table":
        "d3545451a4db1296a5b56f96154e17067f665ad5b3d77309a03cd077d9d993a1",
    "graded -f G -r 2 --variety subregular --sweep 1 --check --format json":
        "a2f4fbcb8d551ce3c2d31765a580d372fe31a5c1194c9aa8cbf575c1c2b121e2",
    "graded -f G -r 2 --variety subregular --sweep 1 --check --format csv":
        "38d8a2df2357872f5e0d2a368199de02adc926c167e49f22968e1dd7768f0af4",
    "hilbert -f G -r 2 --variety nilcone --max-degree 12 --format table":
        "91052c96f0ccb4b769b322e68c3f5513eceae1ecc0418bb3855e697a738b56b2",
    "hilbert -f G -r 2 --variety nilcone --max-degree 12 --format json":
        "47de1825e4b31e13f65a663d6001f7703d2e5fa7ad92c3aa6b5b9a441026709e",
    "hilbert -f G -r 2 --variety nilcone --max-degree 12 --format csv":
        "04ab0589dc240018eed1c3e00cd78c16196632b052b011c0ebf6bcb219f72d7b",
    "hilbert -f G -r 2 --variety subregular --max-degree 12 --format table":
        "8c22a81a068ad298cf9898182d9e2e0b953c244b468821885543c9c00af95b2d",
    "hilbert -f G -r 2 --variety subregular --max-degree 12 --format json":
        "36c58b517545d01e960132cd711549568a05af8940cae52ab3254d08928c2e99",
    "hilbert -f G -r 2 --variety subregular --max-degree 12 --format csv":
        "69336075149befb6a04163923c1fa866f051700f4b5bf2e8c03461528322a39a",
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_stdout_is_pinned(case):
    result = invoke(case.split())
    assert result.exit_code == 0, result.output
    assert result.stderr == ""
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == PINNED[case]


@pytest.mark.parametrize("command", [
    "mult -f A -r 2 --lambda 1,1 --mu 0,0",
    "tilting-example",
], ids=["mult", "tilting-example"])
@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
def test_a_kostant_disagreement_fails_only_the_check(monkeypatch, command, fmt):
    # Kostant's sum, one higher at m_(1,1)(0,0) = 2: a weight that both
    # commands read.  --check compares every Freudenthal value it prints
    # or sums with it; without --check it is never called.
    kostant_mult, calls = nilcone.cli.kostant_mult, []

    def skewed(rs, lam, mu):
        calls.append((lam, mu))
        return kostant_mult(rs, lam, mu) + ((lam, mu) == ((1, 1), (0, 0)))

    monkeypatch.setattr(nilcone.cli, "kostant_mult", skewed)
    result = invoke(f"{command} --check --format {fmt}".split())
    assert result.exit_code == EXIT_VIOLATION
    assert result.stdout == ""
    assert result.stderr == ("error: freudenthal 2 != kostant 3 "
                             "at lambda=(1,1), mu=(0,0)\n")
    assert calls[-1] == ((1, 1), (0, 0))

    calls.clear()
    case = f"{command} --format {fmt}"
    result = invoke(case.split())
    assert result.exit_code == 0, result.output
    assert result.stderr == "" and calls == []
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == PINNED[case]
