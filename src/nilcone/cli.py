"""Command-line surface for the graded multiplicity engine.

Exit codes: 0 success, 1 unusable cache file (one for another type, built
with another root ordering, or disagreeing with values already held),
2 usage error, 4 invariant violation (including --check failures).  A
partition cache that is unreadable, from another schema version, or whose
records fail their digest or shape check is not an error: it is ignored
with a warning on stderr and rewritten.  Neither is a cache file that
cannot be written: the run warns on stderr, prints its results and exits 0.

Output formats: human tables (default), versioned JSON, CSV.  JSON and
CSV output is byte-deterministic for identical inputs.
"""

from __future__ import annotations

import functools
import os
import sys
from math import comb
from pathlib import Path

import click

from . import __version__, partition, rootsys, weyl
from .errors import (
    InadmissibleTypeError,
    InternalInconsistencyError,
    NilconeError,
    NonDominantWeightError,
    PositivityViolationError,
    StaleCacheError,
    WrongRootSystemError,
)
from .graded import (
    DEGREE_CONVENTION,
    GradedCalculator,
    ModuleKind,
    Variety,
    a2_tilting_euler,
)
from .multiplicity import WeightMultiplicities, kostant_mult

JSON_SCHEMA_VERSION = 1

EXIT_USAGE = 2
EXIT_VIOLATION = 4


class CheckFailure(NilconeError):
    """A --check re-verification did not hold."""


def exit_code_for(exc: Exception) -> int:
    """Map package errors onto the documented exit codes."""
    if isinstance(
        exc,
        (PositivityViolationError, InternalInconsistencyError, CheckFailure),
    ):
        return EXIT_VIOLATION
    if isinstance(
        exc,
        (InadmissibleTypeError, NonDominantWeightError, WrongRootSystemError),
    ):
        return EXIT_USAGE
    return 1


def handle_errors(f):
    @functools.wraps(f)
    def wrapper(*args, **kwargs):
        try:
            return f(*args, **kwargs)
        except NilconeError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(exit_code_for(exc))

    return wrapper


def parse_weight(text: str, rank: int) -> tuple[int, ...]:
    try:
        coords = tuple(int(c) for c in text.split(","))
    except ValueError:
        raise click.BadParameter(f"weight {text!r} is not a comma-separated integer vector")
    if len(coords) != rank:
        raise click.BadParameter(f"weight {text!r} has {len(coords)} coordinates, rank is {rank}")
    return coords


def fmt_weight(w) -> str:
    return "(" + ",".join(str(c) for c in w) + ")"


CHECK_COLUMN = {Variety.NILCONE: "m(0)", Variety.SUBREGULAR: "m(0)-m(theta)"}


def freudenthal_totals(rs, lam) -> dict[Variety, int]:
    """What each variety's series of L(lam) sums to over all degrees, by
    Freudenthal: m(0) for the nilcone, m(0) - m(theta) for the
    subregular closure."""
    mults = WeightMultiplicities(rs, lam)
    m0 = mults.at((0,) * rs.rank)
    return {Variety.NILCONE: m0, Variety.SUBREGULAR: m0 - mults.at(rs.theta_short)}


def check_total(variety, lam, series, expected) -> None:
    """CheckFailure unless the full series sums to its Freudenthal total."""
    total = sum(series.values())
    if total != expected:
        raise CheckFailure(
            f"total {total} != {CHECK_COLUMN[variety]} = {expected} "
            f"at lambda={fmt_weight(lam)}"
        )


def nilcone_hilbert_closed_form(rs, max_degree: int) -> list[int]:
    """The Hilbert coefficients of C[N] to max_degree from the exponents
    e_i alone: C[N] is a complete intersection, cut out by basic
    invariants of degrees e_i + 1 (Kostant 1963), so its series is
    prod_i (1 - q^(e_i + 1)) / (1 - q)^dim g."""
    dim_g = rs.rank + 2 * rs.num_positive_roots
    numerator = [1] + [0] * max_degree
    for e in rootsys.exponents(rs):
        numerator = [c - (numerator[n - e - 1] if n > e else 0)
                     for n, c in enumerate(numerator)]
    return [sum(numerator[j] * comb(n - j + dim_g - 1, dim_g - 1)
                for j in range(n + 1))
            for n in range(max_degree + 1)]


def check_hilbert(rs, variety, k, coeffs) -> None:
    """CheckFailure unless the series agrees with the nilcone closed form:
    in every degree for the nilcone, in degrees n < k for the subregular
    closure, where t_n = d_n since a_n = 0."""
    expected = nilcone_hilbert_closed_form(rs, len(coeffs) - 1)
    upto = len(coeffs) if variety == Variety.NILCONE else k
    for n, (c, e) in enumerate(zip(coeffs[:upto], expected)):
        if c != e:
            raise CheckFailure(
                f"Hilbert coefficient {n} = {c} != closed form {e} (nilcone)")


def emit_json(payload: dict) -> None:
    import json

    payload = {"schema_version": JSON_SCHEMA_VERSION, **payload}
    click.echo(json.dumps(payload, indent=2, sort_keys=True))


_ALL_TYPES = (
    [("A", l) for l in range(1, 9)]
    + [("B", l) for l in range(2, 9)]
    + [("C", l) for l in range(2, 9)]
    + [("D", l) for l in range(3, 9)]
    + [("G", 2), ("F", 4), ("E", 6), ("E", 7), ("E", 8)]
)

_format_option = click.option(
    "--format", "fmt", type=click.Choice(["table", "json", "csv"]),
    default="table", help="Output format.",
)
_family_option = click.option("--family", "-f", required=True,
                              type=click.Choice(list(rootsys.FAMILIES)))
_rank_option = click.option("--rank", "-r", required=True, type=int)
_cache_dir_option = click.option(
    "--cache-dir", type=click.Path(), default=None,
    help="Directory of the partition cache files (default: "
         "NILCONE_CACHE_DIR when set; with neither, nothing is persisted "
         "and 'cache list' and 'cache clear' are usage errors).",
)


def resolve_cache_dir(cli_value):
    if cli_value is not None:
        return cli_value
    return os.environ.get("NILCONE_CACHE_DIR") or None


def required_cache_dir(cli_value) -> Path:
    """The cache directory a 'cache' subcommand works on."""
    cache_dir = resolve_cache_dir(cli_value)
    if cache_dir is None:
        raise click.UsageError("give --cache-dir or set NILCONE_CACHE_DIR")
    return Path(cache_dir)


def make_calculator(rs, cache_dir) -> GradedCalculator:
    """Calculator with on-disk persistence when a cache directory is set."""
    if cache_dir is None:
        return GradedCalculator(rs)
    return GradedCalculator(rs, table=partition.load_table(rs, cache_dir))


def persist_tables(calc: GradedCalculator, cache_dir) -> None:
    """Save the partition table if it holds values its file lacks or the
    file it was loaded from was stale.  The cache only saves work, so a
    file that cannot be written is a warning: the run still prints its
    results and exits 0."""
    if cache_dir is not None and calc.table.unsaved:
        path = partition.cache_path(calc.rs.id, cache_dir)
        try:
            calc.table.save(path)
        except OSError as exc:
            click.echo(f"warning: cannot write partition cache {path}: {exc}",
                       err=True)


@click.group()
@click.version_option(version=__version__, prog_name="nilcone")
def cli():
    """Exact graded module data for the nilpotent cone and the subregular
    nilpotent orbit closure.

    Weights are comma-separated fundamental-weight coordinates in Bourbaki
    numbering; all arithmetic is exact.
    """


@cli.command()
@click.option("--family", "-f", type=click.Choice(list(rootsys.FAMILIES)))
@click.option("--rank", "-r", type=int)
@click.option("--all", "all_types", is_flag=True,
              help="All of A_1..A_8, B_2..B_8, C_2..C_8, D_3..D_8, G_2, F_4, E_6..E_8.")
@click.option("--check", is_flag=True,
              help="Re-verify k = h^vee(R^vee) - 1, from the classical table.")
@_format_option
@handle_errors
def kconst(family, rank, all_types, check, fmt):
    """The shift constant k per type (2k-1 = length of the reflection in
    the dominant short root).  Needs no Weyl group enumeration."""
    if all_types:
        types = _ALL_TYPES
    else:
        if family is None or rank is None:
            raise click.UsageError("give --family and --rank, or --all")
        types = [(family, rank)]
    entries = []
    for fam, rk in types:
        rs = rootsys.build(fam, rk)
        length = weyl.reflection_length_theta(rs)
        k = (length + 1) // 2
        expected = rootsys.dual_coxeter_number_of_dual(fam, rk) - 1
        if check and k != expected:
            raise CheckFailure(
                f"k = {k} from len(s_theta) = {length}, but h^vee(R^vee) - 1 "
                f"= {expected} for {fam}_{rk}")
        entries.append({"family": fam, "rank": rk, "k": k,
                        "reflection_length": length})
    if fmt == "json":
        emit_json({"command": "kconst", "entries": entries})
    elif fmt == "csv":
        click.echo("family,rank,k,reflection_length")
        for e in entries:
            click.echo(f"{e['family']},{e['rank']},{e['k']},{e['reflection_length']}")
    else:
        click.echo(f"{'type':<6} {'k':>4} {'len(s_theta)':>13}")
        for e in entries:
            click.echo(f"{e['family']}{e['rank']:<5} {e['k']:>4} {e['reflection_length']:>13}")


@cli.command()
@_family_option
@_rank_option
@click.option("--variety", type=click.Choice([v.value for v in Variety]),
              required=True)
@click.option("--lambda", "lam_text", default=None,
              help="One dominant weight, e.g. 1,1.")
@click.option("--sweep", type=click.IntRange(min=0), default=None,
              help="All dominant weights dominance-below SWEEP * highest root.")
@click.option("--max-degree", type=click.IntRange(min=0), default=None,
              help="Truncate reported degrees.")
@click.option("--check", is_flag=True,
              help="Re-verify the total against the weight-multiplicity identity.")
@_cache_dir_option
@_format_option
@handle_errors
def graded(family, rank, variety, lam_text, sweep, max_degree, check, cache_dir,
           fmt):
    """Graded multiplicities of one coordinate ring.

    nilcone: degree-n multiplicity of L(lambda) in the functions on the
    nilpotent cone; total over n equals the zero-weight multiplicity
    m_lambda(0).  subregular: same for the subregular orbit closure;
    total equals m_lambda(0) - m_lambda(theta).
    """
    variety = Variety(variety)
    rs = rootsys.build(family, rank)
    if (lam_text is None) == (sweep is None):
        raise click.UsageError("give exactly one of --lambda or --sweep")
    cache_dir = resolve_cache_dir(cache_dir)
    calc = make_calculator(rs, cache_dir)
    if lam_text is not None:
        lam = parse_weight(lam_text, rs.rank)
        if not rs.is_dominant(lam):
            raise NonDominantWeightError(lam)
        lams = [lam]
    else:
        lams = list(calc.sweep_domain(sweep))

    results = list(zip(lams, calc.series_batch(variety, lams)))
    persist_tables(calc, cache_dir)

    entries = []
    for lam, series in results:
        check_value = freudenthal_totals(rs, lam)[variety]
        if check:
            check_total(variety, lam, series, check_value)
        if max_degree is not None:
            series = {n: v for n, v in series.items() if n <= max_degree}
        total = sum(series.values())
        entries.append({
            "lambda": list(lam),
            "degrees": [[n, v] for n, v in sorted(series.items())],
            "total": total,
            "check": check_value,
        })

    if fmt == "json":
        emit_json({
            "command": "graded",
            "family": family,
            "rank": rank,
            "variety": variety.value,
            "k": calc.k,
            "degree_convention": DEGREE_CONVENTION,
            "check_column": CHECK_COLUMN[variety],
            "entries": entries,
        })
    elif fmt == "csv":
        click.echo("lambda,degree,mult")
        for e in entries:
            for n, v in e["degrees"]:
                click.echo(f"\"{','.join(map(str, e['lambda']))}\",{n},{v}")
    else:
        click.echo(f"{variety.value} graded multiplicities for {family}_{rank} "
                   f"(k={calc.k}; {DEGREE_CONVENTION})")
        name = CHECK_COLUMN[variety]
        click.echo(f"{'lambda':<14} {'degrees n:mult':<40} {'total':>6} {name:>14}")
        for e in entries:
            degrees = " ".join(f"{n}:{v}" for n, v in e["degrees"]) or "-"
            click.echo(f"{fmt_weight(e['lambda']):<14} {degrees:<40} "
                       f"{e['total']:>6} {e['check']:>14}")


@cli.command()
@_family_option
@_rank_option
@click.option("--kind", type=click.Choice([k.value for k in ModuleKind]),
              required=True)
@click.option("--sweep", type=click.IntRange(min=0), default=1, show_default=True)
@click.option("--max-i", type=click.IntRange(min=0), default=6, show_default=True,
              help="Largest cohomological degree reported.")
@click.option("--check", is_flag=True,
              help="Re-verify parity vanishing, and for weyl the totals identities.")
@_cache_dir_option
@_format_option
@handle_errors
def cohomology(family, rank, kind, sweep, max_i, check, cache_dir, fmt):
    """Cohomology tables per module kind: dominant-weight multiplicities
    in each cohomological degree, assembled from the graded data."""
    rs = rootsys.build(family, rank)
    cache_dir = resolve_cache_dir(cache_dir)
    calc = make_calculator(rs, cache_dir)
    table = calc.cohomology_table(ModuleKind(kind), sweep, max_i)
    persist_tables(calc, cache_dir)
    parity = table.parity_ok()
    if check and not parity:
        raise CheckFailure(f"parity vanishing fails for kind {kind}")
    if check and ModuleKind(kind) == ModuleKind.WEYL:
        # The weyl rows are the digits of d and t: check their full
        # series, whatever --max-i shows of them.
        lams = calc.sweep_domain(sweep)
        series = {variety: calc.series_batch(variety, lams) for variety in Variety}
        for i, lam in enumerate(lams):
            for variety, total in freudenthal_totals(rs, lam).items():
                check_total(variety, lam, series[variety][i], total)

    if fmt == "json":
        emit_json({"command": "cohomology", "parity_ok": parity,
                   **table.to_json_dict()})
    elif fmt == "csv":
        click.echo("i,lambda,mult")
        for i, lam, m in table.iter_csv_rows():
            click.echo(f"{i},\"{lam}\",{m}")
    else:
        click.echo(f"cohomology of kind '{kind}' for {family}_{rank} "
                   f"(k={table.k}; sweep {sweep}; {DEGREE_CONVENTION})")
        for i in range(max_i + 1):
            row = table.row(i)
            if row:
                cells = "  ".join(f"L{fmt_weight(l)}:{m}" for l, m in sorted(row.items()))
            else:
                cells = "0"
            click.echo(f"H^{i:<3} {cells}")
        click.echo(f"parity vanishing: {'OK' if parity else 'FAILS'}")


@cli.command("tilting-example")
@click.option("--check", is_flag=True,
              help="Cross-check every multiplicity with the alternating Weyl sum.")
@_format_option
@handle_errors
def tilting_example(check, fmt):
    """The A_2 tilting module whose cohomology mixes parities.

    Sweeps dominant weights dominance-below 3*omega_1 + 3*omega_2 and
    prints the signed multiplicity of each L(lambda) in the Euler
    characteristic; a negative entry is exactly a parity-vanishing
    failure.
    """
    rs = rootsys.build("A", 2)
    entries = []
    negatives = []
    for lam in rs.dominant_below((3, 3)):
        value = a2_tilting_euler(rs, lam)
        if check:
            alt = (
                kostant_mult(rs, lam, (0, 3))
                + kostant_mult(rs, lam, (0, 0))
                - 2 * kostant_mult(rs, lam, (1, 1))
            )
            if alt != value:
                raise CheckFailure(f"tilting multiplicity mismatch at {fmt_weight(lam)}")
        entries.append({"lambda": list(lam), "euler_mult": value})
        if value < 0:
            negatives.append(lam)

    if fmt == "json":
        emit_json({"command": "tilting-example", "family": "A", "rank": 2,
                   "entries": entries,
                   "parity_vanishing_fails": bool(negatives)})
    elif fmt == "csv":
        click.echo("lambda,euler_mult")
        for e in entries:
            click.echo(f"\"{','.join(map(str, e['lambda']))}\",{e['euler_mult']}")
    else:
        click.echo("Euler multiplicities for the A_2 tilting module "
                   "with highest weight 3*omega_2 (untwisted)")
        for e in entries:
            flag = "  <- sign change" if e["euler_mult"] < 0 else ""
            click.echo(f"L{fmt_weight(e['lambda']):<10} {e['euler_mult']:>3}{flag}")
        if negatives:
            club = ", ".join(fmt_weight(l) for l in negatives)
            click.echo(f"parity vanishing FAILS: negative multiplicity at {club}")


@cli.command()
@_family_option
@_rank_option
@click.option("--lambda", "lam_text", required=True)
@click.option("--mu", "mu_text", required=True)
@click.option("--algorithm", type=click.Choice(["freudenthal", "kostant", "both"]),
              default="freudenthal", show_default=True)
@_format_option
@handle_errors
def mult(family, rank, lam_text, mu_text, algorithm, fmt):
    """Multiplicity of the weight mu in the irreducible module L(lambda)."""
    rs = rootsys.build(family, rank)
    lam = parse_weight(lam_text, rs.rank)
    mu = parse_weight(mu_text, rs.rank)
    values = {}
    if algorithm in ("freudenthal", "both"):
        values["freudenthal"] = WeightMultiplicities(rs, lam).at(mu)
    if algorithm in ("kostant", "both"):
        values["kostant"] = kostant_mult(rs, lam, mu)
    if len(values) == 2 and values["freudenthal"] != values["kostant"]:
        raise InternalInconsistencyError(
            f"freudenthal {values['freudenthal']} != kostant {values['kostant']}"
        )
    value = next(iter(values.values()))
    if fmt == "json":
        emit_json({"command": "mult", "family": family, "rank": rank,
                   "lambda": list(lam), "mu": list(mu), "mult": value,
                   "algorithms": sorted(values)})
    elif fmt == "csv":
        click.echo("lambda,mu,mult")
        click.echo(f"\"{lam_text}\",\"{mu_text}\",{value}")
    else:
        click.echo(f"m_{fmt_weight(lam)}{fmt_weight(mu)} = {value}")


@cli.command()
@_family_option
@_rank_option
@click.option("--variety", type=click.Choice([v.value for v in Variety]),
              required=True)
@click.option("--max-degree", type=click.IntRange(min=0), default=6,
              show_default=True)
@click.option("--check", is_flag=True,
              help="Re-verify against the nilcone closed form from the exponents "
                   "(every degree; for subregular, the degrees below k).")
@_cache_dir_option
@_format_option
@handle_errors
def hilbert(family, rank, variety, max_degree, check, cache_dir, fmt):
    """Hilbert series coefficients (graded dimensions) of the chosen ring."""
    rs = rootsys.build(family, rank)
    cache_dir = resolve_cache_dir(cache_dir)
    calc = make_calculator(rs, cache_dir)
    coeffs = calc.hilbert_series(Variety(variety), max_degree)
    persist_tables(calc, cache_dir)
    if check:
        check_hilbert(rs, Variety(variety), calc.k, coeffs)
    if fmt == "json":
        emit_json({"command": "hilbert", "family": family, "rank": rank,
                   "variety": variety, "coefficients": coeffs})
    elif fmt == "csv":
        click.echo("degree,dimension")
        for n, c in enumerate(coeffs):
            click.echo(f"{n},{c}")
    else:
        click.echo(f"{variety} Hilbert coefficients for {family}_{rank}: "
                   + " ".join(str(c) for c in coeffs))


@cli.command()
@_family_option
@_rank_option
@handle_errors
def rootsystem(family, rank):
    """Root system datum in the documented JSON schema."""
    import json

    rs = rootsys.build(family, rank)
    click.echo(json.dumps(rs.to_json_dict(), sort_keys=True))


@cli.group()
def cache():
    """List or clear the on-disk partition caches."""


@cache.command("list")
@_cache_dir_option
def cache_list(cache_dir):
    directory = required_cache_dir(cache_dir)
    if not directory.is_dir():
        click.echo(f"no cache directory at {directory}")
        return
    files = sorted(directory.glob("partition_*.json"))
    if not files:
        click.echo(f"no cache files in {directory}")
        return
    for f in files:
        try:
            header = partition.read_cache(f)
        except StaleCacheError:
            click.echo(f"{f.name}: unreadable")
            continue
        records = header.get("records")
        click.echo(
            f"{f.name}: schema={header.get('schema_version')} "
            f"type={header.get('family')}{header.get('rank')} "
            f"height_cutoff={header.get('height_cutoff')} "
            f"records={len(records) if isinstance(records, list) else '?'}"
        )


@cache.command("clear")
@_cache_dir_option
def cache_clear(cache_dir):
    directory = required_cache_dir(cache_dir)
    removed = 0
    if directory.is_dir():
        for f in sorted(directory.glob("partition_*.json")):
            if not f.is_file():
                click.echo(f"warning: skipping {f}: not a regular file", err=True)
                continue
            f.unlink()
            removed += 1
    click.echo(f"removed {removed} cache file(s) from {directory}")


def main():
    """Console entry point."""
    cli()


if __name__ == "__main__":
    main()
