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

The options are parsed by argparse, so the command line needs nothing
beyond the standard library.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from math import comb
from pathlib import Path

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


class UsageError(Exception):
    """Arguments that parse but do not make a command: exit 2, with the
    command's usage line."""


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
            print(f"error: {exc}", file=sys.stderr)
            sys.exit(exit_code_for(exc))

    return wrapper


def parse_weight(text: str, rank: int) -> tuple[int, ...]:
    try:
        coords = tuple(int(c) for c in text.split(","))
    except ValueError:
        raise UsageError(f"weight {text!r} is not a comma-separated integer vector")
    if len(coords) != rank:
        raise UsageError(f"weight {text!r} has {len(coords)} coordinates, rank is {rank}")
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


def little_adjoint_dim(rs) -> int:
    """dim L(theta_s), counted from the roots alone: its weights are the
    short roots, and 0 once per short simple root."""
    short = [sum(r) for c, r in zip(rs.positive_roots, rs.positive_root_coords)
             if rs.inner(c, r) == 2]
    return 2 * len(short) + short.count(1)


def check_hilbert(rs, variety, k, coeffs) -> None:
    """CheckFailure unless the series agrees with the nilcone closed form:
    in every degree for the nilcone; for the subregular closure in the
    degrees n < k, where t_n = d_n since a_n = 0, and in degree k, where
    a_k(lam) = E(lam, theta_s; q) at q^0 = [lam = theta_s] takes away
    dim L(theta_s)."""
    expected = nilcone_hilbert_closed_form(rs, len(coeffs) - 1)
    forms = ["nilcone"] * len(expected)
    if variety == Variety.SUBREGULAR:
        del expected[k + 1:]
        if k < len(expected):
            expected[k] -= little_adjoint_dim(rs)
            forms[k] = "nilcone - dim L(theta_s)"
    for n, (c, e) in enumerate(zip(coeffs, expected)):
        if c != e:
            raise CheckFailure(
                f"Hilbert coefficient {n} = {c} != closed form {e} ({forms[n]})")


def emit_json(payload: dict) -> None:
    import json

    payload = {"schema_version": JSON_SCHEMA_VERSION, **payload}
    print(json.dumps(payload, indent=2, sort_keys=True))


_ALL_TYPES = (
    [("A", l) for l in range(1, 9)]
    + [("B", l) for l in range(2, 9)]
    + [("C", l) for l in range(2, 9)]
    + [("D", l) for l in range(3, 9)]
    + [("G", 2), ("F", 4), ("E", 6), ("E", 7), ("E", 8)]
)

def option(*flags, **settings):
    """One option: the arguments of ArgumentParser.add_argument."""
    return flags, settings


def count(text: str) -> int:
    """A nonnegative integer option value."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is not in the range x>=0")
    return value


FORMAT = option("--format", dest="fmt", choices=["table", "json", "csv"],
                default="table", help="Output format.")
FAMILY = option("-f", "--family", required=True, choices=rootsys.FAMILIES)
RANK = option("-r", "--rank", required=True, type=int)
CACHE_DIR = option(
    "--cache-dir", metavar="DIR",
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
        raise UsageError("give --cache-dir or set NILCONE_CACHE_DIR")
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
            print(f"warning: cannot write partition cache {path}: {exc}",
                  file=sys.stderr)


class Parser(argparse.ArgumentParser):
    """argparse held to this command line's rules: --help but no -h, no
    abbreviated options, and an option that takes a value takes the next
    argument even when it starts with '-' (`--mu -1,2`)."""

    def __init__(self, **kwargs):
        self.takes_value = set()
        super().__init__(allow_abbrev=False, add_help=False, **kwargs)
        self.add_argument("--help", action="help", help="Show this message and exit.")

    def add_argument(self, *flags, **settings):
        action = super().add_argument(*flags, **settings)
        if action.option_strings and action.nargs is None:
            self.takes_value.update(action.option_strings)
        return action

    def parse_known_args(self, args=None, namespace=None):
        # argparse hands each command's parser the arguments after the
        # command's name through this method.
        if args is not None:
            args = list(attach_values(args, self.takes_value))
        return super().parse_known_args(args, namespace)


def attach_values(args, takes_value):
    """args with each option in takes_value joined to the argument after
    it, `--mu=-1,2`: argparse would read a lone `-1,2` as an option."""
    args = iter(args)
    for arg in args:
        value = next(args, None) if arg in takes_value else None
        yield arg if value is None else f"{arg}={value}"


class Command:
    """A command: the function it runs and the options it takes."""

    def __init__(self, name, callback, options):
        self.name, self.callback, self.options = name, callback, options

    def add_to(self, subparsers) -> None:
        doc = self.callback.__doc__ or ""
        parser = subparsers.add_parser(self.name, help=doc.split("\n\n")[0],
                                       description=doc)
        for flags, settings in self.options:
            parser.add_argument(*flags, **settings)
        parser.set_defaults(_command=self, _parser=parser)


class Group:
    """Commands under one name.  A group runs nothing itself, so its
    callback is None."""

    callback = None

    def __init__(self, name, doc):
        self.name, self.doc, self.commands = name, doc, {}

    def command(self, *options, name=None):
        """Register the decorated function as a command taking options."""
        def register(callback):
            command = Command(name or callback.__name__, callback, options)
            self.commands[command.name] = command
            return callback

        return register

    def group(self, name, doc) -> Group:
        self.commands[name] = group = Group(name, doc)
        return group

    def add_to(self, subparsers) -> None:
        self.add_commands(subparsers.add_parser(self.name, help=self.doc,
                                                description=self.doc))

    def add_commands(self, parser) -> None:
        subparsers = parser.add_subparsers(title="commands", metavar="COMMAND",
                                           required=True)
        for command in self.commands.values():
            command.add_to(subparsers)


cli = Group("nilcone", """Exact graded module data for the nilpotent cone and
    the subregular nilpotent orbit closure.  Weights are comma-separated
    fundamental-weight coordinates in Bourbaki numbering; all arithmetic is
    exact.""")


@cli.command(
    option("-f", "--family", choices=rootsys.FAMILIES),
    option("-r", "--rank", type=int),
    option("--all", dest="all_types", action="store_true",
           help="All of A_1..A_8, B_2..B_8, C_2..C_8, D_3..D_8, G_2, F_4, E_6..E_8."),
    option("--check", action="store_true",
           help="Re-verify k = h^vee(R^vee) - 1, from the classical table."),
    FORMAT,
)
@handle_errors
def kconst(family, rank, all_types, check, fmt):
    """The shift constant k per type (2k-1 = length of the reflection in
    the dominant short root).  Needs no Weyl group enumeration."""
    if all_types and family is None and rank is None:
        types = _ALL_TYPES
    elif not all_types and family is not None and rank is not None:
        types = [(family, rank)]
    else:
        raise UsageError("give --family and --rank, or --all")
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
        print("family,rank,k,reflection_length")
        for e in entries:
            print(f"{e['family']},{e['rank']},{e['k']},{e['reflection_length']}")
    else:
        print(f"{'type':<6} {'k':>4} {'len(s_theta)':>13}")
        for e in entries:
            print(f"{e['family']}{e['rank']:<5} {e['k']:>4} {e['reflection_length']:>13}")


@cli.command(
    FAMILY,
    RANK,
    option("--variety", required=True, choices=[v.value for v in Variety]),
    option("--lambda", dest="lam_text", metavar="WEIGHT",
           help="One dominant weight, e.g. 1,1."),
    option("--sweep", type=count,
           help="All dominant weights dominance-below SWEEP * highest root."),
    option("--max-degree", type=count, help="Truncate reported degrees."),
    option("--check", action="store_true",
           help="Re-verify the total against the weight-multiplicity identity."),
    CACHE_DIR,
    FORMAT,
)
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
        raise UsageError("give exactly one of --lambda or --sweep")
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
        print("lambda,degree,mult")
        for e in entries:
            for n, v in e["degrees"]:
                print(f"\"{','.join(map(str, e['lambda']))}\",{n},{v}")
    else:
        print(f"{variety.value} graded multiplicities for {family}_{rank} "
              f"(k={calc.k}; {DEGREE_CONVENTION})")
        name = CHECK_COLUMN[variety]
        print(f"{'lambda':<14} {'degrees n:mult':<40} {'total':>6} {name:>14}")
        for e in entries:
            degrees = " ".join(f"{n}:{v}" for n, v in e["degrees"]) or "-"
            print(f"{fmt_weight(e['lambda']):<14} {degrees:<40} "
                  f"{e['total']:>6} {e['check']:>14}")


@cli.command(
    FAMILY,
    RANK,
    option("--kind", required=True, choices=[k.value for k in ModuleKind]),
    option("--sweep", type=count, default=1,
           help="All dominant weights dominance-below SWEEP * highest root "
                "(default: %(default)s)."),
    option("--max-i", type=count, default=6,
           help="Largest cohomological degree reported (default: %(default)s)."),
    option("--check", action="store_true",
           help="Re-verify parity vanishing, and for weyl the totals identities."),
    CACHE_DIR,
    FORMAT,
)
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
        print("i,lambda,mult")
        for i, lam, m in table.iter_csv_rows():
            print(f"{i},\"{lam}\",{m}")
    else:
        print(f"cohomology of kind '{kind}' for {family}_{rank} "
              f"(k={table.k}; sweep {sweep}; {DEGREE_CONVENTION})")
        for i in range(max_i + 1):
            row = table.row(i)
            if row:
                cells = "  ".join(f"L{fmt_weight(l)}:{m}" for l, m in sorted(row.items()))
            else:
                cells = "0"
            print(f"H^{i:<3} {cells}")
        print(f"parity vanishing: {'OK' if parity else 'FAILS'}")


@cli.command(
    option("--check", action="store_true",
           help="Cross-check every multiplicity with the alternating Weyl sum."),
    FORMAT,
    name="tilting-example",
)
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
        print("lambda,euler_mult")
        for e in entries:
            print(f"\"{','.join(map(str, e['lambda']))}\",{e['euler_mult']}")
    else:
        print("Euler multiplicities for the A_2 tilting module "
              "with highest weight 3*omega_2 (untwisted)")
        for e in entries:
            flag = "  <- sign change" if e["euler_mult"] < 0 else ""
            print(f"L{fmt_weight(e['lambda']):<10} {e['euler_mult']:>3}{flag}")
        if negatives:
            club = ", ".join(fmt_weight(l) for l in negatives)
            print(f"parity vanishing FAILS: negative multiplicity at {club}")


@cli.command(
    FAMILY,
    RANK,
    option("--lambda", dest="lam_text", required=True, metavar="WEIGHT"),
    option("--mu", dest="mu_text", required=True, metavar="WEIGHT"),
    option("--algorithm", choices=["freudenthal", "kostant", "both"],
           default="freudenthal",
           help="Freudenthal's recursion, Kostant's alternating sum, or both, "
                "which must agree (default: %(default)s)."),
    FORMAT,
)
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
        print("lambda,mu,mult")
        print(f"\"{lam_text}\",\"{mu_text}\",{value}")
    else:
        print(f"m_{fmt_weight(lam)}{fmt_weight(mu)} = {value}")


@cli.command(
    FAMILY,
    RANK,
    option("--variety", required=True, choices=[v.value for v in Variety]),
    option("--max-degree", type=count, default=6,
           help="Largest degree reported (default: %(default)s)."),
    option("--check", action="store_true",
           help="Re-verify against the nilcone closed form from the exponents "
                "(every degree; for subregular, the degrees up to k, less "
                "dim L(theta_s) in degree k)."),
    CACHE_DIR,
    FORMAT,
)
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
        print("degree,dimension")
        for n, c in enumerate(coeffs):
            print(f"{n},{c}")
    else:
        print(f"{variety} Hilbert coefficients for {family}_{rank}: "
              + " ".join(str(c) for c in coeffs))


@cli.command(FAMILY, RANK)
@handle_errors
def rootsystem(family, rank):
    """Root system datum in the documented JSON schema."""
    import json

    rs = rootsys.build(family, rank)
    print(json.dumps(rs.to_json_dict(), sort_keys=True))


cache = cli.group("cache", "List or clear the on-disk partition caches.")


@cache.command(CACHE_DIR, name="list")
def cache_list(cache_dir):
    """List the partition cache files and their headers."""
    directory = required_cache_dir(cache_dir)
    if not directory.is_dir():
        print(f"no cache directory at {directory}")
        return
    files = sorted(directory.glob("partition_*.json"))
    if not files:
        print(f"no cache files in {directory}")
        return
    for f in files:
        try:
            header = partition.read_cache(f)
        except StaleCacheError:
            print(f"{f.name}: unreadable")
            continue
        records = header.get("records")
        print(
            f"{f.name}: schema={header.get('schema_version')} "
            f"type={header.get('family')}{header.get('rank')} "
            f"height_cutoff={header.get('height_cutoff')} "
            f"records={len(records) if isinstance(records, list) else '?'}"
        )


@cache.command(CACHE_DIR, name="clear")
def cache_clear(cache_dir):
    """Remove the partition cache files."""
    directory = required_cache_dir(cache_dir)
    removed = 0
    if directory.is_dir():
        for f in sorted(directory.glob("partition_*.json")):
            if not f.is_file():
                print(f"warning: skipping {f}: not a regular file", file=sys.stderr)
                continue
            f.unlink()
            removed += 1
    print(f"removed {removed} cache file(s) from {directory}")


def build_parser() -> Parser:
    parser = Parser(prog="nilcone", description=cli.doc)
    parser.add_argument("--version", action="version",
                        version=f"nilcone, version {__version__}",
                        help="Show the version and exit.")
    cli.add_commands(parser)
    return parser


def main(argv=None) -> None:
    """Console entry point: run the command that argv (by default
    sys.argv[1:]) names.  Exits 2 on a usage error."""
    args = vars(build_parser().parse_args(argv))
    command, parser = args.pop("_command"), args.pop("_parser")
    try:
        command.callback(**args)
    except UsageError as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    main()
