"""Command-line surface for the graded multiplicity engine.

Exit codes: 0 success, 2 usage error, 4 invariant violation (including
--check failures), 120 stdout a closed pipe (``run``).  A partition
cache file that cannot be used or written is only a warning on stderr
(``partition.load_table``, ``PartitionTable.persist``).  Errors and
warnings go through ``errors.report``, which drops them when stderr is
closed rather than let them reach stdout.

The words a user reads are this module's, not the library's: the
library speaks of the profiles d, a and t (``GradedCalculator.profiles``),
``PROFILE`` maps each variety to the one it reads, and ``KIND_ROWS`` each
module kind to the (offset, name) parts whose digit n ``cohomology`` adds
into row 2n + offset.  So each kind writes its rows in one parity (weyl
in both), and parity vanishing holds there by construction; the A_2
tilting module where it fails is a sum of three weight multiplicities,
which the ``tilting-example`` command takes itself.

Output formats: human tables (default), versioned JSON, CSV.  Every
command with --format hands its JSON payload, CSV rows and table lines
to ``emit``, the one place that reads the format; JSON and CSV output
is byte-deterministic for identical inputs.

The options are read by ``Command.parse``, from the table each command
declares, which also renders --help and the usage errors; no parsing
library is imported.  ``main`` is the one path into a command: it names
an unknown argument, before a missing required option, under the
command's own usage line, fills ``--cache-dir`` from NILCONE_CACHE_DIR,
and maps a package error to its exit code.  The cache file's name,
layout and save policy belong to ``partition``.
"""

import os
import sys
from itertools import chain
from math import comb
from pathlib import Path

from . import __version__, partition, rootsys, weyl
from .errors import NilconeError, report
from .graded import GradedCalculator
from .multiplicity import WeightMultiplicities, kostant_mult

JSON_SCHEMA_VERSION = 1

DEGREE_CONVENTION = (
    "degrees are polynomial degrees n; even cohomology sits in degree 2n, "
    "odd cohomology in degree 2n-1"
)

EXIT_USAGE = 2
EXIT_VIOLATION = 4
EXIT_OUTPUT = 120  # stdout is a closed pipe (``run``)


class CheckFailure(NilconeError):
    """A --check re-verification did not hold."""


class UsageError(Exception):
    """Arguments that parse but do not make a command: exit 2, with the
    command's usage line."""


def exit_code_for(exc: Exception) -> int:
    """The documented exit code of a package error: 2 for bad input (the
    package's ValueError subclasses), 4 for an invariant violation."""
    return EXIT_USAGE if isinstance(exc, ValueError) else EXIT_VIOLATION


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


def csv_weight(w) -> str:
    """A weight as one CSV field: its coordinates, quoted."""
    return '"' + ",".join(str(c) for c in w) + '"'


# The profile each variety reads; its keys are the varieties.
PROFILE = {"nilcone": "d", "subregular": "t"}

# Each module kind's (offset, name) parts, in the order --help lists them:
# trivial H^{2n} = d_n, induced_wall H^{2i-1} = a_i, tilting H^{2n} = t_n,
# weyl H^{2n} = t_n and H^{2n+1} = d_n, simple H^{2i+1} = d_i + a_{i+1}.
KIND_ROWS = {
    "trivial": [(0, "d")],
    "induced_wall": [(-1, "a")],
    "tilting": [(0, "t")],
    "weyl": [(0, "t"), (1, "d")],
    "simple": [(1, "d"), (-1, "a")],
}

CHECK_COLUMN = {"d": "m(0)", "t": "m(0)-m(theta)"}


def freudenthal_totals(rs, lam) -> dict[str, int]:
    """What the d and t series of L(lam) sum to over all degrees, by
    Freudenthal: m(0) for the nilcone, m(0) - m(theta) for the
    subregular closure."""
    mults = WeightMultiplicities(rs, lam)
    m0 = mults.at((0,) * rs.rank)
    return {"d": m0, "t": m0 - mults.at(rs.theta_short)}


def check_total(name, lam, total, expected) -> None:
    """CheckFailure unless the total of a full series, d or t, is its
    Freudenthal total."""
    if total != expected:
        raise CheckFailure(
            f"total {total} != {CHECK_COLUMN[name]} = {expected} "
            f"at lambda={fmt_weight(lam)}"
        )


def weight_mults(rs, lam, mus, check, table=None) -> list[int]:
    """Freudenthal's m_lam(mu) for each mu in mus.  With check, each is
    compared with Kostant's alternating sum (``kostant_mult``, on table
    when one is given); a CheckFailure names lam, mu and both values."""
    mults = WeightMultiplicities(rs, lam)
    values = [mults.at(mu) for mu in mus]
    if check:
        for mu, value in zip(mus, values):
            kostant = kostant_mult(rs, lam, mu, table=table)
            if kostant != value:
                raise CheckFailure(
                    f"freudenthal {value} != kostant {kostant} "
                    f"at lambda={fmt_weight(lam)}, mu={fmt_weight(mu)}")
    return values


def nilcone_hilbert_closed_form(rs, max_degree: int) -> list[int]:
    """The Hilbert coefficients of C[N] to max_degree from the exponents
    e_i alone: C[N] is a complete intersection, cut out by basic
    invariants of degrees e_i + 1 (Kostant 1963), so its series is
    prod_i (1 - q^(e_i + 1)) / (1 - q)^dim g."""
    dim_g = rs.rank + 2 * len(rs.positive_roots)
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


def check_hilbert(rs, name, k, coeffs) -> None:
    """CheckFailure unless the series of profile name agrees with the
    nilcone closed form: in every degree for d, the nilcone; for t, the
    subregular closure, in the degrees n < k, where t_n = d_n since
    a_n = 0, and in degree k, where a_k(lam) = E(lam, theta_s; q) at
    q^0 = [lam = theta_s] takes away dim L(theta_s)."""
    expected = nilcone_hilbert_closed_form(rs, len(coeffs) - 1)
    forms = ["nilcone"] * len(expected)
    if name == "t":
        del expected[k + 1:]
        if k < len(expected):
            expected[k] -= little_adjoint_dim(rs)
            forms[k] = "nilcone - dim L(theta_s)"
    for n, (c, e) in enumerate(zip(coeffs, expected)):
        if c != e:
            raise CheckFailure(
                f"Hilbert coefficient {n} = {c} != closed form {e} ({forms[n]})")


def emit(fmt, payload, rows, lines) -> None:
    """Print the one output of a command that fmt names: its JSON payload,
    under the schema version; its CSV rows, header first, fields joined
    by commas; or its table lines.  Only that one is iterated, so rows
    and lines given as generators build nothing for another format."""
    if fmt == "json":
        import json

        lines = [json.dumps({"schema_version": JSON_SCHEMA_VERSION, **payload},
                            indent=2, sort_keys=True)]
    elif fmt == "csv":
        lines = (",".join(map(str, row)) for row in rows)
    for line in lines:
        print(line)


_ALL_TYPES = (
    [("A", l) for l in range(1, 9)]
    + [("B", l) for l in range(2, 9)]
    + [("C", l) for l in range(2, 9)]
    + [("D", l) for l in range(3, 9)]
    + [("G", 2), ("F", 4), ("E", 6), ("E", 7), ("E", 8)]
)


class Option:
    """One option of a command: its flags, and how the text given for it
    becomes the value its command receives."""

    def __init__(self, *flags, dest=None, type=str, choices=None, default=None,
                 required=False, metavar=None, action=None, help=""):
        self.flags, self.type, self.choices = flags, type, choices
        self.required, self.help = required, help
        self.dest = dest or flags[-1].lstrip("-").replace("-", "_")
        self.takes_value = action != "store_true"
        self.default = default if self.takes_value else False
        self.metavar = metavar or (f"{{{','.join(choices)}}}" if choices
                                   else self.dest.upper())
        self.name = "/".join(flags)

    def read(self, text: str):
        """The value for text, or a UsageError naming the option."""
        try:
            value = self.type(text)
            if self.choices is None or value in self.choices:
                return value
            choices = ", ".join(map(repr, self.choices))
            message = f"invalid choice: {value!r} (choose from {choices})"
        except UsageError as exc:
            message = str(exc)
        except ValueError:
            message = f"invalid {self.type.__name__} value: {text!r}"
        raise UsageError(f"argument {self.name}: {message}")

    def usage(self) -> str:
        """The option in a usage line: its first flag, in brackets unless
        required."""
        text = f"{self.flags[0]} {self.metavar}" if self.takes_value else self.flags[0]
        return text if self.required else f"[{text}]"

    def row(self) -> tuple[str, str]:
        """The option's entry in --help: every flag, and its help text."""
        suffix = f" {self.metavar}" if self.takes_value else ""
        return (", ".join(flag + suffix for flag in self.flags),
                self.help % {"default": self.default})


def count(text: str) -> int:
    """A nonnegative integer option value."""
    value = int(text)
    if value < 0:
        raise UsageError(f"{value} is not in the range x>=0")
    return value


def directory(text: str) -> str:
    """A directory option value: any path but the empty one, which would
    name the working directory."""
    if not text:
        raise UsageError("expected a directory, got ''")
    return text


HELP = Option("--help", action="store_true", help="Show this message and exit.")
VERSION = Option("--version", action="store_true", help="Show the version and exit.")
FORMAT = Option("--format", dest="fmt", choices=["table", "json", "csv"],
                default="table", help="Output format.")
FAMILY = Option("-f", "--family", required=True, choices=rootsys.FAMILIES)
RANK = Option("-r", "--rank", required=True, type=int)
CACHE_DIR = Option(
    "--cache-dir", metavar="DIR", type=directory,
    help="Directory of the partition cache files (default: "
         "NILCONE_CACHE_DIR when set; with neither, nothing is persisted "
         "and 'cache list' and 'cache clear' are usage errors).",
)

WIDTH = 78  # help and usage lines fit an 80-column terminal
COLUMN = 24  # where --help starts the help text of an option or command


def fill(words, head="", indent="") -> str:
    """head, then the words separated by spaces, broken into lines of at
    most WIDTH columns that start with indent; a word too long for a line
    gets one of its own."""
    lines, line, lead = [], head, len(head)
    for word in words:
        if len(line) > lead and len(line) + 1 + len(word) > WIDTH:
            lines.append(line)
            line, lead = indent, len(indent)
        line += (" " if len(line) > lead else "") + word
    return "\n".join([*lines, line])


class Node:
    """A command or a group of them: its name on the command line, the
    description --help shows, and its options."""

    callback = None
    tail = ()

    def __init__(self, name, doc, options, parent=None):
        self.name, self.doc, self.options = name, doc, (HELP, *options)
        self.prog = f"{parent.prog} {name}" if parent else name

    def usage(self) -> str:
        head = f"usage: {self.prog} "
        return fill([*(o.usage() for o in self.options), *self.tail],
                    head, " " * len(head))

    def sections(self) -> dict[str, list[tuple[str, str]]]:
        """The --help tables: a (name, help text) row per entry."""
        return {"options": [o.row() for o in self.options]}

    def help(self) -> str:
        """The usage line, the description, then the tables; a name too
        long for the help text's column gets a line of its own."""
        parts = [self.usage(), *(fill(p.split()) for p in self.doc.split("\n\n"))]
        indent = " " * COLUMN
        for title, rows in self.sections().items():
            lines = [f"{title}:"]
            for name, text in rows:
                lead = (f"  {name:<{COLUMN - 2}}" if len(name) + 4 <= COLUMN
                        else f"  {name}\n{indent}")
                lines.append((lead + fill(text.split(), indent, indent)[COLUMN:]).rstrip())
            parts.append("\n".join(lines))
        return "\n\n".join(parts)


class Command(Node):
    """A command: the function it runs and the options it takes."""

    def __init__(self, name, callback, options, parent):
        super().__init__(name, callback.__doc__ or "", options, parent)
        self.callback = callback
        self.flags = {flag: o for o in self.options for flag in o.flags}

    def parse(self, args, unknown) -> dict | None:
        """The callback's keyword arguments from args, or None when --help
        comes where an option may.  An option that takes a value takes
        the next argument whatever it looks like.  The unknown arguments,
        those passed in and those in args, are named before a missing
        required option."""
        values = {o.dest: o.default for o in self.options if o is not HELP}
        unknown, args = list(unknown), iter(args)
        for arg in args:
            if arg == "--":  # the end of the options; no command takes others
                unknown += [arg, *args]
                break
            name, given, text = arg.partition("=")
            if name not in self.flags and not arg.startswith("--"):
                # -ftext: a short flag and its value in one argument
                name, given, text = arg[:2], arg[2:], arg[2:]
            option = self.flags.get(name)
            if option is None:
                unknown.append(arg)
            elif not option.takes_value:
                if given:
                    raise UsageError(f"argument {option.name}: "
                                     f"ignored explicit argument {text!r}")
                if option is HELP:
                    return None
                values[option.dest] = True
            else:
                text = text if given else next(args, None)
                if text is None:
                    raise UsageError(f"argument {option.name}: expected one argument")
                values[option.dest] = option.read(text)
        if unknown:
            raise UsageError(f"unrecognized arguments: {' '.join(unknown)}")
        missing = [o.name for o in self.options if o.required and values[o.dest] is None]
        if missing:
            raise UsageError(f"the following arguments are required: {', '.join(missing)}")
        return values


class Group(Node):
    """Commands under one name.  A group runs nothing itself, so its
    callback is None."""

    tail = ("COMMAND", "...")

    def __init__(self, name, doc, options=(), parent=None):
        super().__init__(name, doc, options, parent)
        self.commands = {}
        self.choice = Option("COMMAND", choices=self.commands)

    def command(self, *options, name=None):
        """Register the decorated function as a command taking options."""
        def register(callback):
            command = Command(name or callback.__name__, callback, options, self)
            self.commands[command.name] = command
            return callback

        return register

    def group(self, name, doc) -> "Group":
        self.commands[name] = group = Group(name, doc, parent=self)
        return group

    def sections(self) -> dict[str, list[tuple[str, str]]]:
        return {**super().sections(),
                "commands": [(name, command.doc.split("\n\n")[0])
                             for name, command in self.commands.items()]}


cli = Group("nilcone", """Exact graded module data for the nilpotent cone and
    the subregular nilpotent orbit closure.  Weights are comma-separated
    fundamental-weight coordinates in Bourbaki numbering; all arithmetic is
    exact.""", [VERSION])


@cli.command(
    Option("-f", "--family", choices=rootsys.FAMILIES),
    Option("-r", "--rank", type=int),
    Option("--all", dest="all_types", action="store_true",
           help="All of A_1..A_8, B_2..B_8, C_2..C_8, D_3..D_8, G_2, F_4, E_6..E_8."),
    Option("--check", action="store_true",
           help="Re-verify k = h^vee(R^vee) - 1, from the classical table."),
    FORMAT,
)
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
    emit(fmt, {"command": "kconst", "entries": entries},
         chain([("family", "rank", "k", "reflection_length")],
               (e.values() for e in entries)),
         chain([f"{'type':<6} {'k':>4} {'len(s_theta)':>13}"],
               (f"{e['family']}{e['rank']:<5} {e['k']:>4} {e['reflection_length']:>13}"
                for e in entries)))


@cli.command(
    FAMILY,
    RANK,
    Option("--variety", required=True, choices=PROFILE),
    Option("--lambda", dest="lam_text", metavar="WEIGHT",
           help="One dominant weight, e.g. 1,1."),
    Option("--sweep", type=count,
           help="All dominant weights dominance-below SWEEP * highest root."),
    Option("--max-degree", type=count, help="Truncate reported degrees."),
    Option("--check", action="store_true",
           help="Re-verify the total against the weight-multiplicity identity."),
    CACHE_DIR,
    FORMAT,
)
def graded(family, rank, variety, lam_text, sweep, max_degree, check, cache_dir,
           fmt):
    """Graded multiplicities of one coordinate ring.

    nilcone: degree-n multiplicity of L(lambda) in the functions on the
    nilpotent cone; total over n equals the zero-weight multiplicity
    m_lambda(0).  subregular: same for the subregular orbit closure;
    total equals m_lambda(0) - m_lambda(theta).
    """
    rs = rootsys.build(family, rank)
    if (lam_text is None) == (sweep is None):
        raise UsageError("give exactly one of --lambda or --sweep")
    calc = GradedCalculator(rs, table=partition.load_table(rs, cache_dir))
    if lam_text is not None:
        lams = [parse_weight(lam_text, rs.rank)]
    else:
        lams = list(calc.sweep_domain(sweep))

    name = PROFILE[variety]
    results = list(zip(lams, calc.series(name, lams)))
    calc.table.persist()

    entries = []
    for lam, series in results:
        check_value = freudenthal_totals(rs, lam)[name]
        if check:
            check_total(name, lam, sum(series.values()), check_value)
        if max_degree is not None:
            series = {n: v for n, v in series.items() if n <= max_degree}
        total = sum(series.values())
        entries.append({
            "lambda": list(lam),
            "degrees": [[n, v] for n, v in sorted(series.items())],
            "total": total,
            "check": check_value,
        })

    column = CHECK_COLUMN[name]
    emit(fmt, {"command": "graded", "family": family, "rank": rank,
               "variety": variety, "k": calc.k,
               "degree_convention": DEGREE_CONVENTION, "check_column": column,
               "entries": entries},
         chain([("lambda", "degree", "mult")],
               ((csv_weight(e["lambda"]), n, v) for e in entries for n, v in e["degrees"])),
         chain([f"{variety} graded multiplicities for {family}_{rank} "
                f"(k={calc.k}; {DEGREE_CONVENTION})",
                f"{'lambda':<14} {'degrees n:mult':<40} {'total':>6} {column:>14}"],
               (f"{fmt_weight(e['lambda']):<14} "
                f"{' '.join(f'{n}:{v}' for n, v in e['degrees']) or '-':<40} "
                f"{e['total']:>6} {e['check']:>14}" for e in entries)))


@cli.command(
    FAMILY,
    RANK,
    Option("--kind", required=True, choices=KIND_ROWS),
    Option("--sweep", type=count, default=1,
           help="All dominant weights dominance-below SWEEP * highest root "
                "(default: %(default)s)."),
    Option("--max-i", type=count, default=6,
           help="Largest cohomological degree reported (default: %(default)s)."),
    Option("--check", action="store_true",
           help="Re-verify the totals of the full d and t series of every "
                "weight against the weight-multiplicity identities."),
    CACHE_DIR,
    FORMAT,
)
def cohomology(family, rank, kind, sweep, max_i, check, cache_dir, fmt):
    """Cohomology tables per module kind: dominant-weight multiplicities
    in each cohomological degree, assembled from the graded data."""
    rs = rootsys.build(family, rank)
    calc = GradedCalculator(rs, table=partition.load_table(rs, cache_dir))
    # Every kind's rows are digits of d and a (so of d and t = d - a):
    # --check compares the totals of the full d and t series, whatever
    # --max-i shows of them, read from the rows' own batch.
    parts, lams = KIND_ROWS[kind], list(calc.sweep_domain(sweep))
    names = {name for _, name in parts} | set("dt" if check else "")
    profiles = calc.profiles(lams, names)
    calc.table.persist()
    rows = {i: {} for i in range(max_i + 1)}
    for lam, profile in zip(lams, profiles):
        if check:
            for name, total in freudenthal_totals(rs, lam).items():
                check_total(name, lam, sum(profile[name].values()), total)
        for offset, name in parts:  # digit n into row 2n + offset
            for n, v in profile[name].items():
                if 0 <= 2 * n + offset <= max_i:
                    row = rows[2 * n + offset]
                    row[lam] = row.get(lam, 0) + v

    rows = {i: sorted(row.items()) for i, row in rows.items()}
    emit(fmt, {"command": "cohomology", "parity_ok": True, "family": family,
               "rank": rank, "kind": kind, "k": calc.k,
               "degree_convention": DEGREE_CONVENTION,
               "rows": [{"i": i, "entries": [{"lambda": list(lam), "mult": m}
                                             for lam, m in row]}
                        for i, row in rows.items()]},
         chain([("i", "lambda", "mult")],
               ((i, csv_weight(lam), m) for i, row in rows.items() for lam, m in row)),
         chain([f"cohomology of kind '{kind}' for {family}_{rank} "
                f"(k={calc.k}; sweep {sweep}; {DEGREE_CONVENTION})"],
               (f"H^{i:<3} {'  '.join(f'L{fmt_weight(l)}:{m}' for l, m in row) or 0}"
                for i, row in rows.items()),
               ["parity vanishing: OK"]))


@cli.command(
    Option("--check", action="store_true",
           help="Re-verify each of the three weight multiplicities of every "
                "entry against Kostant's alternating Weyl sum."),
    FORMAT,
    name="tilting-example",
)
def tilting_example(check, fmt):
    """The A_2 tilting module whose cohomology mixes parities.

    Sweeps dominant weights dominance-below 3*omega_1 + 3*omega_2 and
    prints the signed multiplicity of each L(lambda) in the Euler
    characteristic; a negative entry is exactly a parity-vanishing
    failure.
    """
    rs = rootsys.build("A", 2)
    table = partition.PartitionTable(rs)
    # The Euler multiplicity of L(lam) is m_lam(3 omega_2) + m_lam(0)
    # - 2 m_lam(omega_1 + omega_2).
    mus, coeffs = [(0, 3), (0, 0), (1, 1)], [1, 1, -2]
    entries, negatives = [], []
    for lam in rs.dominant_below((3, 3)):
        value = sum(c * m for c, m in zip(coeffs, weight_mults(rs, lam, mus, check, table)))
        entries.append({"lambda": list(lam), "euler_mult": value})
        if value < 0:
            negatives.append(lam)

    emit(fmt, {"command": "tilting-example", "family": "A", "rank": 2,
               "entries": entries, "parity_vanishing_fails": bool(negatives)},
         chain([("lambda", "euler_mult")],
               ((csv_weight(e["lambda"]), e["euler_mult"]) for e in entries)),
         chain(["Euler multiplicities for the A_2 tilting module "
                "with highest weight 3*omega_2 (untwisted)"],
               (f"L{fmt_weight(e['lambda']):<10} {e['euler_mult']:>3}"
                + ("  <- sign change" if e["euler_mult"] < 0 else "") for e in entries),
               [f"parity vanishing FAILS: negative multiplicity at "
                f"{', '.join(map(fmt_weight, negatives))}"] if negatives else []))


@cli.command(
    FAMILY,
    RANK,
    Option("--lambda", dest="lam_text", required=True, metavar="WEIGHT"),
    Option("--mu", dest="mu_text", required=True, metavar="WEIGHT"),
    Option("--check", action="store_true",
           help="Re-verify Freudenthal's value against Kostant's alternating sum."),
    FORMAT,
)
def mult(family, rank, lam_text, mu_text, check, fmt):
    """Multiplicity of the weight mu in the irreducible module L(lambda)."""
    rs = rootsys.build(family, rank)
    lam = parse_weight(lam_text, rs.rank)
    mu = parse_weight(mu_text, rs.rank)
    [value] = weight_mults(rs, lam, [mu], check)
    emit(fmt, {"command": "mult", "family": family, "rank": rank,
               "lambda": list(lam), "mu": list(mu), "mult": value,
               "algorithms": ["freudenthal", "kostant"] if check else ["freudenthal"]},
         [("lambda", "mu", "mult"), (csv_weight(lam), csv_weight(mu), value)],
         [f"m_{fmt_weight(lam)}{fmt_weight(mu)} = {value}"])


@cli.command(
    FAMILY,
    RANK,
    Option("--variety", required=True, choices=PROFILE),
    Option("--max-degree", type=count, default=6,
           help="Largest degree reported (default: %(default)s)."),
    Option("--check", action="store_true",
           help="Re-verify against the nilcone closed form from the exponents "
                "(every degree; for subregular, the degrees up to k, less "
                "dim L(theta_s) in degree k)."),
    FORMAT,
)
def hilbert(family, rank, variety, max_degree, check, fmt):
    """Hilbert series coefficients (graded dimensions) of the chosen ring."""
    rs = rootsys.build(family, rank)
    calc, name = GradedCalculator(rs), PROFILE[variety]
    coeffs = calc.hilbert_series(name, max_degree)
    if check:
        check_hilbert(rs, name, calc.k, coeffs)
    emit(fmt, {"command": "hilbert", "family": family, "rank": rank,
               "variety": variety, "coefficients": coeffs},
         chain([("degree", "dimension")], enumerate(coeffs)),
         [f"{variety} Hilbert coefficients for {family}_{rank}: "
          + " ".join(str(c) for c in coeffs)])


@cli.command(FAMILY, RANK)
def rootsystem(family, rank):
    """Root system datum in the documented JSON schema."""
    import json

    rs = rootsys.build(family, rank)
    print(json.dumps(rs.to_json_dict(), sort_keys=True))


cache = cli.group("cache", "List or clear the on-disk partition caches.")


def cache_directory(cache_dir) -> Path | None:
    """The directory a 'cache' subcommand works on; None, said on stdout,
    when there is no directory at that path."""
    if cache_dir is None:
        raise UsageError("give --cache-dir or set NILCONE_CACHE_DIR")
    directory = Path(cache_dir)
    if not directory.is_dir():
        print(f"no cache directory at {directory}")
        return None
    return directory


@cache.command(CACHE_DIR, name="list")
def cache_list(cache_dir):
    """List the partition cache files and their headers."""
    directory = cache_directory(cache_dir)
    if directory is None:
        return
    files = partition.cache_files(directory)
    if not files:
        print(f"no cache files in {directory}")
    for f in files:
        print(partition.cache_summary(f))


@cache.command(CACHE_DIR, name="clear")
def cache_clear(cache_dir):
    """Remove the partition cache files."""
    directory = cache_directory(cache_dir)
    if directory is None:
        return
    removed = 0
    for f in partition.cache_files(directory):
        if not f.is_file():
            report(f"warning: skipping {f}: not a regular file")
            continue
        f.unlink()
        removed += 1
    print(f"removed {removed} cache file(s) from {directory}")


def main(argv=None) -> None:
    """Run the command that argv (by default sys.argv[1:]) names, in this
    process; the process entry point is ``run``.  A usage error exits 2
    under the usage line of the command or group it was found in; a
    package error exits with its documented code."""
    args = sys.argv[1:] if argv is None else list(argv)
    node, unknown = cli, []
    try:
        while isinstance(node, Group):
            # The command is the first argument not starting with '-'; the
            # options before it are the group's or unknown.
            for i, arg in enumerate(args):
                if arg == "--help":
                    print(node.help())
                    return
                if arg == "--version" and VERSION in node.options:
                    print(f"nilcone, version {__version__}")
                    return
                if not arg.startswith("-"):
                    break
            else:
                raise UsageError("the following arguments are required: COMMAND")
            name = node.choice.read(arg)
            node, unknown, args = node.commands[name], unknown + args[:i], args[i + 1:]
        kwargs = node.parse(args, unknown)
        if kwargs is None:
            print(node.help())
            return
        if "cache_dir" in kwargs and kwargs["cache_dir"] is None:
            kwargs["cache_dir"] = os.environ.get("NILCONE_CACHE_DIR") or None
        node.callback(**kwargs)
    except UsageError as exc:
        report(node.usage(), f"{node.prog}: error: {exc}")
        sys.exit(EXIT_USAGE)
    except NilconeError as exc:
        report(f"error: {exc}")
        sys.exit(exit_code_for(exc))


def run() -> None:
    """Process entry point (``python -m nilcone.cli`` and the ``nilcone``
    script): ``main()``, then stdout and stderr flushed, then the end of
    the process with ``os._exit(0)``.  That skips the interpreter's
    finalization, a last cyclic GC and module teardown that no command
    needs, about 7 ms of every command.

    The fast exit relies on a successful command leaving nothing that
    the normal exit would finish:
    - no open write handle (``PartitionTable.save`` closes its file and
      renames it before it returns);
    - no ``atexit`` hook;
    - no thread.
    Anything that breaks one of these must end through the normal exit.

    A closed pipe on stdout ends the process with EXIT_OUTPUT and one
    line on stderr, whatever the size of the output: a print raises
    BrokenPipeError once the output passes the buffer's 8192 bytes, and
    the flush here for less.  Python's own exit would not do: it reports
    a failed flush with status 120 only while the buffer still holds the
    output, and after a failed flush of 4097 to 8191 bytes it is empty,
    so the process would exit 0.  Everything else takes the normal exit,
    so its status and stderr stay Python's own: a SystemExit or other
    exception from ``main`` (usage error 2, violation 4, a traceback), or
    from a flush that fails otherwise, as on a full device.  A stream
    that is None, as when the process started with that descriptor
    closed, is skipped."""
    try:
        main()
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except BrokenPipeError as exc:
        report(f"error: cannot write the output: {exc}")
        os._exit(EXIT_OUTPUT)
    os._exit(0)


if __name__ == "__main__":
    run()
