"""Graded multiplicities for the nilpotent cone and subregular orbit closure.

Everything here is one alternating Weyl sum of the graded partition
polynomials, taken by ``PartitionTable.packed_sums`` (or, for
``hilbert_series``, by ``fold``): Lusztig's q-analogue of Kostant's
formula E(lam, mu; q) = sum_w (-1)^w P(w.lam - mu; q), with the
contributing w found by the pruned dot-orbit walk of ``weyl.dot_terms``.
Writing E(lam, mu, n) for its q^n coefficient:

* nilcone multiplicity   d_n(lam) = E(lam, 0, n)        (Hesselink)
* induced-wall odd part  a_i(lam) = E(lam, theta, i - k) (Andersen-Jantzen)
* subregular multiplicity t_n(lam) = d_n(lam) - a_n(lam)

with theta the dominant short root and k the shift constant
(2k - 1 = length of the reflection in theta).  The positivity of t_n is a
theorem, so a negative value is reported as a hard error, never clamped.

Degrees are polynomial degrees throughout, and this module speaks only
of the profiles d, a and t.  Varieties, module kinds and cohomological
degree 2n (even parts) or 2n - 1 (odd parts) are presentation, and
belong to the command line, which maps each to the profiles it reads.
The queries return plain values: ``profiles(lams, names)`` is a list of
{name: {n: c_n}}, the digits of each profile named at each lam;
``series(name, lams)`` the list of {n: c_n} of one name;
``hilbert_series(name, m)`` a list, for d or t; one degree of a profile
is ``.get(n, 0)``.  Every query raises ValueError for a name it does
not know.

Every query but ``hilbert_series`` reads its profiles from
``GradedCalculator.profiles``: it gathers the dot-orbit terms of every
weight asked for (a single weight, or a whole domain) and hands them to
the partition table as one batch, which takes the width of its tallest
argument (for a domain, the top weight's own), so the DP fills all of
their values in one pass, and every value lands in the calculator's
table, which a cache file persists.  ``hilbert_series`` is the one
query off ``packed_sums``: it prints the degrees n <= max_degree alone,
and ``fold`` gives their digits for every weight at once, from the few
partition values those degrees reach, with no table and no cache.  The
weights it folds are its domain: no weight it leaves out has a nonzero
digit, so ``hilbert_series`` keeps the folded weights below m *
theta_long rather than enumerate them.  Each profile stays packed as one
int, and ``GradedCalculator._checked`` checks every profile of both
paths, weight by weight, in order, with one mask each;
``_Digits.digits`` reads a checked one.  The rest of the Hilbert series
works on columns, one linear form at a time over every weight
(``rootsys.pair_columns``): ``RootSystem.depths``, the domain test and
order ``sweep_domain`` uses too, tests all folded weights at once, and,
after every profile has passed, ``weyl_dims`` takes the dimensions of
the weights kept in one batch, which ``_Digits.weighted_digits`` sums
with their digits, a few fields at a time.
"""

from . import partition
from .errors import InternalInconsistencyError, PositivityViolationError
from .multiplicity import weyl_dims
from .rootsys import RootSystem, RootVector, Weight, vadd, vscale, vsub
from .weyl import dot_terms, shift_constant


class GradedCalculator:
    """Bundles a root system with its partition table: the one given,
    or a new one of its own.

    Every query is read off the checked profiles E(lam, mu; q) of
    ``profiles``, or, for ``hilbert_series``, of ``fold``.  All methods
    are pure given the immutable inputs; one calculator can serve any
    number of queries and threads, and its table keeps every value they
    compute for the next query and for the cache file.
    """

    def __init__(
        self,
        rs: RootSystem,
        *,
        table: partition.PartitionTable | None = None,
    ):
        self.rs = rs
        self.table = table if table is not None else partition.PartitionTable(rs)
        self.k = shift_constant(rs)

    # -- the one checked kernel ----------------------------------------------

    def profiles(self, lams, names) -> list[dict[str, dict[int, int]]]:
        """[{name: {n: digit n of profile name at lam}} for lam in lams],
        for exactly the names given, each d, a or t (``_checked``): d_n,
        a_i with the shift by k applied (a_i = 0 for i < k), or t_n = d_n
        - a_n, guaranteed nonnegative; each dict lists them in that order.

        The dot-orbit terms of every (lam, mu) the names need
        (``_sources``) go to ``packed_sums`` as one batch before any DP
        work, and the batch is checked weight by weight, in order: every
        profile read, so t too once d and a are.  An empty or unknown name
        raises ValueError, and the first lam that is not dominant
        ``NonDominantWeightError``, before anything is computed."""
        names = set(names)
        unknown = names - {"d", "a", "t"}
        if unknown or not names:
            name = min(unknown, default="")
            raise ValueError(f"{name!r} is not a profile name: d, a or t")
        rs, lams, mus = self.rs, list(lams), self._sources(names)
        packing, totals = self.table.packed_sums(
            [dot_terms(rs, lam, mu) for lam in lams for mu in mus.values()])
        values = iter(totals)
        rows = zip(lams, zip(*[values] * len(mus)))  # len(mus) values a lam
        checked = self._checked(rows, mus, packing, packing.height + self.k + 1)
        return [{name: packing.digits(profiles[name])
                 for name in "dat" if name in names} for _, profiles in checked]

    def _sources(self, names) -> dict[str, Weight]:
        """{name: mu} of each E(lam, mu; q) the names need, d then a."""
        zero, theta_s = (0,) * self.rs.rank, self.rs.theta_short
        return {name: mu for name, mu in [("d", zero), ("a", theta_s)]
                if name in names or "t" in names}

    def _checked(self, rows, mus, digits, fields):
        """Yield (lam, {name: profile}) for each (lam, values) of rows, in
        order, with every profile checked digit by digit.

        values holds E(lam, mu; 2^B) for each {name: mu} of mus, exact at
        least modulo 2^(B fields).  The profiles, in this order, each cut
        to `fields` fields:

          d  D = E(lam, 0; 2^B)              digit n is d_n(lam)
          a  A = q^k E(lam, theta_s; 2^B)    digit i is a_i(lam)
          t  T = D - A, when both are read   digit n is t_n(lam)

        One mask (``_Digits.nonnegative``) checks each profile in turn;
        once D and A pass, every digit of T lies in [-M, M], so its mask
        is sound too.  The masks and balanced reads see the `fields`
        fields alone, so a residue is checked exactly.  A lam that fails
        raises the error for the lowest negative degree of its first
        failing profile before any later lam is read.  A profile that
        passes is a plain base-2^B number, which ``_Digits.digits`` reads.
        """
        bits, cut = digits.bits, (1 << (digits.bits * fields)) - 1
        for lam, values in rows:
            profiles = {name: (value << bits * self.k if name == "a" else value) & cut
                        for name, value in zip(mus, values)}
            if len(profiles) == 2:
                profiles["t"] = profiles["d"] - profiles["a"]
            for name, value in profiles.items():
                if not digits.nonnegative(value, fields):
                    raise _negative(name, lam, digits.balanced(value, fields - 1))
            yield lam, profiles

    def series(self, name: str, lams) -> list[dict[int, int]]:
        """[profile name at lam for lam in lams]: ``profiles`` of the one
        name, which raises ValueError for any but d, a or t."""
        return [p[name] for p in self.profiles(lams, [name])]

    # -- domains and the Hilbert series ------------------------------------

    def sweep_domain(self, sweep: int) -> dict[Weight, RootVector]:
        """Dominant weights dominance-below sweep * theta_long, each with
        the root coordinates of sweep * theta_long minus it, in domain
        order (``RootSystem.dominant_below``)."""
        return self.rs.dominant_below(vscale(sweep, self.rs.theta_long))

    def hilbert_series(self, name: str, max_degree: int) -> list[int]:
        """Dimension of each graded piece of the coordinate ring whose
        profile is name: d for the nilcone, t for the subregular closure;
        any other name raises ValueError.

        Coefficient n sums mult_n(lam) * dim L(lam) over dominant lam; as
        d_n(lam) = 0 unless lam <= n * theta_long, the lam below m *
        theta_long, m = max_degree, cover every degree.  Their profiles
        come from ``fold``, not from the table.  The folded lam whose m *
        theta_long - lam has nonnegative integer root coordinates are in
        that domain, and ``RootSystem.depths`` gives them in
        ``sweep_domain``'s order, in which ``_checked`` checks them; every
        other lam of the domain has a zero profile, which passes.  The
        dimensions of the lam with a nonzero profile come in one
        ``weyl_dims`` batch once all have passed, and
        ``_Digits.weighted_digits`` sums them with their digits.  A folded
        lam outside the domain whose profile, A shifted and cut, is not 0
        is an internal inconsistency.
        """
        if name not in ("d", "t"):
            raise ValueError(f"{name!r} is not a coordinate ring's profile: d or t")
        m, mus = max_degree, self._sources(name)
        digits, folded = fold(self.rs, m, mus.values())
        domain = self.rs.depths(vscale(m, self.rs.theta_long), set().union(*folded))
        rows = ((lam, [profiles.pop(lam, 0) for profiles in folded]) for lam in domain)
        kept = {lam: profiles[name]
                for lam, profiles in self._checked(rows, mus, digits, m + 1)
                if profiles[name]}
        coeffs = digits.weighted_digits(weyl_dims(self.rs, kept), kept.values(), m + 1)
        # What is left is outside the domain (mus is [0] or [0, theta_s]):
        # the digits D keeps, and A keeps once shifted and cut, must be 0.
        low = (1 << (digits.bits * (m + 1))) - 1
        for name, keep, rest in zip("da", [low, low >> digits.bits * self.k], folded):
            stray = sorted(lam for lam, value in rest.items() if value & keep)
            if stray:
                raise InternalInconsistencyError(
                    f"{name} profile of {stray[0]} is nonzero outside sweep_domain({m})")
        return coeffs


def fold(rs: RootSystem, m: int, mus) -> tuple[partition._Digits, list[dict]]:
    """(digits, [{lam: E(lam, mu; 2^B) mod 2^(B (m + 1))}, one per mu]),
    every lam with a nonzero value, from ``partition.low_degrees``.

    In E(lam, mu; q) = sum_w (-1)^w P(w.lam - mu; q), w.lam - mu = x
    exactly when w(lam + rho) = x + mu + rho, and lam + rho is regular.
    So each x whose x + mu + rho is off every wall adds its value, with
    the sign of w, to the one lam with lam + rho dominant in that orbit,
    and the others add nothing: the Racah-Speiser (Brauer-Klimyk) fold of
    the q-partition function.  Each point nu = x + mu + rho, read once
    per mu from the key columns, walks into the dominant chamber by
    s_i(nu) = nu - nu_i alpha_i at its least coordinate while that is
    negative, and is dropped at the first 0 (a wall).
    """
    digits, keys, values = partition.low_degrees(rs, m)
    # Row i of the Cartan matrix is alpha_i; its nonzero entries move nu.
    rows = [[(j, a) for j, a in enumerate(row) if a] for row in rs.cartan]
    folded = []
    for mu in mus:
        columns = keys.columns(values, vadd(mu, rs.rho))
        profile: dict[Weight, int] = {}
        for nu, value in zip(zip(*columns), values.values()):
            nu = list(nu)
            while 0 not in nu:
                c = min(nu)
                if c > 0:
                    top = tuple(nu)
                    profile[top] = profile.get(top, 0) + value
                    break
                for j, a in rows[nu.index(c)]:
                    nu[j] -= c * a
                value = -value
        del columns  # before the next mu's are read
        folded.append({vsub(top, rs.rho): v for top, v in profile.items() if v})
    return digits, folded


def _negative(name, lam, digits) -> Exception:
    """The error for the lowest negative digit of a failing profile, from
    its balanced digits: d or a, an internal inconsistency; t, a
    positivity violation."""
    n, v = next((n, v) for n, v in digits.items() if v < 0)
    if name == "t":
        return PositivityViolationError(tuple(lam), n, v)
    kind = "nilcone" if name == "d" else "induced-wall"
    return InternalInconsistencyError(
        f"{kind} multiplicity {name}_{n}({tuple(lam)}) = {v} < 0")

