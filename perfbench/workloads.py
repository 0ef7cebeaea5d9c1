"""The benchmark's workloads: seeded inputs, jobs, exact oracles and replays.

A job is one unit of work whose output is checked.  Each workload turns
the run seed into a pool of job inputs before the first timed job, runs
a job through public matchstat calls (each wrapped in a span when the
run is traced), checks the output against an exact oracle, and, when
traced, replays the job's inner steps through the public functions of
the layer below so that layer gets per-call times too.
"""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys

import matchstat as ms

#: Job sizes, recorded with every result.
CLT_N = 1000
CLT_DRAWS = 400
CLT_REPLAY_DRAWS = 10
#: one job per band in every round: three small bands, one large
EXACT_BANDS = ((100, 126), (127, 159), (160, 200), (330, 360))
EXACT_S = 1.0
SMALL_N, BIG_N = 50, 1000
BIG_EVERY = 4
CLI_MATCHING_N = 50
CLI_TABLEAU_COUNT = 10
ENUM_N = 6

_STRATA = 64
# Input pools hold about three times the jobs one run completes today.
_CLT_JOBS = 1024
_EXACT_JOBS = 512
_BIJECTION_JOBS = 256
_CLI_ROUNDS = 64


def rng(seed: int, *key) -> random.Random:
    """An independent stream for (seed, key); string seeding is stable across runs."""
    return random.Random(repr((seed, *key)))


def shuffle_pair(n: int, r: random.Random) -> ms.Matching:
    """A uniform matching of 2n letters: shuffle them and pair neighbours."""
    letters = list(range(1, 2 * n + 1))
    r.shuffle(letters)
    return ms.from_pairs(zip(letters[::2], letters[1::2]))


def band_ns(seed: int, band: tuple[int, int], count: int) -> list[int]:
    """``count`` values of n from ``band``, spread evenly over log n from the first on.

    The log range is cut into _STRATA slices visited in van der Corput
    (bit-reversed) order, so any prefix of 2^j values holds one in each of
    2^j equal parts of the band; the seed places each n inside its slice.
    A run cut off by its time limit thus sees the same mix of sizes
    whatever the seed.  No n repeats until every n of the band is used.
    """
    lo, hi = band
    r = rng(seed, "exact", band)
    bits = _STRATA.bit_length() - 1
    free: set[int] = set()
    out: list[int] = []
    for k in range(count):
        if not free:
            free = set(range(lo, hi + 1))
        slot = int(format(k % _STRATA, f"0{bits}b")[::-1], 2)
        target = lo * (hi / lo) ** ((slot + r.random()) / _STRATA)
        n = min(free, key=lambda m: (abs(m - target), m))
        free.remove(n)
        out.append(n)
    return out


class Workload:
    """One set of inputs; subclasses define the job, its oracle and its replay."""

    name = ""
    layer = ""  # the layer a failure is charged to when no span says otherwise
    round = 1  # jobs per repeating unit of the input mix
    unit = ""

    def inputs(self, seed: int) -> list:
        raise NotImplementedError

    def cls(self, inp) -> str | None:
        return None

    def run(self, inp, tr):
        raise NotImplementedError

    def check(self, inp, out) -> list[str]:
        """Layers whose output failed the oracle; empty when the job is correct."""
        raise NotImplementedError

    def replay(self, inp, out, tr) -> None:
        pass


class CltWorkload(Workload):
    """clt_experiment at n = 1000: the sampler does almost all the work."""

    name = "clt-n1000"
    layer = "distribution"
    unit = f"clt_experiment(n={CLT_N}, samples={CLT_DRAWS}, threads=1)"

    def inputs(self, seed):
        r = rng(seed, self.name)
        return [r.getrandbits(63) for _ in range(_CLT_JOBS)]

    def run(self, job_seed, tr):
        return tr.call(
            "distribution.clt_experiment",
            ms.clt_experiment,
            CLT_N,
            CLT_DRAWS,
            job_seed,
            threads=1,
        )

    def check(self, job_seed, rep):
        # D = descent_count has mean n and variance var_d exactly, so W has
        # mean 0 and variance var_d / n; allow 5 standard errors at B draws
        var_w = float(ms.closed_form_moments(CLT_N).var_d) / CLT_N
        se_mean = math.sqrt(var_w / CLT_DRAWS)
        se_var = var_w * math.sqrt(2.0 / (CLT_DRAWS - 1))
        ok = (
            rep.num_samples == CLT_DRAWS
            and abs(rep.sample_mean_W) <= 5 * se_mean
            and abs(rep.sample_var_W - var_w) <= 5 * se_var
            and 0.0 <= rep.ks_distance <= 1.0
        )
        return [] if ok else ["distribution"]

    def replay(self, job_seed, rep, tr):
        # re-draw the job's first streams through the public sampler
        for stream in range(CLT_REPLAY_DRAWS):
            m = tr.call("matchings.sample_uniform", ms.sample_uniform, CLT_N, job_seed, stream)
            # the validation sample_uniform adds and the clt path skips
            tr.call("matchings.Matching", ms.Matching, m.partner)
            tr.call("matchings.descent_stats", ms.descent_stats, m)
            tr.call("matchings.from_pairs", ms.from_pairs, m.pairs())


class ExactWorkload(Workload):
    """The exact law at one n per job: 3 in 4 jobs small n, 1 in 4 large n."""

    name = "exact-cold"
    layer = "distribution"
    round = len(EXACT_BANDS)
    unit = f"polynomial, law, KS, MGF at +-{EXACT_S} and series factor at one n"

    def inputs(self, seed):
        # An n comes back only after every other n of its band, 100 jobs or
        # more later, long after the 16-entry lru_cache has dropped it.
        rounds = _EXACT_JOBS // self.round
        bands = [band_ns(seed, band, rounds) for band in EXACT_BANDS]
        return [n for ns in zip(*bands) for n in ns]

    def run(self, n, tr):
        return (
            tr.call("distribution.polynomial_by_gf", ms.polynomial_by_gf, n),
            tr.call("distribution.exact_distribution", ms.exact_distribution, n),
            tr.call("distribution.exact_ks_distance", ms.exact_ks_distance, n),
            tr.call("distribution.mgf_Wn", ms.mgf_Wn, n, EXACT_S),
            tr.call("distribution.mgf_Wn", ms.mgf_Wn, n, -EXACT_S),
            tr.call("distribution.mgf_series_factor", ms.mgf_series_factor, n, EXACT_S),
        )

    def check(self, n, out):
        poly, dist, ks, plus, minus, series = out
        c = poly.coeffs
        mean = sum(m * p for m, p in dist)
        second = sum(m * m * p for m, p in dist)
        ok = (
            sum(c) == ms.double_factorial(2 * n - 1)
            and all(c[m] == c[2 * n - m] for m in range(1, 2 * n))
            and sum(p for _, p in dist) == 1
            and mean == n
            and second - mean * mean == ms.closed_form_moments(n).var_d
            and abs(plus - minus) <= 1e-12
            and series >= math.exp(-EXACT_S / math.sqrt(n)) - 1e-9
            and 0.0 <= ks <= 1.0
        )
        return [] if ok else ["distribution"]


class BijectionWorkload(Workload):
    """The bijection both ways on one matching: 3 in 4 at 2n = 100, 1 in 4 at 2n = 2000."""

    name = "bijection-mix"
    layer = "bijection"
    round = BIG_EVERY
    unit = "forward, inverse, conjugate twice, classify every position"

    def inputs(self, seed):
        r = rng(seed, self.name)
        return [
            shuffle_pair(BIG_N if k % BIG_EVERY == BIG_EVERY - 1 else SMALL_N, r)
            for k in range(_BIJECTION_JOBS)
        ]

    def cls(self, m):
        return f"2n{m.size}"

    def run(self, m, tr):
        osc, _ = tr.call("bijection.matching_to_oscillating", ms.matching_to_oscillating, m)
        back = tr.call("bijection.oscillating_to_matching", ms.oscillating_to_matching, osc)
        conj = tr.call("bijection.conjugate_matching", ms.conjugate_matching, m)
        twice = tr.call("bijection.conjugate_matching", ms.conjugate_matching, conj)
        cases = [
            tr.call("bijection.classify_position", ms.classify_position, osc, i)
            for i in range(1, m.size)
        ]
        return osc, back, conj, twice, cases

    def check(self, m, out):
        osc, back, conj, twice, cases = out
        st, st_conj = ms.descent_stats(m), ms.descent_stats(conj)
        n = m.n
        descents = {i for i, case in enumerate(cases, start=1) if case in ms.DESCENT_CASES}
        ok = (
            back == m
            and twice == m
            and st.descent_number + st_conj.descent_number == 2 * (n + 1)
            and st.major_index + st_conj.major_index == 2 * n * n
            and descents == set(st.des_set)
        )
        return [] if ok else ["bijection"]

    def replay(self, m, out, tr):
        """Re-run the tableau steps of conjugate_matching(m) one public call at a time."""
        osc = out[0]
        tr.call("bijection.OscillatingTableau", ms.OscillatingTableau, osc.shapes)
        with tr.span("bijection.conjugate_matching.replay"):
            tab = ms.Tableau()
            shapes = [tab.shape]
            working = []
            for i, j in enumerate(m.partner, start=1):
                if i < j:
                    tab, _ = tr.call("tableaux.row_insert", ms.row_insert, tab, j)
                else:
                    tab, _ = tr.call("tableaux.delete_min_and_slide", ms.delete_min_and_slide, tab)
                shapes.append(tab.shape)
                working.append(tab.rows)
            conj = [
                tr.call("tableaux.conjugate_partition", ms.conjugate_partition, p)
                for p in shapes
            ]
            # both walks are validated once, box by box
            for walk in (shapes, conj):
                for a, b in zip(walk, walk[1:]):
                    pair = (a, b) if b.size > a.size else (b, a)
                    tr.call("tableaux.added_box", ms.added_box, *pair)
            tab = ms.Tableau()
            for i in range(len(conj) - 1, 0, -1):
                before, after = conj[i - 1], conj[i]
                if after.size > before.size:
                    box = tr.call("tableaux.added_box", ms.added_box, before, after)
                    tab, _ = tr.call("tableaux.reverse_row_insert", ms.reverse_row_insert, tab, box)
                else:
                    box = tr.call("tableaux.added_box", ms.added_box, after, before)
                    tab = tr.call(
                        "tableaux.reverse_slide_and_place_min",
                        ms.reverse_slide_and_place_min,
                        tab,
                        box,
                        i,
                    )
        # the constructor's re-validation, timed apart: every call above already pays it
        for rows in working:
            tr.call("tableaux.Tableau", ms.Tableau, rows)


class CliWorkload(Workload):
    """One matchstat command per job, in a fresh interpreter."""

    name = "cli-session"
    layer = "cli"
    round = 6
    unit = (
        f"one of: stats --n {ENUM_N}; poly --n {ENUM_N}; conjugate 2n={2 * CLI_MATCHING_N}; "
        f"tableau --random {CLI_TABLEAU_COUNT} --n {CLI_MATCHING_N}; mgf --n 10,100; "
        "lemma41 --n 25,100,400"
    )

    def inputs(self, seed):
        script = []
        for k in range(_CLI_ROUNDS):
            r = rng(seed, self.name, k)
            commands = [
                ["stats", "--n", str(ENUM_N), "--format", "json"],
                ["poly", "--n", str(ENUM_N), "--format", "json"],
                ["conjugate", "--matching", str(shuffle_pair(CLI_MATCHING_N, r)), "--format", "json"],
                # prints text even with --format json, so it is checked as text
                ["tableau", "--random", str(CLI_TABLEAU_COUNT), "--n", str(CLI_MATCHING_N),
                 "--seed", str(r.getrandbits(32))],
                ["mgf", "--n", "10,100", "--format", "json"],
                ["lemma41", "--n", "25,100,400", "--format", "json"],
            ]
            r.shuffle(commands)
            script += commands
        return script

    def run(self, argv, tr):
        return tr.call(
            "cli." + argv[0],
            subprocess.run,
            [sys.executable, "-m", "matchstat.cli", *argv],
            capture_output=True,
            text=True,
            timeout=120,
        )

    def check(self, argv, proc):
        if proc.returncode != 0:
            return ["cli"]
        if "json" not in argv:
            return [] if "PASS" in proc.stdout else ["cli"]
        try:
            json.loads(proc.stdout)
        except ValueError:
            return ["cli"]
        return []

    def replay(self, argv, proc, tr):
        tr.call(
            "cli.interpreter_start",
            subprocess.run,
            [sys.executable, "-c", "import matchstat"],
            check=True,
            timeout=120,
        )
        # the enumeration oracles behind stats and poly, in this process
        if argv[0] == "stats":
            tr.call("matchings.brute_force_moments", ms.brute_force_moments, ENUM_N)
        elif argv[0] == "poly":
            tr.call("distribution.polynomial_by_enumeration", ms.polynomial_by_enumeration, ENUM_N)


WORKLOADS = {
    w.name: w for w in (CltWorkload(), ExactWorkload(), BijectionWorkload(), CliWorkload())
}
