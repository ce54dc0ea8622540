"""Batch verification runner with machine-readable reports.

Each suite maps one body of checks to executable certificates at the
configured genus and truncation degree, and each fact is decided once,
exactly: no check draws random input.  So a report depends on the config
alone, apart from the runtime_ms and version fields, which is what the
golden-file regression relies on.  The seed is only recorded.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time
import traceback
from dataclasses import dataclass, field
from math import comb

from . import __version__, intlinalg, surface, torelli
from ._kernel import reduce_terms
from .enveloping import (
    center_in_degree_assoc,
    enveloping_algebra,
    hilbert_dimension,
    lcs_ranks,
)
from .errors import ResourceLimitExceeded
from .nilpotent import (
    GroupWord,
    center_of_quotient,
    equal_in_quotient,
    expand,
    generators,
    graded_rank_certificate,
    group_ring_truncation,
    surface_relator,
    verify_identity_viii,
)
from .symplectic import (
    SymplecticSpace,
    check_cube_cap,
    commutant_dimension,
    contraction_equivariance,
    contraction_matrix,
    johnson_image,
    summand_correspondence_roundtrip,
)

SUITE_NAMES = (
    "lie-center",
    "enveloping",
    "nilpotent",
    "sp-decomposition",
    "johnson-image",
    "torelli-h1",
    "lemma-summand",
    "identity-viii",
    "index-formula",
)


_BRUTE_FORCE_WORD_CAP = 8_000_000  # hilbert-brute-force's (2g)^4 words: 7.3M at genus 26
_JOHNSON_TRIPLE_CAP = 280_840  # C(120, 3): genus 60 is the largest Johnson image built
_IDEAL_PRODUCT_WORD_CAP = 4_000_000  # ideal-reduces-to-zero's product words: 3.0M at genus 50 (9 s, 20 MB), 4.02M at 55


class ConfigError(ValueError):
    """Invalid run configuration."""


class NonDivisibleError(ValueError):
    """The Euler characteristics do not give an integral, positive index."""


def euler_index(chi_sub: int, chi_ambient: int) -> int:
    """Subgroup index forced by multiplicativity of the Euler characteristic.

    A degree-n cover multiplies the characteristic by n, so the index is the
    unique positive integer with index * chi_sub == chi_ambient; anything
    else is an error.
    """
    if chi_sub == 0:
        raise ValueError("zero subgroup characteristic")
    if chi_sub > 0:
        raise ValueError("subgroup Euler characteristic must be negative")
    if chi_ambient % chi_sub != 0:
        raise NonDivisibleError(f"{chi_ambient} is not a multiple of {chi_sub}")
    index = chi_ambient // chi_sub
    if index <= 0:
        raise NonDivisibleError(f"index {index} is not a positive integer")
    return index


@dataclass(frozen=True)
class RunConfig:
    genus: int = 3
    max_degree: int = 4
    suites: tuple[str, ...] = SUITE_NAMES
    report_format: str = "json"
    seed: int = 20240

    def __post_init__(self):
        if not self.suites:
            raise ConfigError("at least one suite is required")
        unknown = [s for s in self.suites if s not in SUITE_NAMES]
        if unknown:
            raise ConfigError(f"unknown suites: {', '.join(unknown)}")
        repeated = sorted({s for s in self.suites if self.suites.count(s) > 1})
        if repeated:
            raise ConfigError(f"repeated suites: {', '.join(repeated)}")
        if self.genus < 2:
            raise ConfigError("genus must be at least 2")
        if self.max_degree < 2:
            raise ConfigError("max degree must be at least 2")
        if self.report_format not in ("json", "text"):
            raise ConfigError(f"unknown report format {self.report_format!r}")

    def to_dict(self) -> dict:
        return {
            "genus": self.genus,
            "max_degree": self.max_degree,
            "suites": list(self.suites),
            "report_format": self.report_format,
            "seed": self.seed,
        }


@dataclass
class CheckResult:
    name: str
    paper_anchor: str
    status: str  # pass | fail | skipped
    expected: object
    actual: object
    runtime_ms: int

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "paper_anchor": self.paper_anchor,
            "status": self.status,
            "expected": _jsonable(self.expected),
            "actual": _jsonable(self.actual),
            "runtime_ms": self.runtime_ms,
        }


@dataclass
class Report:
    config: RunConfig
    version: str
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "version": self.version,
            "checks": [c.to_dict() for c in self.checks],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def to_text(self) -> str:
        lines = [f"surfalg {self.version}  genus={self.config.genus} K={self.config.max_degree}"]
        for c in self.checks:
            lines.append(
                f"[{c.status.upper():7}] {c.name} ({c.paper_anchor}) "
                f"expected={_jsonable(c.expected)!r} actual={_jsonable(c.actual)!r} "
                f"[{c.runtime_ms} ms]"
            )
        tally = {"pass": 0, "fail": 0, "skipped": 0}
        for c in self.checks:
            tally[c.status] += 1
        lines.append(
            f"{tally['pass']} passed, {tally['fail']} failed, {tally['skipped']} skipped"
        )
        return "\n".join(lines)


def _jsonable(value):
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    return str(value)


class _Session:
    """Shared state for one run: config and the lazily built algebra."""

    def __init__(self, config: RunConfig):
        self.config = config
        self._surface = None

    @property
    def surface_algebra(self):
        if self._surface is None:
            self._surface = surface.build(self.config.genus, self.config.max_degree)
        return self._surface


def _run_check(checks: list, name: str, anchor: str, func) -> None:
    start = time.perf_counter()
    try:
        expected, actual = func()
        status = "pass" if _jsonable(expected) == _jsonable(actual) else "fail"
    except ResourceLimitExceeded as exc:
        expected, actual, status = None, f"skipped: {exc}", "skipped"
    except Exception as exc:
        # a broken certificate or any other fault fails this check alone
        print(f"surfalg: check {name} raised", file=sys.stderr)
        traceback.print_exc()
        expected, actual, status = None, f"error: {type(exc).__name__}: {exc}", "fail"
    ms = int((time.perf_counter() - start) * 1000)
    checks.append(CheckResult(name, anchor, status, expected, actual, ms))


# -- suites -------------------------------------------------------------------


def _suite_lie_center(s: _Session) -> list[CheckResult]:
    cfg = s.config
    checks: list[CheckResult] = []

    def ranks():
        return lcs_ranks(cfg.genus, cfg.max_degree), list(s.surface_algebra.ranks())

    def center():
        rep = surface.verify_center_theorem(s.surface_algebra)
        return [0] * (cfg.max_degree - 1), [dim for _, dim in rep.dims_by_degree]

    _run_check(checks, "surface-ranks", "labute-presentation", ranks)
    _run_check(checks, "graded-center-empty", "lcs-center-equality", center)
    return checks


def _suite_enveloping(s: _Session) -> list[CheckResult]:
    cfg = s.config
    g = cfg.genus
    checks: list[CheckResult] = []

    def hilbert():
        words = (2 * g) ** 4
        if words > _BRUTE_FORCE_WORD_CAP:
            raise ResourceLimitExceeded(f"{words} degree-4 words at genus {g} are beyond desk scale")
        lead0, lead1 = enveloping_algebra(g).lead
        expected, actual = [], []
        for d in range(5):
            count = 0
            for w in itertools.product(range(2 * g), repeat=d):
                if not any(w[i] == lead0 and w[i + 1] == lead1 for i in range(d - 1)):
                    count += 1
            expected.append(count)
            actual.append(hilbert_dimension(g, d))
        return expected, actual

    def assoc_center():
        # degree 4 first: it has the largest basis, so when the cap skips the
        # entry no lower degree has been built for nothing
        top = len(center_in_degree_assoc(g, 4))
        dims = [len(center_in_degree_assoc(g, d)) for d in range(1, 4)]
        return [0, 0, 0, 0], dims + [top]

    def ideal_reduces_to_zero():
        # the normal form map is a ring homomorphism exactly when it kills
        # the ideal (omega), which the products u*omega*v of words span.  The
        # nonzero ones are counted in degrees 2 to 4, the range the Hilbert
        # check counts.  The rule's leading word does not overlap itself
        # (certified when the algebra is built), so by Bergman's diamond
        # lemma the same holds in every degree.  The engine builds these
        # products itself, so they go to the rewrite kernel unvalidated, each
        # with a memo of its own: the handle's shared memo would keep every
        # word of every product
        alg = enveloping_algebra(g)
        words = len(alg.relation) * sum((d - 1) * (2 * g) ** (d - 2) for d in range(2, 5))
        if words > _IDEAL_PRODUCT_WORD_CAP:
            raise ResourceLimitExceeded(f"{words} product words at genus {g} are beyond desk scale")
        rule = (*alg.lead, alg.rhs_words, alg.rhs_coeffs)
        actual = []
        for d in range(2, 5):
            splits = (
                (w[:i], w[i:]) for w in itertools.product(range(2 * g), repeat=d - 2) for i in range(d - 1)
            )
            products = ({u + r + v: c for r, c in alg.relation.items()} for u, v in splits)
            actual.append(sum(1 for p in products if reduce_terms(p, *rule, {}, alg.max_len)))
        return [0, 0, 0], actual

    _run_check(checks, "hilbert-brute-force", "enveloping-hilbert-series", hilbert)
    _run_check(checks, "assoc-center-empty", "enveloping-scalar-center", assoc_center)
    _run_check(checks, "ideal-reduces-to-zero", "confluent-rewriting", ideal_reduces_to_zero)
    return checks


def _suite_nilpotent(s: _Session) -> list[CheckResult]:
    cfg = s.config
    g = cfg.genus
    checks: list[CheckResult] = []
    # each entry asks for its largest truncation first, so that its cap skips
    # the entry before any smaller truncation is worked through

    def keystone():
        group_ring_truncation(g, cfg.max_degree)
        results = [expand(surface_relator(g), k).is_one() for k in range(1, cfg.max_degree + 1)]
        return [True] * cfg.max_degree, results

    def homomorphism_universal():
        # the truncated ring is associative (its rule does not overlap
        # itself), so a map on letters extends to a homomorphism of the free
        # group exactly when each letter's image is a unit whose inverse is
        # the image of the inverse letter (the universal property of F_2g).
        # expand divides by a letter to reach x^-1 (`_divide`); the products
        # here multiply by mul_reduce, so the two routes are compared
        def inverted(x, k):
            ex, ex_inv = expand(x, k), expand(x.inverse(), k)
            return (ex * ex_inv).is_one() and (ex_inv * ex).is_one()

        group_ring_truncation(g, cfg.max_degree)
        results = [all(inverted(x, k) for x in generators(g)) for k in range(1, cfg.max_degree + 1)]
        return [True] * cfg.max_degree, results

    def quotient_centers():
        if cfg.max_degree < 3:
            raise ResourceLimitExceeded("no quotient class k with 2 <= k < max degree to test")
        group_ring_truncation(g, cfg.max_degree - 1)
        expected, actual = [], []
        for k in range(2, cfg.max_degree):
            rep = center_of_quotient(g, k)
            expected.append({"class": k, "central_layers": [k]})
            actual.append(
                {
                    "class": k,
                    "central_layers": [v.layer for v in rep.layers if v.centralizes],
                }
            )
        return expected, actual

    def rank_certificates():
        # the closed-form ranks, so this suite never builds the graded algebra
        group_ring_truncation(g, cfg.max_degree - 1)
        ranks = lcs_ranks(g, cfg.max_degree - 1)
        expected, actual = [], []
        for k in range(1, cfg.max_degree):
            expected.append({"level": k, "rank": ranks[k - 1]})
            actual.append({"level": k, "rank": graded_rank_certificate(g, k).rank})
        return expected, actual

    def abelianization_sanity():
        u, v = GroupWord(g, (1, 2)), GroupWord(g, (2, 1))
        return [True, False], [equal_in_quotient(u, v, 1), equal_in_quotient(u, v, 2)]

    _run_check(checks, "relator-keystone", "magnus-relator-vanishing", keystone)
    _run_check(checks, "expand-homomorphism-universal", "magnus-homomorphism", homomorphism_universal)
    _run_check(checks, "quotient-center-layers", "nilpotent-quotient-center", quotient_centers)
    _run_check(checks, "expansion-rank-certificates", "graded-separation", rank_certificates)
    _run_check(checks, "abelianization-sanity", "magnus-degree-one", abelianization_sanity)
    return checks


def _suite_sp_decomposition(s: _Session) -> list[CheckResult]:
    g = s.config.genus
    checks: list[CheckResult] = []
    space = SymplecticSpace(g)

    def dims():
        c = contraction_matrix(space)
        return (
            {"cube_dim": comb(2 * g, 3), "kernel_dim": comb(2 * g, 3) - 2 * g},
            {"cube_dim": c.cols, "kernel_dim": intlinalg.kernel(c).rows},
        )

    def equivariance():
        generators, intertwined = contraction_equivariance(g)
        return {"generators": generators}, {"generators": intertwined}

    def commutant():
        if g < 3:
            raise ResourceLimitExceeded("uniqueness certificate is stated for genus >= 3")
        return 2, commutant_dimension(g)

    _run_check(checks, "cube-decomposition-dims", "exterior-cube-splitting", dims)
    _run_check(checks, "contraction-equivariance", "equivariant-contraction", equivariance)
    _run_check(checks, "commutant-dimension", "invariant-subspace-uniqueness", commutant)
    return checks


def _suite_johnson_image(s: _Session) -> list[CheckResult]:
    g = s.config.genus
    checks: list[CheckResult] = []

    def unit_factors():
        # 2g factors, all 1: rank 2g and a direct summand, a partial basis.
        # The image indexes every cube triple, so their count is read first
        triples = comb(2 * g, 3)
        if triples > _JOHNSON_TRIPLE_CAP:
            raise ResourceLimitExceeded(f"Johnson image over {triples} triples at genus {g} is beyond desk scale")
        factors = intlinalg.snf(johnson_image(g)).nonzero_factors
        return [1] * 2 * g, list(factors)

    _run_check(checks, "johnson-unit-factors", "partial-basis", unit_factors)
    return checks


def _suite_torelli_h1(s: _Session) -> list[CheckResult]:
    g = s.config.genus
    checks: list[CheckResult] = []

    def describe(invariants, q_reconstructed):
        return {
            "free_rank": invariants.free_rank,
            "torsion_exponent": len(invariants.torsion),
            "torsion_orders": sorted(set(invariants.torsion)),
            "q_reconstructed": q_reconstructed,
        }

    def pullback(kind, build):
        # the expected side is the dim B2 formula, the actual side the
        # computed cokernel; both go through the same describe
        got = build(g)
        expected = describe(torelli.expected_invariants(g, kind), True)
        return expected, describe(got.invariants, got.q_reconstructed)

    def d1():
        return pullback("d1", torelli.pullback_d1)

    def d3():
        return pullback("d3", torelli.pullback_d3)

    def q_props():
        # q onto mod 2 also decides the projection onto the cube (q_surjective)
        a = torelli.element_a(g)
        return (
            {"q_surjective": True, "a_nonzero": True, "a_killed_by_q": True},
            {
                "q_surjective": torelli.q_surjective(g),
                "a_nonzero": not a.is_zero(),
                "a_killed_by_q": all(x == 0 for x in torelli.q_map(a)),
            },
        )

    _run_check(checks, "pullback-d1-invariants", "torelli-abelianization-with-boundary", d1)
    _run_check(checks, "pullback-d3-invariants", "torelli-abelianization-closed", d3)
    _run_check(checks, "boolean-q-properties", "birman-craggs-johnson", q_props)
    return checks


def _suite_lemma_summand(s: _Session) -> list[CheckResult]:
    g = s.config.genus
    checks: list[CheckResult] = []

    def johnson_roundtrip():
        check_cube_cap(g)  # read before the image is built
        rep = summand_correspondence_roundtrip(johnson_image(g), g)
        return (
            {"invariant": True, "summand": True, "roundtrip": True},
            {"invariant": rep.invariant, "summand": rep.summand, "roundtrip": bool(rep.roundtrip_holds)},
        )

    _run_check(checks, "johnson-summand-roundtrip", "rational-integral-correspondence", johnson_roundtrip)
    return checks


def _suite_identity_viii(s: _Session) -> list[CheckResult]:
    g = s.config.genus
    checks: list[CheckResult] = []

    def universal():
        # a law in three variables holds under every substitution exactly
        # when it holds on three distinct free generators (the universal
        # property of the free group F_3), so one call decides them all
        a1, b1, a2 = (GroupWord(g, (x,)) for x in (1, 2, 3))
        return True, verify_identity_viii(a1, b1, a2)

    _run_check(checks, "identity-viii-universal", "commutator-rearrangement", universal)
    return checks


def _suite_index_formula(s: _Session) -> list[CheckResult]:
    checks: list[CheckResult] = []

    def equal_characteristics():
        chi = 2 - 2 * s.config.genus
        return 1, euler_index(chi, chi)

    _run_check(checks, "euler-index-equal", "euler-characteristic-index", equal_characteristics)
    return checks


_SUITES = {
    "lie-center": _suite_lie_center,
    "enveloping": _suite_enveloping,
    "nilpotent": _suite_nilpotent,
    "sp-decomposition": _suite_sp_decomposition,
    "johnson-image": _suite_johnson_image,
    "torelli-h1": _suite_torelli_h1,
    "lemma-summand": _suite_lemma_summand,
    "identity-viii": _suite_identity_viii,
    "index-formula": _suite_index_formula,
}


def run(config: RunConfig) -> Report:
    """Execute the configured suites; deterministic given the config."""
    session = _Session(config)
    report = Report(config=config, version=__version__)
    for suite in config.suites:
        report.checks.extend(_SUITES[suite](session))
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="surfalg",
        description="Exact verification suites for surface-group filtration algebra.",
    )
    parser.add_argument("--genus", type=int, default=3)
    parser.add_argument("--max-degree", type=int, default=4)
    parser.add_argument(
        "--suite",
        action="append",
        default=None,
        help="suite name, repeatable (default: all); comma-separated lists accepted",
    )
    parser.add_argument("--report", choices=("json", "text"), default="json")
    parser.add_argument("--seed", type=int, default=20240, help="recorded in the report; no check reads it")
    parser.add_argument("--out", default=None, help="write the report to this path")
    args = parser.parse_args(argv)

    suites = SUITE_NAMES
    if args.suite:
        names: list[str] = []
        for chunk in args.suite:
            names.extend(x.strip() for x in chunk.split(",") if x.strip())
        suites = tuple(names)
    try:
        config = RunConfig(
            genus=args.genus,
            max_degree=args.max_degree,
            suites=suites,
            report_format=args.report,
            seed=args.seed,
        )
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    # an unwritable report path is refused before any suite runs
    try:
        out = open(args.out, "w") if args.out else None
    except OSError as exc:
        print(f"config error: cannot write the report to {args.out}: {exc.strerror}", file=sys.stderr)
        return 2
    try:
        report = run(config)
        print(report.to_json() if config.report_format == "json" else report.to_text(), file=out)
    finally:
        if out is not None:
            out.close()
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
