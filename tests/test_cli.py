"""Runner configuration, report format, exit codes, and the index formula."""

import json
import random
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

from surfalg import cli, enveloping, intlinalg, nilpotent, surface, symplectic, torelli
from surfalg.intlinalg import IntMatrix
from surfalg.symplectic import SymplecticSpace, contraction_matrix, lambda3_action, sp_generators
from surfalg.cli import (
    ConfigError,
    NonDivisibleError,
    Report,
    RunConfig,
    SUITE_NAMES,
    euler_index,
    main,
    run,
)
from surfalg.errors import CertificateError

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _zeros(rows, cols):
    """The rows x cols zero matrix."""
    return IntMatrix([[0] * cols] * rows, cols=cols)


def _only(monkeypatch, entry):
    """Run the named report entry alone, whatever suite holds it."""
    run_check = cli._run_check

    def filtered(checks, name, anchor, func):
        if name == entry:
            run_check(checks, name, anchor, func)

    monkeypatch.setattr(cli, "_run_check", filtered)


class TestEulerIndex:
    def test_equal_characteristics_force_index_one(self):
        assert euler_index(-4, -4) == 1

    def test_direct_division(self):
        assert euler_index(-2, -6) == 3

    def test_non_divisible(self):
        with pytest.raises(NonDivisibleError):
            euler_index(-4, -6)

    def test_zero_subgroup_characteristic(self):
        with pytest.raises(ValueError, match="zero"):
            euler_index(0, -4)

    def test_positive_subgroup_characteristic(self):
        with pytest.raises(ValueError):
            euler_index(2, -4)

    def test_sign_mismatch_rejected(self):
        with pytest.raises(NonDivisibleError):
            euler_index(-2, 6)


class TestConfig:
    def test_empty_suites_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig(suites=())

    def test_unknown_suite_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig(suites=("lie-center", "nonsense"))

    def test_repeated_suite_rejected(self):
        with pytest.raises(ConfigError, match="repeated suites: nilpotent"):
            RunConfig(suites=("nilpotent", "lie-center", "nilpotent"))

    def test_low_genus_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig(genus=1)

    def test_low_degree_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig(max_degree=1)

    def test_defaults_valid(self):
        cfg = RunConfig()
        assert cfg.genus == 3 and cfg.max_degree == 4
        assert cfg.suites == SUITE_NAMES


class TestRun:
    def test_small_run_passes(self):
        rep = run(RunConfig(genus=2, max_degree=3, suites=("index-formula", "johnson-image")))
        assert rep.passed
        assert {c.status for c in rep.checks} == {"pass"}

    def test_schema_fields(self):
        rep = run(RunConfig(genus=2, max_degree=3, suites=("index-formula",)))
        d = rep.to_dict()
        assert set(d) == {"config", "version", "checks"}
        for check in d["checks"]:
            assert set(check) == {
                "name",
                "paper_anchor",
                "status",
                "expected",
                "actual",
                "runtime_ms",
            }

    def test_every_check_appears_once(self):
        rep = run(RunConfig(genus=2, max_degree=3))
        names = [c.name for c in rep.checks]
        assert len(names) == len(set(names))

    def test_commutant_skipped_at_genus_two(self):
        rep = run(RunConfig(genus=2, max_degree=3, suites=("sp-decomposition",)))
        by_name = {c.name: c for c in rep.checks}
        assert by_name["commutant-dimension"].status == "skipped"
        assert rep.passed  # skipped is not a failure

    def test_determinism_modulo_runtime(self):
        cfg = RunConfig(genus=2, max_degree=3, suites=("identity-viii", "lemma-summand"))
        a, b = run(cfg).to_dict(), run(cfg).to_dict()
        for d in (a, b):
            for c in d["checks"]:
                c["runtime_ms"] = 0
            d["version"] = "X"
        assert json.dumps(a) == json.dumps(b)

    def test_one_roundtrip_whatever_the_trials(self, monkeypatch):
        # every verdict is taken on the row span, so a change of basis of the
        # Johnson image would only recompute johnson-summand-roundtrip
        calls = []
        roundtrip = cli.summand_correspondence_roundtrip

        def counted(*args):
            calls.append(args)
            return roundtrip(*args)

        monkeypatch.setattr(cli, "summand_correspondence_roundtrip", counted)
        rep = run(RunConfig(genus=2, max_degree=3, suites=("lemma-summand",)))
        assert [c.name for c in rep.checks] == ["johnson-summand-roundtrip"]
        assert rep.passed
        assert len(calls) == 1

    @pytest.mark.parametrize("genus", [2, 5])
    def test_identity_viii_decided_once_on_free_generators(self, genus, monkeypatch):
        # the universal entry substitutes three distinct letters, whatever
        # the genus
        calls = []
        verify = cli.verify_identity_viii

        def recorded(*words):
            calls.append(tuple(w.letters for w in words))
            return verify(*words)

        monkeypatch.setattr(cli, "verify_identity_viii", recorded)
        rep = run(RunConfig(genus=genus, max_degree=2, suites=("identity-viii",)))
        check = {c.name: c for c in rep.checks}["identity-viii-universal"]
        assert (check.status, check.expected, check.actual) == ("pass", True, True)
        assert calls == [((1,), (2,), (3,))]

    def test_default_report_entries(self):
        # each fact once: no entry restates another entry or a tier-1 test
        assert [c.name for c in run(RunConfig()).checks] == [
            "surface-ranks",
            "graded-center-empty",
            "hilbert-brute-force",
            "assoc-center-empty",
            "ideal-reduces-to-zero",
            "relator-keystone",
            "expand-homomorphism-universal",
            "quotient-center-layers",
            "expansion-rank-certificates",
            "abelianization-sanity",
            "cube-decomposition-dims",
            "contraction-equivariance",
            "commutant-dimension",
            "johnson-unit-factors",
            "pullback-d1-invariants",
            "pullback-d3-invariants",
            "boolean-q-properties",
            "johnson-summand-roundtrip",
            "identity-viii-universal",
            "euler-index-equal",
        ]

    def test_cube_entries_skipped_past_the_cap_before_any_build(self, monkeypatch):
        # genus 20 is within the cap, genus 21 is not: no generator and no
        # cube action is built, and only the contraction's dimensions run
        assert comb(40, 3) <= symplectic._TRIPLE_CAP < comb(42, 3)
        built = []
        monkeypatch.setattr(symplectic, "sp_generators", lambda *args: built.append(args))
        monkeypatch.setattr(symplectic, "lambda3_action", lambda *args: built.append(args))
        monkeypatch.setattr(cli, "johnson_image", lambda *args: built.append(args))
        rep = run(RunConfig(genus=21, max_degree=2, suites=("sp-decomposition", "lemma-summand")))
        assert {c.name: c.status for c in rep.checks} == {
            "cube-decomposition-dims": "pass",
            "contraction-equivariance": "skipped",
            "commutant-dimension": "skipped",
            "johnson-summand-roundtrip": "skipped",
        }
        assert built == []

    def test_brute_force_count_skipped_past_the_cap_before_any_word(self, monkeypatch):
        # genus 26 is within the cap, genus 27 is not; the entry is run alone
        assert 52**4 <= cli._BRUTE_FORCE_WORD_CAP < 54**4
        built = []
        _only(monkeypatch, "hilbert-brute-force")
        monkeypatch.setattr(cli, "enveloping_algebra", lambda *args: built.append(args))
        monkeypatch.setattr(cli, "hilbert_dimension", lambda *args: built.append(args))
        rep = run(RunConfig(genus=27, max_degree=2, suites=("enveloping",)))
        assert [(c.name, c.status) for c in rep.checks] == [("hilbert-brute-force", "skipped")]
        assert "8503056 degree-4 words" in rep.checks[0].actual
        assert built == []

    def test_ideal_products_skipped_past_the_cap_before_any_product(self, monkeypatch):
        # 2g relation words in each of the (d - 1) (2g)^(d - 2) products of
        # degree d = 2..4: genus 54 is within the cap, genus 55 is not
        def words(g):
            return 2 * g * (1 + 4 * g + 12 * g * g)

        assert words(54) <= cli._IDEAL_PRODUCT_WORD_CAP < words(55)
        reduced = []
        _only(monkeypatch, "ideal-reduces-to-zero")
        monkeypatch.setattr(cli, "reduce_terms", lambda *args: reduced.append(args))
        rep = run(RunConfig(genus=55, max_degree=2, suites=("enveloping",)))
        assert [(c.name, c.status) for c in rep.checks] == [("ideal-reduces-to-zero", "skipped")]
        assert reduced == []

    def test_ideal_products_leave_the_shared_memo_as_they_found_it(self, monkeypatch):
        alg = enveloping.enveloping_algebra(4)
        before = len(alg._memo)
        _only(monkeypatch, "ideal-reduces-to-zero")
        rep = run(RunConfig(genus=4, max_degree=2, suites=("enveloping",)))
        assert [(c.name, c.status) for c in rep.checks] == [("ideal-reduces-to-zero", "pass")]
        assert len(alg._memo) <= before

    def test_johnson_image_skipped_past_the_cap_before_any_build(self, monkeypatch):
        # genus 60 is within the cap, genus 61 is not
        assert comb(120, 3) <= cli._JOHNSON_TRIPLE_CAP < comb(122, 3)
        built = []
        monkeypatch.setattr(cli, "johnson_image", lambda *args: built.append(args))
        rep = run(RunConfig(genus=61, max_degree=2, suites=("johnson-image",)))
        assert [(c.name, c.status) for c in rep.checks] == [("johnson-unit-factors", "skipped")]
        assert built == []

    def test_nilpotent_entries_read_their_largest_cap_first(self, monkeypatch):
        # at degree 12 the genus-2 truncations pass the cap from degree 9 on:
        # each entry is skipped before any smaller truncation is worked through
        called = []
        for name in ("expand", "center_of_quotient", "graded_rank_certificate"):
            monkeypatch.setattr(cli, name, lambda *args, name=name: called.append(name))
        rep = run(RunConfig(genus=2, max_degree=12, suites=("nilpotent",)))
        assert [c.status for c in rep.checks] == ["skipped"] * 4 + ["pass"]
        assert called == []

    def test_quotient_centers_skipped_at_degree_two(self):
        # range(2, K) is empty at K = 2, so there is no layer to test
        rep = run(RunConfig(genus=2, max_degree=2, suites=("nilpotent",)))
        check = {c.name: c for c in rep.checks}["quotient-center-layers"]
        assert check.status == "skipped"
        assert check.expected is None and check.actual.startswith("skipped: ")
        assert [c.status for c in rep.checks].count("skipped") == 1
        assert rep.passed

    def test_text_format(self):
        rep = run(RunConfig(genus=2, max_degree=3, suites=("index-formula",), report_format="text"))
        text = rep.to_text()
        assert "euler-index-equal" in text
        assert "passed" in text


class TestMain:
    def test_exit_zero_on_pass(self, capsys):
        code = main(["--genus", "2", "--max-degree", "3", "--suite", "index-formula"])
        assert code == 0
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert payload["config"]["genus"] == 2

    def test_exit_two_on_config_error(self, capsys):
        assert main(["--genus", "1"]) == 2
        assert main(["--suite", "bogus"]) == 2
        assert main(["--suite", "nilpotent,nilpotent"]) == 2
        assert main(["--suite", "nilpotent", "--suite", "nilpotent"]) == 2
        with pytest.raises(SystemExit) as exc:  # no check samples, so no sample count
            main(["--trials", "5"])
        assert exc.value.code == 2

    def test_comma_separated_suites(self, capsys):
        code = main(
            ["--genus", "2", "--max-degree", "3", "--suite", "index-formula,johnson-image"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        names = {c["name"] for c in payload["checks"]}
        assert "euler-index-equal" in names and "johnson-unit-factors" in names

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            ["--genus", "2", "--max-degree", "3", "--suite", "index-formula", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["checks"]

    @pytest.mark.parametrize("where", ["directory", "missing-directory"])
    def test_unwritable_out_refused_before_any_suite(self, where, tmp_path, monkeypatch, capsys):
        calls = []
        monkeypatch.setitem(cli._SUITES, "index-formula", lambda s: calls.append(s) or [])
        out = tmp_path if where == "directory" else tmp_path / "missing" / "report.json"
        assert main(["--suite", "index-formula", "--out", str(out)]) == 2
        assert calls == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ")

    def test_module_invocation(self):
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "surfalg.cli",
                "--genus",
                "2",
                "--max-degree",
                "3",
                "--suite",
                "index-formula",
            ],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr
        json.loads(proc.stdout)
        assert "RuntimeWarning" not in proc.stderr


class TestFaultIsolation:
    def _forged(self, *args):
        raise RuntimeError("forged fault")

    def test_raising_check_fails_alone(self, monkeypatch, capsys):
        monkeypatch.setattr(torelli, "pullback_d1", self._forged)
        argv = ["--genus", "2", "--max-degree", "3", "--suite", "torelli-h1,index-formula"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        checks = json.loads(captured.out)["checks"]
        assert [c["name"] for c in checks] == [
            "pullback-d1-invariants",
            "pullback-d3-invariants",
            "boolean-q-properties",
            "euler-index-equal",
        ]
        failed = [c for c in checks if c["status"] != "pass"]
        assert [c["name"] for c in failed] == ["pullback-d1-invariants"]
        assert failed[0]["status"] == "fail"
        assert failed[0]["actual"] == "error: RuntimeError: forged fault"
        assert "forged fault" in captured.err

    def test_certificate_error_is_a_failed_check(self, monkeypatch):
        def broken(g):
            raise CertificateError("forged certificate")

        monkeypatch.setattr(cli, "johnson_image", broken)
        rep = run(RunConfig(genus=2, max_degree=3, suites=("johnson-image",)))
        assert [c.status for c in rep.checks] == ["fail"]
        assert rep.checks[0].actual == "error: CertificateError: forged certificate"
        assert not rep.passed


def _masked(report):
    out = report.to_dict()
    out["version"] = None
    for c in out["checks"]:
        c["runtime_ms"] = None
    return out


def test_nilpotent_suite_never_builds_the_graded_algebra(monkeypatch):
    config = RunConfig(genus=2, max_degree=5, suites=("nilpotent",))
    plain = run(config)

    def forbidden(g, K):
        raise AssertionError("the nilpotent suite built the graded algebra")

    monkeypatch.setattr(surface, "build", forbidden)
    rep = run(config)
    assert [c.status for c in rep.checks] == ["pass"] * 5
    assert _masked(rep) == _masked(plain)


def test_a_capped_assoc_center_builds_no_lower_degree(monkeypatch):
    # at genus 9 the 104,005 reduced degree-4 words are over the cap; degree
    # 4 is asked first, so the entry is skipped before any degree is built
    degrees, built = [], []
    center, words = cli.center_in_degree_assoc, enveloping.EnvelopingAlgebra.reduced_words

    def recorded_center(g, d):
        degrees.append(d)
        return center(g, d)

    def recorded_words(alg, d):
        built.append(d)
        return words(alg, d)

    monkeypatch.setattr(cli, "center_in_degree_assoc", recorded_center)
    monkeypatch.setattr(enveloping.EnvelopingAlgebra, "reduced_words", recorded_words)
    rep = run(RunConfig(genus=9, max_degree=4, suites=("enveloping",)))
    check = {c.name: c for c in rep.checks}["assoc-center-empty"]
    assert check.status == "skipped"
    assert degrees == [4]
    assert built == []


def test_no_check_draws_random_input(monkeypatch):
    # every entry is decided exactly, so a report depends on the config alone
    def refuse(*args, **kwargs):
        raise AssertionError("a check drew random input")

    monkeypatch.setattr(random, "Random", refuse)
    rep = run(RunConfig(genus=2, max_degree=3))
    assert rep.passed, [c.name for c in rep.checks if c.status == "fail"]


def test_a_negated_rule_coefficient_fails_the_ideal_entry(monkeypatch):
    # a rule that rewrites bg*ag to the wrong polynomial leaves omega, and so
    # its multiples, nonzero in every degree
    alg = enveloping.EnvelopingAlgebra(2)  # its own memo, so nothing cached is touched
    alg.rhs_coeffs = (-alg.rhs_coeffs[0],) + alg.rhs_coeffs[1:]
    monkeypatch.setattr(cli, "enveloping_algebra", lambda g: alg)
    rep = run(RunConfig(genus=2, max_degree=3, suites=("enveloping",)))
    check = {c.name: c for c in rep.checks}["ideal-reduces-to-zero"]
    assert check.status == "fail"
    assert all(n > 0 for n in check.actual)


def test_a_division_that_multiplies_fails_the_homomorphism_entry(monkeypatch):
    # with acc * E(w) in place of acc * E(w)^-1, x^-1 expands to E(x), which
    # is not the inverse of E(x) in any truncation
    def times(ring, acc, w):
        return ring.mul_raw(acc, ring.expand_raw(w))

    monkeypatch.setattr(nilpotent.GroupRingTruncation, "_divide", times)
    nilpotent.group_ring_truncation.cache_clear()
    try:
        rep = run(RunConfig(genus=2, max_degree=3, suites=("nilpotent",)))
    finally:
        nilpotent.group_ring_truncation.cache_clear()
    check = {c.name: c for c in rep.checks}["expand-homomorphism-universal"]
    assert check.status == "fail"
    assert check.actual == [False] * 3


def test_torsion_entries_read_the_computed_group(monkeypatch):
    # with one Z/2 factor dropped from every pullback group, the torsion
    # count differs from its dim B2 formula; the entry may not compare a
    # formula with itself
    real = intlinalg.cokernel

    def forged(a):
        group = real(a)
        return intlinalg.FgAbGroup(group.free_rank, group.torsion[1:])

    monkeypatch.setattr(intlinalg, "cokernel", forged)
    rep = run(RunConfig(genus=2, max_degree=3, suites=("torelli-h1",)))
    for check in rep.checks[:2]:
        assert check.status == "fail"
        assert check.actual["torsion_exponent"] == check.expected["torsion_exponent"] - 1


def test_equivariance_trials_count_what_dense_products_count(monkeypatch):
    # every other full action is forged (its rows reversed) and stored as
    # A - I; testing each generator on every unit vector with dense column
    # products of the full actions must count the same equivariant
    # generators as the check does on the stored form
    g = 2
    fulls = [
        (gen, act if k % 2 else IntMatrix(act.entries[::-1]))
        for k, (gen, act) in enumerate((gen, lambda3_action(gen)) for gen in sp_generators(g))
    ]
    pairs = tuple((gen, symplectic._moved_columns(act.transpose())) for gen, act in fulls)
    monkeypatch.setattr(symplectic, "generator_actions", lambda _: pairs)
    config = RunConfig(genus=g, max_degree=3, suites=("sp-decomposition",))
    check = next(c for c in run(config).checks if c.name == "contraction-equivariance")
    c = contraction_matrix(SymplecticSpace(g))
    units = [IntMatrix([[int(i == j) for i in range(c.cols)]]).transpose() for j in range(c.cols)]
    dense_ok = sum(
        all(c @ (action @ v) == gen @ (c @ v) for v in units) for gen, action in fulls
    )
    assert dense_ok == sum(c @ action == gen @ c for gen, action in fulls) == len(pairs) // 2
    assert check.status == "fail"
    assert check.expected == {"generators": len(pairs)}
    assert check.actual == {"generators": dense_ok}


def test_a_form_breaking_generator_fails_the_suite(monkeypatch):
    # The zero matrix breaks the form yet commutes with the contraction, so
    # the generator certificate alone stands between it and a passing report.
    def forged(g):
        return (_zeros(2 * g, 2 * g),)

    monkeypatch.setattr(symplectic, "sp_generators", forged)
    symplectic.generator_actions.cache_clear()
    try:
        rep = run(RunConfig(genus=3, max_degree=3, suites=("sp-decomposition",)))
    finally:
        symplectic.generator_actions.cache_clear()
    statuses = {c.name: c.status for c in rep.checks}
    assert statuses == {
        "cube-decomposition-dims": "pass",
        "contraction-equivariance": "fail",
        "commutant-dimension": "fail",
    }
    for check in rep.checks[1:]:
        assert check.actual == "error: CertificateError: generator 0 is not I + N with N^2 = 0 and N in sp(6)"
    assert not rep.passed


def _wrong_sign(g):
    # e_1 with +E(b_2, b_1) in place of -E(b_2, b_1)
    gens = list(sp_generators(g))
    rows = [dict(row) for row in gens[0].sparse_rows]
    rows[3][1] = 1
    gens[0] = IntMatrix._of(rows, 2 * g)
    return tuple(gens)


def _swapped_columns(m):
    # two columns of the cube action swapped: the store reads the rows of
    # the action of S^T as the columns of the action of S
    rows = list(lambda3_action(m).sparse_rows)
    rows[0], rows[1] = rows[1], rows[0]
    return IntMatrix._of(rows, len(rows))


_CUBE_ENTRIES = ("contraction-equivariance", "commutant-dimension", "johnson-summand-roundtrip")

# program mutants of the re-routed cube entries: the patched attribute of
# symplectic, its forged value, and the entries the mutant must fail
_MUTANTS = [
    pytest.param("sp_generators", _wrong_sign, _CUBE_ENTRIES, id="wrong-sign-in-one-chevalley-n"),
    pytest.param("sp_generators", lambda g: sp_generators(g)[1:], _CUBE_ENTRIES, id="one-generator-dropped"),
    pytest.param("sp_generators", lambda g: (_zeros(2 * g, 2 * g),), _CUBE_ENTRIES, id="zero-generator"),
    pytest.param("lambda3_action", _swapped_columns, _CUBE_ENTRIES, id="forged-cube-action"),
]


@pytest.mark.parametrize("attr, forged, failing", _MUTANTS)
def test_a_program_mutant_fails_its_entries(attr, forged, failing, monkeypatch, tmp_path):
    # the mutant fails exactly its entries; every other entry passes and the
    # report is written
    out = tmp_path / "report.json"
    monkeypatch.setattr(symplectic, attr, forged)
    symplectic.generator_actions.cache_clear()
    try:
        code = main(["--genus", "3", "--max-degree", "3", "--out", str(out)])
    finally:
        symplectic.generator_actions.cache_clear()
    assert code == 1
    checks = json.loads(out.read_text())["checks"]
    assert len(checks) == 20
    assert {c["name"] for c in checks if c["status"] != "pass"} == set(failing)
    assert {c["status"] for c in checks if c["name"] in failing} == {"fail"}


def test_optimized_end_to_end_run_passes():
    # every certificate is an explicit check, so -O changes no verdict
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "surfalg.cli", "--genus", "2", "--max-degree", "3"],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    checks = json.loads(proc.stdout)["checks"]
    statuses = {c["name"]: c["status"] for c in checks}
    # the uniqueness certificate is stated for genus >= 3 only
    assert statuses.pop("commutant-dimension") == "skipped"
    assert len(statuses) == 19
    assert set(statuses.values()) == {"pass"}
