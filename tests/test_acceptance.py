"""Acceptance suite: every certified property at its stated tolerance.

Each criterion prints one PASS/FAIL line (run with -s to watch them live).
All comparisons are exact; runtime targets are asserted against the measured
check runtimes from the shared report runs.
"""

import json
import random
import time
from contextlib import contextmanager
from math import comb
from pathlib import Path

import pytest

from surfalg import intlinalg
from surfalg.cli import RunConfig, run
from surfalg.intlinalg import IntMatrix
from surfalg.enveloping import hilbert_dimension
from surfalg.nilpotent import expand, surface_relator
from surfalg.symplectic import johnson_image
from retract_transfer import transfer_verdicts

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

MINUTE_MS = 60_000


@contextmanager
def criterion(number, name):
    ok = False
    try:
        yield
        ok = True
    finally:
        print(f"\nACCEPTANCE {number:02d} [{name}]: {'PASS' if ok else 'FAIL'}")


@pytest.fixture(scope="session")
def report_g2():
    return run(RunConfig(genus=2, max_degree=5))


@pytest.fixture(scope="session")
def report_g3():
    return run(RunConfig(genus=3, max_degree=4))


def by_name(report):
    return {c.name: c for c in report.checks}


def test_01_surface_ranks(report_g2, report_g3):
    with criterion(1, "surface Lie algebra ranks"):
        c2 = by_name(report_g2)["surface-ranks"]
        assert c2.status == "pass"
        assert c2.actual[:2] == [4, 5]  # degree <= 2 fixed by hand
        assert c2.actual == c2.expected  # degrees >= 3 from the peel oracle
        c3 = by_name(report_g3)["surface-ranks"]
        assert c3.status == "pass"
        assert c3.actual[:3] == [6, 14, 64]
        assert c2.runtime_ms < MINUTE_MS and c3.runtime_ms < MINUTE_MS


def test_02_center_certification(report_g2, report_g3):
    with criterion(2, "center certification via two routes"):
        total_ms = 0
        for rep, K in ((report_g2, 5), (report_g3, 4)):
            checks = by_name(rep)
            graded = checks["graded-center-empty"]
            assert graded.status == "pass"
            assert graded.actual == [0] * (K - 1)
            word_level = checks["quotient-center-layers"]
            assert word_level.status == "pass"
            for entry in word_level.actual:
                assert entry["central_layers"] == [entry["class"]]
            total_ms += graded.runtime_ms + word_level.runtime_ms
        assert total_ms < 10 * MINUTE_MS


def test_03_enveloping(report_g2, report_g3):
    with criterion(3, "enveloping dimensions and scalar center"):
        for rep, series in (
            (report_g2, [1, 4, 15, 56, 209]),
            (report_g3, [1, 6, 35, 204, 1189]),
        ):
            checks = by_name(rep)
            hil = checks["hilbert-brute-force"]
            assert hil.status == "pass"
            assert hil.actual == series  # brute-force counts for d <= 4
            cen = checks["assoc-center-empty"]
            assert cen.status == "pass"
            assert cen.actual == [0, 0, 0, 0]
            assert hil.runtime_ms + cen.runtime_ms < 2 * MINUTE_MS


def test_04_relator_keystone(report_g2, report_g3):
    with criterion(4, "relator keystone"):
        assert by_name(report_g2)["relator-keystone"].status == "pass"
        assert by_name(report_g3)["relator-keystone"].status == "pass"
        # K <= 5 for both genera, regardless of the configured truncations
        start = time.perf_counter()
        for g in (2, 3):
            for K in range(1, 6):
                assert expand(surface_relator(g), K).is_one(), (g, K)
        assert time.perf_counter() - start < 60


def test_05_cube_decomposition(report_g2, report_g3):
    with criterion(5, "exterior-cube decomposition and equivariance"):
        for rep, g in ((report_g2, 2), (report_g3, 3)):
            checks = by_name(rep)
            dims = checks["cube-decomposition-dims"]
            assert dims.status == "pass"
            assert dims.actual["cube_dim"] == comb(2 * g, 3)
            assert dims.actual["kernel_dim"] == comb(2 * g, 3) - 2 * g
            equiv = checks["contraction-equivariance"]
            assert equiv.status == "pass"
            assert equiv.actual == {"generators": 2 * g + 2 * comb(g, 2) + g * (g - 1)}
            assert dims.runtime_ms + equiv.runtime_ms < MINUTE_MS


def test_06_commutant_uniqueness(report_g3):
    with criterion(6, "commutant uniqueness certificate"):
        c = by_name(report_g3)["commutant-dimension"]
        assert c.status == "pass"
        assert c.expected == 2 and c.actual == 2
        assert c.runtime_ms < 5 * MINUTE_MS


def test_07_johnson_image(report_g2, report_g3):
    with criterion(7, "point-push image is a partial basis"):
        for rep, g in ((report_g2, 2), (report_g3, 3)):
            checks = by_name(rep)
            # 2g invariant factors, all 1: rank 2g and a direct summand
            assert checks["johnson-unit-factors"].status == "pass"
            assert checks["johnson-unit-factors"].actual == [1] * (2 * g)
            assert checks["johnson-unit-factors"].runtime_ms < 10_000


def test_08_roundtrip(report_g2, report_g3):
    with criterion(8, "rational/integral summand roundtrip"):
        for rep in (report_g2, report_g3):
            checks = by_name(rep)
            roundtrip = checks["johnson-summand-roundtrip"]
            assert roundtrip.status == "pass"
            assert roundtrip.actual == {"invariant": True, "summand": True, "roundtrip": True}
            assert roundtrip.runtime_ms < MINUTE_MS


def test_09_retract_transfer():
    # a lemma about every integer matrix, not a fact about the group, so it
    # is sampled here and not in the report
    with criterion(9, "retract-transfer property, 10^3 trials"):
        rng = random.Random(20240)
        counterexamples = hits = 0
        start = time.perf_counter()
        for _ in range(1000):
            d = rng.randint(1, 3)
            n = d + rng.randint(1, 3)
            l1 = IntMatrix([[rng.randint(-3, 3) for _ in range(d)] for _ in range(n)])
            l3 = IntMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
            composite, factor = transfer_verdicts(l1, l3)
            hits += composite
            counterexamples += composite and not factor
        assert counterexamples == 0
        assert hits > 0  # the hypothesis is not vacuous
        assert time.perf_counter() - start < 60


def test_10_torelli_abelianization(report_g2, report_g3):
    with criterion(10, "abelianization pullback invariants"):
        for rep, g in ((report_g2, 2), (report_g3, 3)):
            checks = by_name(rep)
            d1 = checks["pullback-d1-invariants"]
            d3 = checks["pullback-d3-invariants"]
            assert d1.status == "pass" and d3.status == "pass"
            dim_b2 = 1 + 2 * g + comb(2 * g, 2)
            assert d1.actual["free_rank"] == comb(2 * g, 3)
            assert d1.actual["torsion_exponent"] == dim_b2
            assert d3.actual["torsion_exponent"] == dim_b2 - 1
            # the reconstructed-q caveat is recorded in the report itself
            assert d1.actual["q_reconstructed"] is True
            assert d3.actual["q_reconstructed"] is True
            assert d1.runtime_ms + d3.runtime_ms < 2 * MINUTE_MS
            # q onto mod 2 is also the projection onto the integral cube
            q = checks["boolean-q-properties"]
            assert q.status == "pass"
            assert q.actual == {"q_surjective": True, "a_nonzero": True, "a_killed_by_q": True}


def test_11_identity_viii(report_g2, report_g3):
    with criterion(11, "commutator word identity, on three free generators"):
        for rep in (report_g2, report_g3):
            c = by_name(rep)["identity-viii-universal"]
            assert c.status == "pass"
            assert c.expected is True and c.actual is True
            assert c.runtime_ms < 10_000


def _normalized(report_dict):
    out = json.loads(json.dumps(report_dict))
    out["version"] = None
    for c in out["checks"]:
        c["runtime_ms"] = None
    return out


def test_12_determinism_and_goldens(report_g2, report_g3):
    with criterion(12, "report determinism and golden-file match"):
        # a second run of each shipped configuration matches byte-for-byte
        # after masking runtime and version stamps
        again_g2 = run(RunConfig(genus=2, max_degree=5))
        assert json.dumps(_normalized(report_g2.to_dict())) == json.dumps(
            _normalized(again_g2.to_dict())
        )
        for rep, path in (
            (report_g2, GOLDEN_DIR / "report_g2_k5.json"),
            (report_g3, GOLDEN_DIR / "report_g3_k4.json"),
        ):
            golden = json.loads(path.read_text())
            assert len(golden["checks"]) == 20
            assert _normalized(golden) == _normalized(rep.to_dict())
            # expected/actual fields agree entry by entry
            for got, want in zip(rep.to_dict()["checks"], golden["checks"]):
                assert got["name"] == want["name"]
                assert got["expected"] == want["expected"]
                assert got["actual"] == want["actual"]
                assert got["status"] == want["status"]
