"""The grouped check suite: statuses, sensitivity downgrades, determinism."""

import json
import math
import os
import subprocess
import sys
from fnmatch import fnmatchcase
from pathlib import Path

import mpmath
import pytest

from focksym import verification
from focksym.verification import (
    _TRUNCATION_SENSITIVE,
    CALIBRATED_DIM,
    CHECK_GROUPS,
    DEFAULT_TOLERANCES,
    MAX_COMPLEX_ENTRIES,
    SUITE_MIN_DIM,
    CheckRecord,
    VerifyConfig,
    evolution_checks,
    run_all,
    run_group,
)

BENCH_DIMS = Path(__file__).resolve().parent.parent / "BENCH_dims.json"

EXPECTED_GROUPS = {
    "conjugation", "boundedness", "flow-cocycle", "semigroup-law",
    "generator-fd", "stone-symmetry", "spectrum", "empty-spectrum",
    "growth", "laplace", "dissipativity", "evolution", "scaling-solver",
}


def test_group_registry_is_complete():
    assert set(CHECK_GROUPS) == EXPECTED_GROUPS


def test_record_json_fields():
    r = CheckRecord("id", "law", 0.5, 1.0, "pass", direction=">=", detail="d")
    blob = r.to_json()
    assert blob == {
        "check_id": "id", "anchor": "law", "measured": 0.5, "threshold": 1.0,
        "direction": ">=", "status": "pass", "detail": "d",
    }


def test_config_tolerance_override():
    cfg = VerifyConfig(dim=16, tolerances={"semigroup_law": 1e-3})
    assert cfg.tol("semigroup_law") == 1e-3
    assert cfg.tol("involution_exact") == 1e-12  # falls back to the default


def test_config_validation():
    with pytest.raises(ValueError):
        VerifyConfig(dim=1)
    # the largest dim whose doubled square complex matrix numpy can index
    top = math.isqrt(MAX_COMPLEX_ENTRIES) // 2
    assert VerifyConfig(dim=top).dim == top
    for dim in (top + 1, 2**32, 10**400):
        with pytest.raises(ValueError, match="too large"):
            VerifyConfig(dim=dim)
    assert VerifyConfig(dim=8).tol("semigroup_law") == DEFAULT_TOLERANCES["semigroup_law"]


def test_unknown_group_raises():
    with pytest.raises(KeyError):
        run_group("no-such-group", VerifyConfig(dim=8))


def test_conjugation_group_passes_at_full_size():
    records = run_group("conjugation", VerifyConfig(dim=CALIBRATED_DIM))
    assert records
    assert all(r.status != "fail" for r in records)
    assert any(r.status == "pass" for r in records)


def test_offset_involution_passes_at_rounding_floor():
    # dim 96: the residual is 3.6e-15 at both dim 48 and dim 96, so the decay
    # factor reads 1; the record passes on the full-dim residual instead
    records = {r.check_id: r for r in run_group("conjugation", VerifyConfig(dim=96))}
    assert all(r.status == "pass" for r in records.values())
    floor = records["conjugation.involution.offset.decay"]
    assert floor.measured <= floor.threshold == 1e-12
    assert floor.detail.startswith("rounding-floor branch")
    # at the calibrated size the decay itself is judged, as before
    decay = run_group("conjugation", VerifyConfig(dim=CALIBRATED_DIM))[-1]
    assert decay.direction == ">=" and decay.measured > 1e5


def test_sensitive_checks_downgrade_below_calibrated_size():
    # at dim 8 the divergence ratios cannot clear their threshold, but the
    # records must come back as warnings, not failures
    records = run_group("empty-spectrum", VerifyConfig(dim=8))
    statuses = {r.status for r in records}
    assert "fail" not in statuses
    assert "warn" in statuses


def test_finite_difference_slopes_pass_below_calibrated_size():
    # the fd records do not depend on the seed, so this sweep is exhaustive:
    # they need no downgrade, and only the exponential bridge may read warn
    for dim in range(SUITE_MIN_DIM, CALIBRATED_DIM):
        records = run_group("generator-fd", VerifyConfig(dim=dim))
        assert all(r.status == "pass" for r in records
                   if r.check_id.startswith("generator.fd-")), dim
        assert all(r.status != "fail" for r in records), dim


def test_each_downgrade_pattern_fires_in_the_committed_sweep():
    # BENCH_dims.json keeps the warn ids of verify-all --seed 7 at every dim
    # from 8 to 63; a pattern that matches none of them downgrades nothing
    sweep = json.loads(BENCH_DIMS.read_text())["downgrades"]["dims"]
    assert sorted(map(int, sweep)) == list(range(SUITE_MIN_DIM, CALIBRATED_DIM))
    warned = {check_id for ids in sweep.values() for check_id in ids}
    for pattern in _TRUNCATION_SENSITIVE:
        assert any(fnmatchcase(i, pattern) for i in warned), pattern
    for check_id in warned:
        assert any(fnmatchcase(check_id, p) for p in _TRUNCATION_SENSITIVE), check_id


def test_divergence_factor_override_is_honoured():
    # at dim 64 the eta = 1+i doubling ratios are 28, 110, 761: a factor of
    # 1e6 leaves neither certificate branch firing, so the record fails
    cfg = VerifyConfig(dim=CALIBRATED_DIM, tolerances={"divergence_factor": 1e6})
    records = {r.check_id: r for r in run_group("empty-spectrum", cfg)}
    steep = records["empty-spectrum.divergence.eta=(1+1j)"]
    assert steep.threshold == 1e6 and steep.status == "fail"
    assert records["empty-spectrum.divergence.eta=0.0"].status == "pass"


def test_empty_spectrum_group_passes_at_full_size():
    records = run_group("empty-spectrum", VerifyConfig(dim=CALIBRATED_DIM))
    assert [r.status for r in records] == ["pass", "pass"]
    borderline = records[0]
    assert borderline.direction == "<=" and borderline.measured < 1.0
    assert borderline.detail.startswith("gauss branch")


def test_small_run_is_deterministic_and_fail_free():
    cfg = VerifyConfig(dim=8, seed=123)
    first = [r.to_json() for r in run_all(cfg)]
    second = [r.to_json() for r in run_all(cfg)]
    assert first == second
    assert all(r["status"] != "fail" for r in first)
    # every group contributed
    prefixes = {r["check_id"].split(".")[0] for r in first}
    assert len(prefixes) >= 10


@pytest.mark.parametrize("dim", [8, 16, 64])
def test_resolvent_bound_fails_a_non_dissipative_generator(dim, monkeypatch):
    # F = +0.05 puts the margin of -I + i(a + a^H) at +0.05: the exact bound
    # falls below 1 at every one of these dims, where 100 random probes did not
    translation = verification._std_translation
    monkeypatch.setattr(verification, "_std_translation", lambda E, F: translation(E, 0.05))
    records = {r.check_id: r for r in run_group("dissipativity", VerifyConfig(dim=dim))}
    bound = records["dissipativity.resolvent-bound"]
    assert bound.status == "fail" and bound.measured < 1.0


def test_thresholds_are_finite_unless_informational():
    for r in run_all(VerifyConfig(dim=8, seed=5)):
        if r.status == "info":
            assert math.isnan(r.threshold)
        else:
            assert math.isfinite(r.threshold)
            assert r.direction in ("<=", ">=")


def _adjoint_slope_mpmath(z, hs) -> mpmath.mpf:
    """|slope - 1| of the suite's adjoint quotients, with U = expm at 40 digits.

    The model is the suite's constant two-level B = -i H, H = [[1 + 0.3i, 1],
    [1, 1 - 0.3i]]; the slope is the least-squares fit of log residual
    against log h, as ``np.polyfit`` takes it.
    """
    with mpmath.workdps(40):
        B = -1j * mpmath.matrix([[1 + 0.3j, 1], [1, 1 - 0.3j]])
        z = mpmath.matrix(z)
        U_t = mpmath.expm(B)
        target = U_t.transpose_conj() * (B.transpose_conj() * z)
        xs, ys = [], []
        for h in map(mpmath.mpf, hs):
            quotient = (mpmath.expm(B * (1 + h)).transpose_conj() * z
                        - U_t.transpose_conj() * z) / h
            xs.append(mpmath.log(h))
            ys.append(mpmath.log(mpmath.norm(quotient - target)))
        xm, ym = sum(xs) / len(xs), sum(ys) / len(ys)
        slope = (sum((x - xm) * (y - ym) for x, y in zip(xs, ys))
                 / sum((x - xm) ** 2 for x in xs))
        return abs(slope - 1)


def test_adjoint_slope_matches_mpmath():
    z, hs = [0.3 - 0.1j, 0.8 + 0.2j], [3e-2, 1e-2, 3e-3, 1e-3]
    [rec] = [r for r in evolution_checks(VerifyConfig(dim=8))
             if r.check_id == "evolution.adjoint-slope"]
    exact = _adjoint_slope_mpmath(z, hs)
    assert abs(rec.measured - exact) <= 1e-6 * exact


def test_symmetry_records_fail_an_asymmetric_coefficient(monkeypatch):
    # B[:, 0, 1] scaled by 1 + 1e-6 breaks the coefficient's complex symmetry,
    # and so the propagator's: both records that judge it must fail
    hamiltonian = verification.bagchi_hamiltonian

    def asymmetric(*args):
        B = hamiltonian(*args)

        def skewed(ts):
            out = B(ts).copy()
            out[:, 0, 1] *= 1 + 1e-6
            return out

        return skewed

    monkeypatch.setattr(verification, "bagchi_hamiltonian", asymmetric)
    records = {r.check_id: r for r in evolution_checks(VerifyConfig(dim=8))}
    for check_id in ("evolution.symmetry-commuting", "evolution.nonauto-commutation"):
        assert records[check_id].status == "fail"


_BRIDGE_AT_128 = ("from focksym.verification import _GEN_FAMILIES, exponential_bridge; "
                  "print(repr(exponential_bridge(_GEN_FAMILIES[0], (0.1, 0.25, 0.5), 6, 128)))")


def test_bridge_at_dim_128_does_not_depend_on_the_blas_threads():
    # the dense Pade route read 2.0939512058243166e-14 under one OpenBLAS
    # thread and 1.946592642669345e-14 under two (ROADMAP item 24)
    src = str(Path(verification.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", _BRIDGE_AT_128], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
