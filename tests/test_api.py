"""The package's public surface: the names it exports, the library calls
the benchmark makes, and the version it reports."""

import importlib.util
from pathlib import Path

import pytest

import boxsteer as bx

ROOT = Path(__file__).resolve().parent.parent

# every name in boxsteer.__all__, sorted; the JSON formats stay in
# boxsteer.serialize and the steering checks in boxsteer.steering
PUBLIC_NAMES = """
AuditVerdict BipartiteBox BlindReport BlindSteeringPlan
BoxWorldError CheckResult DegenerateRegionWarning Ensemble
IncompatibleEnsemblesError InputPolicy LocalBox Member NonlocalEnsemble PRBox
PRMember ProductMember RegionError Relabeling RoundLog SBox
SignallingError SimulationReport SteeringState TargetState ValidationError
VerificationReport ZeroProbabilityError alice_marginal as_prob
bob_outcome_distribution bob_posterior canonicalize catalog_hash
catalog_labels catalog_products catalog_prs constituent_after_measurement
construct_steering_state decompose is_local is_no_signalling
lower_triangle_weights mix mix_nonlocal no_signalling_violations
plan_blind_steering posterior_alice_reduction referee_audit run_protocol
steered_ensemble upper_triangle_weights verify_blind_steering
verify_steering_state
""".split()


def test_public_names_and_bench_calls():
    assert sorted(bx.__all__) == PUBLIC_NAMES
    assert all(hasattr(bx, name) for name in bx.__all__)
    # the benchmark reaches its calls as boxsteer.<layer>.<name>
    spec = importlib.util.spec_from_file_location("spans", ROOT / "benches" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    lib = spans.library()
    for _, name in spans.CALLS:
        assert callable(getattr(lib, name.split(".")[-1]))


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    assert pyproject["project"]["version"] == bx.__version__
