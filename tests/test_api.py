"""The package's public surface: the names it exports, the library calls
the benchmark makes, and the version it reports."""

import importlib.util
from fractions import Fraction as F
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


# the public constructors that take caller data, each called with one
# junk value in every argument
ARITY = {
    bx.LocalBox: 1, bx.BipartiteBox: 1, bx.Ensemble: 1, bx.Ensemble.from_strategies: 2,
    bx.NonlocalEnsemble: 2, bx.NonlocalEnsemble.from_weights: 2, bx.ProductMember: 3,
    bx.PRMember: 2, bx.SBox: 2, bx.PRBox: 3, bx.TargetState: 2, bx.InputPolicy: 1,
    bx.RoundLog: 8, bx.construct_steering_state: 1, bx.SteeringState: 2,
}
JUNK = pytest.mark.parametrize(
    "junk", [5, "ab", None, [1, 2]], ids=["int", "str", "none", "ints"]
)


@JUNK
@pytest.mark.parametrize("constructor", ARITY, ids=lambda f: f.__qualname__)
def test_constructor_refuses_junk(constructor, junk):
    # bad input is a ValidationError, never a TypeError or AttributeError
    with pytest.raises(bx.ValidationError):
        constructor(*[junk] * ARITY[constructor])


@JUNK
def test_steering_refuses_a_junk_ensemble(junk):
    box = bx.SBox(0, 0).as_local_box()
    with pytest.raises(bx.ValidationError):
        bx.construct_steering_state([bx.Ensemble(((F(1), box),)), junk])


@JUNK
def test_steering_state_refuses_a_junk_ensemble(junk):
    ensemble = bx.Ensemble(((F(1), bx.SBox(0, 0).as_local_box()),))
    box = bx.construct_steering_state([ensemble, ensemble]).box
    with pytest.raises(bx.ValidationError, match="^ensembles must be Ensemble instances$"):
        bx.SteeringState(box, [ensemble, junk])


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    assert pyproject["project"]["version"] == bx.__version__
