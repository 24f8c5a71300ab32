"""CaseContext: lazy, memoized views of one fuzz case."""

from repro.qa.context import CaseContext
from repro.qa.fuzzer import fuzz_case


def test_program_built_once():
    context = CaseContext(fuzz_case(3))
    assert context._program is None
    assert context.program is context.program


def test_result_memoized_per_frequency_and_engine():
    context = CaseContext(fuzz_case(3))
    base = context.result()
    assert context.result() is base  # default = case base frequency
    assert context.result(context.case.base_freq_ghz, "fast") is base
    high = context.result(context.case.high_freq_ghz)
    assert high is not base
    classic = context.result(engine="classic")
    assert classic is not base
    assert len(context._results) == 3


def test_epochs_memoized_and_derived_from_result():
    context = CaseContext(fuzz_case(4))
    epochs = context.epochs()
    assert context.epochs() is epochs
    # One simulation behind the decomposition, at the base frequency.
    assert list(context._results) == [
        (context.case.base_freq_ghz, "fast")
    ]


def test_managed_memoized_per_engine_and_prediction_engine():
    context = CaseContext(fuzz_case(5))
    swept = context.managed("fast")
    assert context.managed("fast") is swept
    assert context.managed("fast", sweep=True) is swept
    scalar = context.managed("fast", sweep=False)
    assert scalar is not swept
    assert set(context._managed) == {("fast", True), ("fast", False)}
    # Decision parity between the candidate engines is an invariant
    # (sweep-scalar-identity); here just check both produced a real run.
    assert swept[0].total_ns > 0
    assert scalar[0].total_ns > 0


def test_target_ladder_shape():
    context = CaseContext(fuzz_case(6))
    ladder = context.target_ladder()
    assert ladder == sorted(ladder)
    assert len(ladder) == len(set(ladder))
    assert context.case.base_freq_ghz in ladder
    assert context.case.high_freq_ghz in ladder
    freqs = context.spec.frequencies()
    assert ladder[0] >= freqs[0] and ladder[-1] <= freqs[-1]


def test_serve_client_defaults_to_none():
    context = CaseContext(fuzz_case(7))
    assert context.serve_client is None
