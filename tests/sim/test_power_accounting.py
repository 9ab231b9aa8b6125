"""Power accountant: the fused and memoised paths equal the plain ones."""

from hypothesis import given
from hypothesis import strategies as st

from repro.power.processor import ProcessorSpec
from repro.sim.power_accounting import PowerAccountant

#: Grid levels plus off-grid speeds, drawn repeatedly so the memoised
#: entries are both created and reused.
_SPEEDS = st.one_of(
    st.sampled_from([0.1, 0.25, 0.5, 0.63, 1.0]),
    st.floats(0.01, 1.0),
)
_SPANS = st.lists(
    st.tuples(_SPEEDS, st.floats(1e-3, 1e5)), min_size=1, max_size=40
)


def _residency(acct):
    return [(repr(key), value.hex()) for key, value in acct.speed_residency.items()]


@given(spans=_SPANS)
def test_run_steady_equals_run_constant_plus_residency(spans):
    power = ProcessorSpec.arm8().power
    fused, plain = PowerAccountant(power), PowerAccountant(power)
    for speed, dt in spans:
        fused.run_steady(speed, dt)
        plain.run_constant(speed, dt)
        plain.residency(speed, dt)
    assert fused.energy.active.hex() == plain.energy.active.hex()
    assert _residency(fused) == _residency(plain)


@given(
    ramps=st.lists(
        st.tuples(_SPEEDS, _SPEEDS, st.floats(0.0, 50.0)), min_size=1, max_size=10
    )
)
def test_ramp_energy_equals_the_model(ramps):
    power = ProcessorSpec.arm8().power
    acct = PowerAccountant(power)
    for s0, s1, dt in ramps:
        assert acct.ramp_energy(s0, s1, dt).hex() == power.ramp_energy(s0, s1, dt).hex()
