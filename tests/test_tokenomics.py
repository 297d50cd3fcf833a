"""Reward math: pinned values, an independent high-precision oracle, and
property tests for normalization, shift invariance, and conservation."""

import math
from decimal import Decimal, getcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from computepool.tokenomics import (
    NodeDeed,
    NodeRegistry,
    NoEligibleNodesError,
    UnknownDeedError,
    alive_fraction,
    clamp_power,
    distribute_epoch_rewards,
    exact_sum,
    exp,
    node_power_index,
)

getcontext().prec = 50


def decimal_shares(powers: list[float], alive: list[float]) -> list[float]:
    # Independent oracle: same formula evaluated in 50-digit decimal.
    indexes = [Decimal(repr(p)).exp() * Decimal(repr(a)) for p, a in zip(powers, alive)]
    total = sum(indexes)
    return [float(i / total) for i in indexes]


def make_active(powers, alive_seconds, epoch=4):
    return [
        NodeDeed(f"n{i:02d}", total_alive_seconds=s, power_by_epoch={epoch: p})
        for i, (p, s) in enumerate(zip(powers, alive_seconds))
    ]


def test_protocol_time_is_epoch_length_times_count():
    def fractions(epoch, epoch_seconds, alive_seconds):
        active = make_active([0.0] * len(alive_seconds), alive_seconds, epoch=epoch)
        alloc = distribute_epoch_rewards(Fraction(1), active, epoch, epoch_seconds)
        return [e.alive_fraction for e in alloc.entries]

    assert fractions(1, 86400, [43200, 86400]) == [0.5, 1.0]
    assert fractions(7, 100, [350, 70, 700]) == [0.5, 0.1, 1.0]
    with pytest.raises(ValueError, match="protocol time must be positive"):
        fractions(0, 100, [50])


def test_alive_fraction_clamps_to_unit_interval():
    assert alive_fraction(50, 100) == 0.5
    assert alive_fraction(100, 100) == 1.0
    assert alive_fraction(140, 100) == 1.0  # clock skew cannot mint extra claim
    assert alive_fraction(0, 100) == 0.0
    with pytest.raises(ValueError):
        alive_fraction(10, 0)
    with pytest.raises(ValueError):
        alive_fraction(-1, 100)


def test_power_index_pinned_value():
    assert node_power_index(-1.0, 0.5) == 0.18393972058572117
    assert node_power_index(0.0, 1.0) == 1.0
    assert node_power_index(0.0, 0.0) == 0.0


def test_power_index_clamps_extreme_powers():
    assert node_power_index(1000.0, 1.0) == math.exp(50)
    assert node_power_index(-1000.0, 1.0) == math.exp(-50)
    with pytest.raises(ValueError):
        node_power_index(0.0, 1.5)


# (float.hex(x), float.hex(e**x correctly rounded)). The last six are
# arguments that glibc 2.36's `exp` rounds to the neighbouring float, given
# after "libm:".
EXP_TABLE = [
    ("0x0.0p+0", "0x1.0000000000000p+0"),
    ("0x1.0000000000000p+0", "0x1.5bf0a8b145769p+1"),
    ("-0x1.0000000000000p+0", "0x1.78b56362cef38p-2"),
    ("-0x1.9000000000000p+5", "0x1.d257d547e083fp-73"),
    ("0x1.9000000000000p+5", "0x1.19103e4080b45p+72"),
    ("0x1.0000000000000p-1", "0x1.a61298e1e069cp+0"),
    ("-0x1.ec8b439581062p-2", "0x1.3c801cb2231f4p-1"),
    ("0x1.fbf7bf0318364p+4", "0x1.be8b68f6a1c6ap+45"),  # libm: 0x1.be8b68f6a1c69p+45
    ("0x1.50e3cb19df790p+4", "0x1.4c6983411512ep+30"),  # libm: 0x1.4c6983411512dp+30
    ("-0x1.10fd03b67e058p+3", "0x1.9db9febea934ep-13"),  # libm: 0x1.9db9febea934fp-13
    ("-0x1.284aabf919a44p+5", "0x1.7b6d85539c985p-54"),  # libm: 0x1.7b6d85539c986p-54
    ("0x1.0865ba64afc40p+5", "0x1.9a5158a713d3dp+47"),  # libm: 0x1.9a5158a713d3cp+47
    ("0x1.88b0f3aa74eb8p+5", "0x1.c2ea08860d3c5p+70"),  # libm: 0x1.c2ea08860d3c6p+70
]


def test_exp_is_correctly_rounded_on_every_machine():
    for x, want in EXP_TABLE:
        power = float.fromhex(x)
        assert exp(power).hex() == want, x
        assert node_power_index(power, 1.0).hex() == want, x


def test_clamp_power_bounds():
    assert clamp_power(-1e9) == -50.0
    assert clamp_power(1e9) == 50.0
    assert clamp_power(3.25) == 3.25


def test_three_node_shares_pinned():
    active = make_active([1.0, 0.0, -1.0], [400, 200, 100])
    entries = distribute_epoch_rewards(Fraction(100), active, 4, 100).entries
    assert [e.deed_id for e in entries] == ["n00", "n01", "n02"]
    assert entries[0].share == 0.8211707398853239
    assert entries[1].share == 0.15104591644767637
    assert entries[2].share == 0.027783343666999777


def test_three_node_distribution_exact_total():
    active = make_active([1.0, 0.0, -1.0], [400, 200, 100])
    alloc = distribute_epoch_rewards(Fraction(100), active, 4, 100)
    assert exact_sum(e.amount for e in alloc.entries) == Fraction(100)
    amounts = {e.deed_id: float(e.amount) for e in alloc.entries}
    assert amounts["n00"] == pytest.approx(82.11707398853238, abs=1e-9)
    assert amounts["n01"] == pytest.approx(15.104591644767638, abs=1e-9)
    assert amounts["n02"] == pytest.approx(2.7783343666999776, abs=1e-9)


def test_zero_alive_node_gets_nothing_and_no_residue():
    active = make_active([5.0, 0.0], [0, 200], epoch=2)
    alloc = distribute_epoch_rewards(Fraction(60), active, 2, 100)
    by_id = {e.deed_id: e for e in alloc.entries}
    assert by_id["n00"].share == 0.0
    assert by_id["n00"].amount == 0
    assert by_id["n01"].amount == Fraction(60)


def test_no_eligible_nodes_raises():
    active = make_active([1.0, 2.0], [0, 0], epoch=1)
    with pytest.raises(NoEligibleNodesError):
        distribute_epoch_rewards(Fraction(10), active, 1, 100)
    with pytest.raises(NoEligibleNodesError):
        distribute_epoch_rewards(Fraction(10), [], 1, 100)


def test_residue_goes_to_highest_share_lowest_id_on_tie():
    active = make_active([0.0, 0.0, 0.0], [100, 100, 50], epoch=1)
    alloc = distribute_epoch_rewards(Fraction(1), active, 1, 100)
    by_id = {e.deed_id: e.amount for e in alloc.entries}
    # n00 and n01 tie for highest share; the residue lands on n00.
    plain = {d: Fraction(alloc.pool) * Fraction(s.share) for d, s in
             ((e.deed_id, e) for e in alloc.entries)}
    residue = Fraction(1) - sum(plain.values())
    assert by_id["n00"] == plain["n00"] + residue
    assert by_id["n01"] == plain["n01"]
    assert exact_sum(e.amount for e in alloc.entries) == Fraction(1)


finite_power = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
alive_secs = st.integers(min_value=0, max_value=400)


@given(st.lists(st.tuples(finite_power, alive_secs), min_size=1, max_size=12))
@settings(max_examples=200, deadline=None)
def test_shares_normalize_to_one(rows):
    if not any(s > 0 for _, s in rows):
        rows = rows + [(0.0, 100)]
    active = make_active([p for p, _ in rows], [s for _, s in rows])
    alloc = distribute_epoch_rewards(Fraction(1000), active, 4, 100)
    assert abs(sum(e.share for e in alloc.entries) - 1.0) <= 1e-9
    assert exact_sum(e.amount for e in alloc.entries) == Fraction(1000)


@given(
    st.lists(st.tuples(finite_power, st.integers(min_value=1, max_value=400)),
             min_size=2, max_size=8),
    st.sampled_from([-3.0, 0.0, 7.0]),
)
@settings(max_examples=200, deadline=None)
def test_share_shift_invariance(rows, shift):
    # exp(p + c) scales every index by exp(c), which cancels in the ratio.
    powers = [max(-40.0, min(40.0, p)) for p, _ in rows]  # keep p + c inside clamp
    alive = [s for _, s in rows]
    base = distribute_epoch_rewards(Fraction(500), make_active(powers, alive), 4, 100)
    shifted = distribute_epoch_rewards(
        Fraction(500), make_active([p + shift for p in powers], alive), 4, 100
    )
    for a, b in zip(base.entries, shifted.entries):
        assert abs(a.share - b.share) <= 1e-9


@given(
    st.lists(st.tuples(finite_power, st.integers(min_value=1, max_value=400)),
             min_size=1, max_size=8),
)
@settings(max_examples=150, deadline=None)
def test_shares_match_decimal_oracle(rows):
    active = make_active([p for p, _ in rows], [s for _, s in rows])
    impl = [e.share for e in distribute_epoch_rewards(Fraction(1), active, 4, 100).entries]
    t_p = 4 * 100
    oracle = decimal_shares(
        [p for p, _ in rows], [min(1.0, s / t_p) for _, s in rows]
    )
    for i, o in zip(impl, oracle):
        assert abs(i - o) <= 1e-12


@given(
    finite_power,
    finite_power,
    st.integers(min_value=1, max_value=400),
)
@settings(max_examples=200, deadline=None)
def test_more_power_never_means_smaller_share(p_low, p_high, secs):
    if p_low > p_high:
        p_low, p_high = p_high, p_low
    active = make_active([p_low, p_high, 0.5], [secs, secs, 200])
    alloc = distribute_epoch_rewards(Fraction(1), active, 4, 100)
    low, high, _ = (e.share for e in alloc.entries)
    assert high >= low


@given(st.lists(st.tuples(finite_power, alive_secs), min_size=1, max_size=10),
       st.integers(min_value=0, max_value=10**9))
@settings(max_examples=200, deadline=None)
def test_distribution_conserves_any_pool(rows, pool_int):
    if not any(s > 0 for _, s in rows):
        rows = rows + [(1.0, 50)]
    pool = Fraction(pool_int, 7)
    active = make_active([p for p, _ in rows], [s for _, s in rows])
    alloc = distribute_epoch_rewards(pool, active, 4, 100)
    assert exact_sum(e.amount for e in alloc.entries) == pool


# Shared small denominators make groups; wide ones make many distinct groups
# whose lcm runs far past 64 bits.
denominators = st.one_of(st.sampled_from([1, 2, 3, 7, 2**32, 2**64]), st.integers(1, 2**64))
rationals = st.builds(Fraction, st.integers(-(10**20), 10**20), denominators)


@given(st.lists(st.one_of(rationals, st.integers(-3, 3)), max_size=30))
@settings(max_examples=100, deadline=None)
def test_exact_sum_equals_the_fraction_sum(values):
    total = exact_sum(values)
    assert isinstance(total, Fraction)
    assert total == sum(values, Fraction(0))


def test_negative_amounts_are_refused():
    reg = NodeRegistry()
    reg.register("a", Fraction(10))
    with pytest.raises(ValueError, match="credit amount must be non-negative"):
        reg.credit("a", Fraction(-1))
    with pytest.raises(ValueError, match="debit amount must be non-negative"):
        reg.debit("a", Fraction(-1))
    assert reg.deed("a").balance == 10
    with pytest.raises(ValueError, match="pool snapshot must be non-negative"):
        distribute_epoch_rewards(Fraction(-1), make_active([0.0], [100], epoch=1), 1, 100)


def test_registry_balance_and_penalty_flow():
    reg = NodeRegistry()
    reg.register("a", Fraction(100))
    reg.register("b")
    with pytest.raises(ValueError):
        reg.register("a")
    reg.credit("b", Fraction(25))
    reg.debit("a", Fraction(40))
    assert reg.deed("a").balance == 60
    assert reg.deed("b").balance == 25
    assert reg.total_balance() == 85
    with pytest.raises(ValueError):
        reg.debit("b", Fraction(26))
    with pytest.raises(UnknownDeedError):
        reg.deed("ghost")

    reg.set_power("a", 3, 2.0)
    assert reg.apply_penalty("a", 3, 0.5) == 1.5
    assert reg.deed("a").power_at(3) == 1.5
    # penalties saturate at the clamp floor
    assert reg.apply_penalty("a", 3, 1000.0) == -50.0


def test_accrue_alive_accumulates_across_epochs():
    reg = NodeRegistry()
    reg.register("a")
    reg.accrue_alive("a", 60)
    reg.accrue_alive("a", 60)
    reg.accrue_alive("a", 30)
    assert reg.deed("a").total_alive_seconds == 150
