"""Epoch reward allocation: alive time, power scores, and pool shares.

A node's unnormalized claim on an epoch's reward pool is
``exp(power) * alive_fraction`` (its power index), with `exp` correctly
rounded so that it is the same on every machine; a platform's `math.exp` need
not be. Shares are power indexes normalized by the plain sum of all power
indexes over the active set, so they always sum to 1; the normalizing total
deliberately carries no extra division by protocol time, which would break
that normalization. The sum runs in deed-id order (float addition is not
associative), so node order moves no money.

Token amounts are exact rationals so conservation can be asserted with ``==``;
share fractions are floats and carry explicit tolerances instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import Context, Decimal
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

# Power scores are kept in a bounded band so exp() stays finite and penalty
# arithmetic cannot run away.
POWER_MIN = -50.0
POWER_MAX = 50.0


class NoEligibleNodesError(Exception):
    """Raised when every node in the active set has a zero power index."""


class UnknownDeedError(KeyError):
    pass


def exact_sum(values: Iterable[Fraction | int]) -> Fraction:
    """The exact sum of rationals, added as integers.

    Numerators that share a denominator are added as plain integers; the
    groups are then combined once over the lcm of the denominators. A pool's
    balances carry few distinct denominators, so this does a handful of
    big-integer steps where a `Fraction` sum normalizes after every addition.
    """
    by_denominator: dict[int, int] = {}
    for value in values:
        n, d = value.as_integer_ratio()
        by_denominator[d] = by_denominator.get(d, 0) + n
    if not by_denominator:
        return Fraction(0)
    common = math.lcm(*by_denominator)
    return Fraction(
        sum(n * (common // d) for d, n in by_denominator.items()), common
    )


def clamp_power(power: float) -> float:
    return min(POWER_MAX, max(POWER_MIN, power))


# How much one unit of each capability component adds to a node's score.
CPU_WEIGHT, GPU_WEIGHT, MEMORY_WEIGHT = 1.0, 4.0, 0.25


@dataclass(frozen=True)
class Capability:
    """Declared hardware profile: CPU units, GPU flag/units, memory units."""

    cpu: float = 1.0
    gpu: bool = False
    gpu_units: float = 0.0
    memory: float = 0.0

    def covers(self, required: "Capability") -> bool:
        """Component-wise dominance over a requirement descriptor."""
        if self.cpu < required.cpu or self.memory < required.memory:
            return False
        if required.gpu and not (self.gpu and self.gpu_units >= required.gpu_units):
            return False
        return True

    def score(self) -> float:
        gpu_part = GPU_WEIGHT * self.gpu_units if self.gpu else 0.0
        return CPU_WEIGHT * self.cpu + gpu_part + MEMORY_WEIGHT * self.memory

    def to_payload(self) -> dict:
        return {
            "cpu": float(self.cpu),
            "gpu": self.gpu,
            "gpu_units": float(self.gpu_units),
            "memory": float(self.memory),
        }


@dataclass
class NodeDeed:
    """A node's non-fungible identity record: its token balance, cumulative
    alive time and per-epoch power scores."""

    deed_id: str
    balance: Fraction = Fraction(0)
    total_alive_seconds: int = 0
    power_by_epoch: dict[int, float] = field(default_factory=dict)

    def power_at(self, epoch: int) -> float:
        return self.power_by_epoch.get(epoch, 0.0)


@dataclass(frozen=True)
class RewardShare:
    deed_id: str
    share: float
    amount: Fraction
    power: float
    alive_fraction: float


@dataclass
class RewardAllocation:
    """One epoch's full distribution of the reward-pool snapshot."""

    epoch: int
    pool: Fraction
    entries: list[RewardShare]


def alive_fraction(total_alive_seconds: float, protocol_seconds: float) -> float:
    """Cumulative alive time over total protocol time, clamped to [0, 1].

    The clamp guards against clock skew minting a claim above a full-uptime
    node's; callers that care should audit ``total_alive_seconds > protocol_seconds``
    before clamping hides it.
    """
    if protocol_seconds <= 0:
        raise ValueError("protocol time must be positive")
    if total_alive_seconds < 0:
        raise ValueError("alive time must be non-negative")
    return min(1.0, total_alive_seconds / protocol_seconds)


_EXP_CONTEXT = Context(prec=60)


@lru_cache(maxsize=4096)
def exp(x: float) -> float:
    """e**x correctly rounded to a float: `decimal` computes it to 60 digits,
    far closer than any double comes to a rounding boundary, and rounds once."""
    return float(_EXP_CONTEXT.exp(Decimal(x)))


def node_power_index(power: float, live_fraction: float) -> float:
    """Unnormalized claim on the epoch pool: exp(power) * alive fraction.

    Negative powers are legal; a penalized node's index decays exponentially
    but never reaches zero while the node stays alive.
    """
    if not 0.0 <= live_fraction <= 1.0:
        raise ValueError("alive fraction must lie in [0, 1]")
    return exp(clamp_power(power)) * live_fraction


def distribute_epoch_rewards(
    pool_snapshot: Fraction, active: list[NodeDeed], epoch: int, epoch_seconds: int
) -> RewardAllocation:
    """Split the pool snapshot taken as `epoch` closes across the active set.

    A node's alive fraction is its alive time over the `epoch * epoch_seconds`
    seconds of protocol time since genesis.

    All shares are computed against the same snapshot and paid in one pass.
    Because shares are floats, the rational amounts cannot sum to the snapshot
    bit-exactly on their own; the residue is assigned to the highest-share
    node (ties broken by lowest deed id) so conservation holds with ``==``.
    Zero-alive nodes keep a zero share and never receive the residue.
    """
    pool_snapshot = Fraction(pool_snapshot)
    if pool_snapshot < 0:
        raise ValueError("pool snapshot must be non-negative")
    if not active:
        raise NoEligibleNodesError("no active nodes")
    protocol_seconds = epoch * epoch_seconds
    fractions = {
        a.deed_id: alive_fraction(a.total_alive_seconds, protocol_seconds) for a in active
    }
    indexes = {
        a.deed_id: node_power_index(a.power_at(epoch), fractions[a.deed_id]) for a in active
    }
    total = sum(indexes[deed] for deed in sorted(indexes))
    if total == 0.0:
        raise NoEligibleNodesError("no eligible nodes: all power indexes are zero")

    shares = {deed: idx / total for deed, idx in indexes.items()}
    amounts = {
        deed: pool_snapshot * Fraction(share) if share > 0.0 else Fraction(0)
        for deed, share in shares.items()
    }
    residue = pool_snapshot - exact_sum(amounts.values())
    if residue:
        sink = min(shares, key=lambda d: (-shares[d], d))
        amounts[sink] += residue

    entries = [
        RewardShare(
            deed_id=a.deed_id,
            share=shares[a.deed_id],
            amount=amounts[a.deed_id],
            power=a.power_at(epoch),
            alive_fraction=fractions[a.deed_id],
        )
        for a in sorted(active, key=lambda a: a.deed_id)
    ]
    return RewardAllocation(epoch=epoch, pool=pool_snapshot, entries=entries)


class NodeRegistry:
    """All deeds; the single balance authority."""

    def __init__(self):
        self.deeds: dict[str, NodeDeed] = {}

    def register(self, deed_id: str, balance: Fraction = Fraction(0)) -> NodeDeed:
        if deed_id in self.deeds:
            raise ValueError(f"deed id already registered: {deed_id}")
        deed = NodeDeed(deed_id, balance)
        self.deeds[deed_id] = deed
        return deed

    def deed(self, deed_id: str) -> NodeDeed:
        try:
            return self.deeds[deed_id]
        except KeyError:
            raise UnknownDeedError(deed_id) from None

    def credit(self, deed_id: str, amount: Fraction) -> None:
        if amount < 0:
            raise ValueError("credit amount must be non-negative")
        self.deed(deed_id).balance += amount

    def debit(self, deed_id: str, amount: Fraction) -> None:
        deed = self.deed(deed_id)
        if amount < 0:
            raise ValueError("debit amount must be non-negative")
        if deed.balance < amount:
            raise ValueError(f"insufficient balance on {deed_id}")
        deed.balance -= amount

    def total_balance(self) -> Fraction:
        return exact_sum(d.balance for d in self.deeds.values())

    def accrue_alive(self, deed_id: str, seconds: int) -> None:
        self.deed(deed_id).total_alive_seconds += seconds

    def set_power(self, deed_id: str, epoch: int, power: float) -> None:
        self.deed(deed_id).power_by_epoch[epoch] = clamp_power(power)

    def apply_penalty(self, deed_id: str, epoch: int, delta: float) -> float:
        """Lower a node's power score for `epoch`; returns the new score.

        The score floor is the clamp bound, so repeated penalties saturate
        instead of diverging.
        """
        deed = self.deed(deed_id)
        new_power = clamp_power(deed.power_at(epoch) - delta)
        deed.power_by_epoch[epoch] = new_power
        return new_power
