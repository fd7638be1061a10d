"""Every registered source-table discrepancy must be proven, not asserted."""

from pathenum import discrepancies
from pathenum.algebra import OmegaPoly
from pathenum.oracle import CountTable, PathSpec


def test_registry_is_nonempty():
    assert len(discrepancies.REGISTRY) >= 2


def test_required_records_present():
    keys = {d.key for d in discrepancies.REGISTRY}
    assert "grand-mirror" in keys
    assert "banded4-tail" in keys


def test_all_checks_pass():
    for d in discrepancies.REGISTRY:
        result = d.check()
        assert result, (d.key, result.detail)


def test_grand_mirror_oracle_value():
    # independent re-derivation: the (5, -2) grand count by direct DP
    table = CountTable(PathSpec.grand(), 5)
    assert table.value(5, -2) == OmegaPoly([0, 20, 0, 10])
    assert table.value(5, -2) != OmegaPoly([20, 0, 0, 10])  # the printed value


def test_banded4_values_from_oracle():
    table = CountTable(PathSpec.banded(4), 9)
    weight_one = [table.value(n, 0).evaluate(1) for n in range(10)]
    assert weight_one == [1, 1, 2, 4, 9, 21, 51, 127, 322, 826]
    assert weight_one[8:] != [323, 835]
