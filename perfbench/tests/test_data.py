"""Inputs come from the seed, all of them."""

from perfbench import data
from perfbench.workloads import REGISTRY


def op_texts(workload):
    return [op.text for ops in workload.rounds for op in ops if op.text]


def test_same_seed_same_op_list_other_seed_other_parameters():
    for name, cls in REGISTRY.items():
        one = cls(7, "smoke", 12)
        again = cls(7, "smoke", 12)
        other = cls(8, "smoke", 12)
        assert one.op_hash() == again.op_hash(), name
        assert one.op_hash() != other.op_hash(), name
        assert op_texts(one) == op_texts(again), name
        assert op_texts(one) != op_texts(other), name


def test_no_two_scan_rounds_share_their_parameters():
    workload = REGISTRY["adhoc_scan"](3, "full", 12)
    per_round = [frozenset(op.text for op in ops if op.template == "Q7")
                 for ops in workload.rounds]
    assert len(set(per_round)) == len(per_round) >= 12


def test_every_run_covers_the_same_parameter_grid():
    # The seed permutes a fixed grid: the multiset of parameters, and
    # with it the work per run, does not depend on the seed.
    def texts(seed):
        return sorted(op_texts(REGISTRY["adhoc_scan"](seed, "full", 12)))
    assert texts(1) == texts(2)


def test_rounds_follow_seconds_with_a_floor_of_twelve():
    assert REGISTRY["adhoc_scan"](1, "full", 1).n_rounds == 12
    assert REGISTRY["adhoc_scan"](1, "full", 20).n_rounds == 30
    assert REGISTRY["adhoc_scan"](1, "smoke", 20).n_rounds == 3


def test_base_table_has_exact_rows_whatever_the_seed():
    for seed in (1, 2):
        table = data.base_table(seed, users_per_wave=12,
                                rows_per_wave=300)
        assert len(table) == data.WAVES * 300
        assert table.is_sorted_by_primary_key()
    assert data.base_table(1, 12, 300) == data.base_table(1, 12, 300)
    assert data.base_table(1, 12, 300) != data.base_table(2, 12, 300)


def test_renamed_keeps_rows_and_moves_time():
    table = data.generated_rows(1, 10, 200)
    fresh = data.renamed(table, "x-", 86400)
    assert len(fresh) == 200
    assert set(fresh.distinct_users()).isdisjoint(table.distinct_users())
    assert (fresh.times - table.times == 86400).all()
