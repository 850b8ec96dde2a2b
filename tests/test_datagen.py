"""Tests for the synthetic workload generator and scale factors."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen import (
    ACTIONS,
    BIRTH_ACTIONS,
    COUNTRIES,
    GameConfig,
    aging_activity,
    birth_day_weights,
    game_schema,
    generate,
    scale_dataset,
    zipf_weights,
)
from repro.cohort import NEVER_BORN, birth_times
from repro.errors import QueryError
from repro.schema import parse_timestamp


@pytest.fixture(scope="module")
def small():
    return generate(GameConfig(n_users=20, seed=3))


class TestDistributions:
    def test_zipf_normalized_and_decreasing(self):
        w = zipf_weights(10)
        assert w.sum() == pytest.approx(1.0)
        assert all(w[i] >= w[i + 1] for i in range(9))

    def test_birth_day_weights_front_loaded(self):
        w = birth_day_weights(39)
        assert w.sum() == pytest.approx(1.0)
        assert w[0] > w[10] > w[38]

    def test_aging_decays(self):
        young = aging_activity(1.0, 9.0, 0, 0.35)
        old = aging_activity(20.0, 9.0, 0, 0.35)
        assert young > old

    def test_social_change_slows_decay(self):
        week0 = aging_activity(10.0, 9.0, 0, 0.35)
        week4 = aging_activity(10.0, 9.0, 4, 0.35)
        assert week4 > week0


class TestGenerator:
    def test_deterministic(self):
        a = generate(GameConfig(n_users=5, seed=42))
        b = generate(GameConfig(n_users=5, seed=42))
        assert a == b

    def test_rows_match_golden(self):
        """The generated rows are pinned: a speed-up of the generator
        must not change one value of one row."""
        rows = generate(GameConfig(n_users=60, seed=5)).to_rows()
        assert len(rows) == 2066
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
            "0135c410aea5f12a4bbb446db40c9334d31a152cc80ae3da90f1c0ff38c07d15")

    def test_different_seed_differs(self):
        a = generate(GameConfig(n_users=5, seed=1))
        b = generate(GameConfig(n_users=5, seed=2))
        assert a != b

    def test_schema_and_user_count(self, small):
        assert small.schema == game_schema()
        assert len(small.distinct_users()) == 20

    def test_primary_key_holds(self, small):
        small.check_primary_key()

    def test_sorted_and_clustered(self, small):
        assert small.is_sorted_by_primary_key()

    def test_first_action_is_launch(self, small):
        births = birth_times(small, "launch")
        for user, start, _ in small.user_blocks():
            assert small.actions[start] == "launch"
            assert int(small.times[start]) == births[user]

    def test_actions_within_vocabulary(self, small):
        assert set(small.actions.tolist()) <= set(ACTIONS)
        assert set(BIRTH_ACTIONS) <= set(ACTIONS)

    def test_time_window(self, small):
        config = GameConfig()
        lo = parse_timestamp(config.start)
        hi = lo + config.n_days * 86400
        assert int(small.times.min()) >= lo
        assert int(small.times.max()) < hi

    def test_gold_only_on_shop(self, small):
        gold = small.column("gold")
        actions = small.actions
        for i in range(len(small)):
            if actions[i] != "shop":
                assert gold[i] == 0

    def test_session_length_only_on_launch(self, small):
        sl = small.column("session_length")
        actions = small.actions
        for i in range(len(small)):
            if actions[i] == "launch":
                assert sl[i] >= 1
            else:
                assert sl[i] == 0

    def test_countries_within_vocabulary(self, small):
        assert set(small.column("country").tolist()) <= set(COUNTRIES)

    def test_aging_effect_visible(self):
        """Average gold per shop declines from early to late ages."""
        table = generate(GameConfig(n_users=60, seed=5))
        births = birth_times(table, "launch")
        early, late = [], []
        for i in range(len(table)):
            if table.actions[i] != "shop":
                continue
            age_days = (int(table.times[i])
                        - births[table.users[i]]) / 86400
            gold = int(table.column("gold")[i])
            (early if age_days <= 3 else late).append(gold)
        assert early and late
        assert np.mean(early) > np.mean(late)

    def test_bad_config(self):
        with pytest.raises(ValueError):
            GameConfig(n_users=0)
        with pytest.raises(ValueError):
            GameConfig(n_days=0)


class TestScaling:
    def test_scale_one_is_identity(self, small):
        assert scale_dataset(small, 1) is small

    def test_scale_multiplies_users_and_rows(self, small):
        scaled = scale_dataset(small, 3)
        assert len(scaled) == 3 * len(small)
        assert len(scaled.distinct_users()) == 3 * 20
        scaled.check_primary_key()

    def test_scaled_copies_behave_identically(self, small):
        scaled = scale_dataset(small, 2)
        by_user: dict[str, list] = {}
        for user, start, stop in scaled.user_blocks():
            base = user.rsplit("#", 1)[0]
            signature = tuple(
                (int(scaled.times[i]), scaled.actions[i],
                 int(scaled.column("gold")[i]))
                for i in range(start, stop))
            by_user.setdefault(base, []).append(signature)
        for signatures in by_user.values():
            assert len(signatures) == 2
            assert signatures[0] == signatures[1]

    def test_scale_preserves_sort(self, small):
        assert scale_dataset(small, 2).is_sorted_by_primary_key()

    def test_bad_factor(self, small):
        with pytest.raises(QueryError):
            scale_dataset(small, 0)


@given(n_users=st.integers(1, 12), seed=st.integers(0, 10))
@settings(max_examples=15, deadline=None)
def test_property_generated_tables_valid(n_users, seed):
    table = generate(GameConfig(n_users=n_users, seed=seed))
    table.check_primary_key()
    assert table.is_sorted_by_primary_key()
    assert len(table.distinct_users()) == n_users
    # every user is born w.r.t. launch
    births = birth_times(table, "launch")
    assert all(t != NEVER_BORN for t in births.values())
