"""Properties of the version-stamped backend map and lookup policies."""

import pytest
from hypothesis import given, strategies as st

from repro.fleet import (BackendMap, FleetPolicy, StatefulLookup,
                         StatelessLookup, make_lookup)
from repro.kernel import FourTuple

flow_hashes = st.integers(min_value=0, max_value=2 ** 32 - 1)


def _flow(i):
    return FourTuple(0x0A000000 + (i % 251), 1024 + (i * 7) % 50000,
                     0xC0A80001, 443)


class TestBackendMap:
    def test_versioning(self):
        bmap = BackendMap([0, 1, 2, 3])
        assert bmap.version == 0
        assert bmap.update([0, 1, 2, 4]) == 1
        assert bmap.version == 1
        assert bmap.backends == [0, 1, 2, 4]

    @given(flow_hashes)
    def test_resolves_into_backend_set(self, flow_hash):
        bmap = BackendMap([3, 7, 11])
        assert bmap.backend_for(flow_hash) in (3, 7, 11)
        assert 0 <= bmap.slot_of(flow_hash) < bmap.n_slots

    @given(flow_hashes)
    def test_old_versions_frozen(self, flow_hash):
        # PCC's foundation: a published version never changes, however
        # many updates follow it.
        bmap = BackendMap([0, 1, 2, 3])
        before = bmap.backend_for(flow_hash, version=0)
        bmap.update([0, 1, 2])
        bmap.update([0, 1, 2, 9, 10])
        assert bmap.backend_for(flow_hash, version=0) == before

    def test_hrw_minimal_disruption_on_remove(self):
        # Rendezvous hashing, exact form: a slot only changes owner if
        # its owner was removed.
        bmap = BackendMap([0, 1, 2, 3], n_slots=256)
        old_table = list(bmap._tables[0])
        bmap.update([0, 1, 2])
        new_table = bmap._tables[1]
        for slot in range(256):
            if new_table[slot] != old_table[slot]:
                assert old_table[slot] == 3

    def test_hrw_minimal_disruption_on_add(self):
        bmap = BackendMap([0, 1, 2, 3], n_slots=256)
        old_table = list(bmap._tables[0])
        bmap.update([0, 1, 2, 3, 4])
        new_table = bmap._tables[1]
        for slot in range(256):
            if new_table[slot] != old_table[slot]:
                assert new_table[slot] == 4

    @pytest.mark.parametrize("bad", [-1, 2])
    def test_rejects_version_outside_published_range(self, bad):
        # -1 would index the newest table; version + 1 does not exist.
        bmap = BackendMap([0, 1, 2, 3])
        bmap.update([0, 1, 2])
        with pytest.raises(ValueError, match=rf"{bad}.*\[0, 1\]"):
            bmap.backend_for(12345, bad)

    def test_accepts_every_published_version(self):
        bmap = BackendMap([0, 1, 2, 3])
        bmap.update([0, 1, 2])
        for version in (0, 1, None):
            assert bmap.backend_for(12345, version) in (0, 1, 2, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            BackendMap([])
        with pytest.raises(ValueError):
            BackendMap([0], n_slots=0)
        with pytest.raises(ValueError):
            BackendMap([0, 1]).update([])


class TestStatelessLookup:
    def test_any_instance_resolves_identically(self):
        # The failover-survival property: an instance that never saw the
        # connection recomputes the same backend from (flow, version).
        bmap = BackendMap([0, 1, 2, 3])
        lookup = StatelessLookup(bmap, hash_seed=99)
        for i in range(100):
            ft = _flow(i)
            backend, version = lookup.assign(ft, "lb0", conn_id=i)
            assert lookup.resolve(ft, "lb5", i, version) == backend
            assert lookup.resolve(ft, "never-seen", i, version) == backend

    def test_survives_backend_map_updates(self):
        bmap = BackendMap([0, 1, 2, 3])
        lookup = StatelessLookup(bmap)
        ft = _flow(1)
        backend, version = lookup.assign(ft, "lb0", conn_id=1)
        bmap.update([0, 1])
        assert lookup.resolve(ft, "lb0", 1, version) == backend

    @pytest.mark.parametrize("bad", [-1, 2])
    def test_resolve_rejects_version_outside_published_range(self, bad):
        # The flattened resolve enforces backend_for's version rule.
        bmap = BackendMap([0, 1, 2, 3])
        lookup = StatelessLookup(bmap)
        bmap.update([0, 1])
        with pytest.raises(ValueError, match=rf"{bad}.*\[0, 1\]"):
            lookup.resolve(_flow(3), "lb0", 3, bad)

    @given(st.integers(min_value=0, max_value=500))
    def test_resolve_equals_backend_for_of_flow_hash(self, i):
        bmap = BackendMap([0, 1, 2, 3], n_slots=97)
        lookup = StatelessLookup(bmap, hash_seed=7)
        bmap.update([1, 2, 5])
        for version in (0, 1):
            assert lookup.resolve(_flow(i), "lb0", i, version) == \
                bmap.backend_for(lookup.flow_hash(_flow(i)), version)

    def test_drop_instance_loses_nothing(self):
        lookup = StatelessLookup(BackendMap([0, 1]))
        lookup.assign(_flow(0), "lb0", conn_id=0)
        assert lookup.drop_instance("lb0") == 0
        assert lookup.stateless is True


class TestStatefulLookup:
    def test_assign_matches_stateless_computation(self):
        # Same rendezvous math, so the policies are latency-comparable.
        bmap = BackendMap([0, 1, 2, 3])
        stateful = StatefulLookup(bmap, hash_seed=99)
        stateless = StatelessLookup(bmap, hash_seed=99)
        for i in range(50):
            ft = _flow(i)
            assert stateful.assign(ft, "lb0", i) == \
                stateless.assign(ft, "lb0", i)

    def test_table_dies_with_instance(self):
        lookup = StatefulLookup(BackendMap([0, 1, 2]))
        for i in range(10):
            lookup.assign(_flow(i), "lb0", conn_id=i)
        lookup.assign(_flow(99), "lb1", conn_id=99)
        assert lookup.table_size("lb0") == 10
        assert lookup.drop_instance("lb0") == 10
        assert lookup.entries_lost == 10
        assert lookup.resolve(_flow(0), "lb0", 0, 0) is None
        # The other instance's table is untouched.
        assert lookup.resolve(_flow(99), "lb1", 99, 0) is not None

    def test_migrate_moves_one_entry(self):
        lookup = StatefulLookup(BackendMap([0, 1, 2]))
        backend, version = lookup.assign(_flow(5), "lb0", conn_id=5)
        lookup.migrate(5, "lb0", "lb1")
        assert lookup.resolve(_flow(5), "lb0", 5, version) is None
        assert lookup.resolve(_flow(5), "lb1", 5, version) == backend

    def test_forget(self):
        lookup = StatefulLookup(BackendMap([0, 1]))
        lookup.assign(_flow(0), "lb0", conn_id=0)
        lookup.forget("lb0", 0)
        assert lookup.resolve(_flow(0), "lb0", 0, 0) is None
        lookup.forget("lb0", 12345)  # unknown ids are a no-op
        lookup.forget("ghost", 0)


class TestMakeLookup:
    def test_spellings(self):
        bmap = BackendMap([0, 1])
        assert isinstance(make_lookup("stateless", bmap), StatelessLookup)
        assert isinstance(make_lookup("stateful", bmap), StatefulLookup)
        assert isinstance(make_lookup(FleetPolicy.STATELESS, bmap),
                          StatelessLookup)
        assert isinstance(make_lookup(FleetPolicy.STATEFUL, bmap),
                          StatefulLookup)

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            make_lookup("maglev", BackendMap([0]))
