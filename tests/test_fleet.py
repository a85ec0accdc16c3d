"""Tests for fleet fill: shard partitioning and store merging.

The contracts under test are the ones the CI ``fleet-smoke`` job leans
on end-to-end: for any worker count the shards partition the cell set
exactly (disjoint + covering + stable), and merging the workers' stores
yields a store — and aggregates — byte-identical to a single-writer run.
Conflicting payloads under one key are nondeterminism and must refuse.
"""

import json

import pytest

from repro.attacks.trial import Trial, TrialBatch
from repro.campaign import (
    AxisPoint,
    CampaignRunner,
    CampaignSpec,
    TrialStore,
    canonical_json,
)
from repro.fleet import (
    MergeConflictError,
    Shard,
    merge_stores,
    parse_shard,
    partition_cells,
    shard_of_key,
)


def small_spec(**overrides) -> CampaignSpec:
    base = dict(
        name="fleet-t",
        attacks=("variant1",),
        machines=("i7-9700",),
        axes=(AxisPoint(name="baseline"),),
        repeats=4,
        rounds=3,
    )
    base.update(overrides)
    return CampaignSpec(**base)


def make_batch(seed: int = 1, n: int = 2) -> TrialBatch:
    trials = [
        Trial(index=i, true_outcome=0, inferred_outcome=0, success=True, cycles=9)
        for i in range(n)
    ]
    return TrialBatch(
        attack="variant1",
        seed=seed,
        machine="i7-9700",
        rounds=n,
        trials=trials,
        quality=1.0,
        detail=f"{n}/{n}",
        simulated_cycles=50,
        spans={},
        metrics={},
        notes={},
    )


KEY = "ab" + "0" * 62
OTHER_KEY = "cd" + "1" * 62


class TestShardParsing:
    def test_parse_round_trips(self):
        shard = parse_shard("1/4")
        assert shard == Shard(index=1, total=4)
        assert str(shard) == "1/4"

    @pytest.mark.parametrize("text", ["", "2", "a/b", "1/0", "2/2", "-1/2", "1/2/3"])
    def test_bad_specs_rejected(self, text):
        with pytest.raises(ValueError):
            parse_shard(text)

    def test_shard_of_key_needs_positive_total(self):
        with pytest.raises(ValueError, match="positive"):
            shard_of_key(KEY, 0)


class TestPartitioning:
    def test_shards_are_disjoint_and_covering_for_any_count(self):
        cells = small_spec().cells()
        keys = {c.key for c in cells}
        for total in (1, 2, 3, 5, 7):
            owned = [
                partition_cells(cells, Shard(index=i, total=total))
                for i in range(total)
            ]
            union = [c.key for slice_ in owned for c in slice_]
            assert len(union) == len(cells)  # disjoint: no cell twice
            assert set(union) == keys  # covering: no cell dropped

    def test_partition_is_stable_and_order_preserving(self):
        cells = small_spec().cells()
        shard = Shard(index=0, total=2)
        first = partition_cells(cells, shard)
        second = partition_cells(list(reversed(cells)), shard)
        assert [c.key for c in first] == [c.key for c in reversed(second)]

    def test_none_shard_means_everything(self):
        cells = small_spec().cells()
        assert partition_cells(cells, None) == list(cells)

    def test_ownership_depends_only_on_key(self):
        # Adding cells to a campaign must not reassign the old ones.
        small = {c.key for c in small_spec(repeats=2).cells()}
        shard = Shard(index=1, total=3)
        owned_small = {k for k in small if shard.owns(k)}
        big = {c.key for c in small_spec(repeats=4).cells()}
        owned_big = {k for k in big if shard.owns(k)}
        assert owned_small == owned_big & small


class TestShardedRunEqualsSerial:
    def test_two_workers_merge_to_byte_identical_store(self, tmp_path):
        spec = small_spec()
        serial_store = TrialStore(tmp_path / "serial")
        serial = CampaignRunner(serial_store).run(spec)
        assert serial.complete

        worker_results = []
        for i in range(2):
            store = TrialStore(tmp_path / f"worker-{i}")
            result = CampaignRunner(store).run(spec, shard=Shard(index=i, total=2))
            assert result.shard == f"{i}/2"
            worker_results.append(result)
        assert (
            sum(len(r.outcomes) for r in worker_results) == spec.n_cells
        )

        report = merge_stores(
            tmp_path / "merged", [tmp_path / "worker-0", tmp_path / "worker-1"]
        )
        assert report.merged == spec.n_cells
        assert report.dest_cells == spec.n_cells

        # Same shard layout, same keys: fill placement cannot leak into
        # the store's structure.  (Raw bytes differ only by the host
        # wall clocks recorded inside batches; the wall-clock-free
        # aggregate view below must be byte-identical.)
        serial_names = {p.name for p in (tmp_path / "serial" / "shards").glob("*.jsonl")}
        merged_names = {p.name for p in (tmp_path / "merged" / "shards").glob("*.jsonl")}
        assert serial_names == merged_names
        assert sorted(TrialStore(tmp_path / "merged").keys()) == sorted(
            TrialStore(tmp_path / "serial").keys()
        )

        merged_run = CampaignRunner(TrialStore(tmp_path / "merged")).run(spec)
        assert merged_run.all_cached
        assert canonical_json(serial.aggregates()) == canonical_json(
            merged_run.aggregates()
        )

    def test_merge_is_order_independent(self, tmp_path):
        spec = small_spec(repeats=2)
        for i in range(2):
            CampaignRunner(TrialStore(tmp_path / f"w{i}")).run(
                spec, shard=Shard(index=i, total=2)
            )
        merge_stores(tmp_path / "ab", [tmp_path / "w0", tmp_path / "w1"])
        merge_stores(tmp_path / "ba", [tmp_path / "w1", tmp_path / "w0"])
        ab = {p.name: p.read_bytes() for p in (tmp_path / "ab" / "shards").glob("*")}
        ba = {p.name: p.read_bytes() for p in (tmp_path / "ba" / "shards").glob("*")}
        assert ab == ba

    def test_sharded_status_counts_only_owned_cells(self, tmp_path):
        spec = small_spec()
        store = TrialStore(tmp_path / "store")
        shard = Shard(index=0, total=2)
        runner = CampaignRunner(store)
        status = runner.status(spec, shard=shard)
        assert status.total == len(partition_cells(spec.cells(), shard))
        runner.run(spec, shard=shard)
        assert runner.status(spec, shard=shard).all_cached
        assert not runner.status(spec).all_cached


class TestMerge:
    def seed_store(self, root, key=KEY, seed=1):
        store = TrialStore(root)
        store.put(key, make_batch(seed=seed))
        return store

    def test_identical_duplicates_collapse(self, tmp_path):
        self.seed_store(tmp_path / "a")
        self.seed_store(tmp_path / "b")
        report = merge_stores(tmp_path / "dest", [tmp_path / "a", tmp_path / "b"])
        assert report.merged == 1
        assert report.identical_duplicates == 1
        assert report.dest_cells == 1
        assert TrialStore(tmp_path / "dest").get(KEY) is not None

    def test_conflicting_payloads_refuse_and_write_nothing(self, tmp_path):
        self.seed_store(tmp_path / "a", seed=1)
        self.seed_store(tmp_path / "b", seed=2)  # same key, different batch
        with pytest.raises(MergeConflictError) as excinfo:
            merge_stores(tmp_path / "dest", [tmp_path / "a", tmp_path / "b"])
        assert KEY in str(excinfo.value)
        assert str(tmp_path / "a") in str(excinfo.value)
        assert str(tmp_path / "b") in str(excinfo.value)
        assert len(TrialStore(tmp_path / "dest")) == 0

    def test_dest_participates_in_conflict_detection(self, tmp_path):
        self.seed_store(tmp_path / "dest", seed=1)
        self.seed_store(tmp_path / "src", seed=2)
        with pytest.raises(MergeConflictError):
            merge_stores(tmp_path / "dest", [tmp_path / "src"])
        assert TrialStore(tmp_path / "dest").get(KEY).seed == 1

    def test_all_conflicts_reported_at_once(self, tmp_path):
        a = self.seed_store(tmp_path / "a", seed=1)
        a.put(OTHER_KEY, make_batch(seed=3))
        b = self.seed_store(tmp_path / "b", seed=2)
        b.put(OTHER_KEY, make_batch(seed=4))
        with pytest.raises(MergeConflictError) as excinfo:
            merge_stores(tmp_path / "dest", [tmp_path / "a", tmp_path / "b"])
        assert len(excinfo.value.conflicts) == 2

    def test_merge_into_existing_dest_adds_only_fresh(self, tmp_path):
        self.seed_store(tmp_path / "dest", key=KEY, seed=1)
        self.seed_store(tmp_path / "src", key=OTHER_KEY, seed=2)
        report = merge_stores(tmp_path / "dest", [tmp_path / "src"])
        assert report.already_present == 1
        assert report.merged == 1
        assert report.dest_cells == 2

    def test_dry_run_writes_nothing(self, tmp_path):
        self.seed_store(tmp_path / "src")
        report = merge_stores(tmp_path / "dest", [tmp_path / "src"], dry_run=True)
        assert report.merged == 1
        assert len(TrialStore(tmp_path / "dest")) == 0

    def test_corrupt_source_lines_are_skipped_and_counted(self, tmp_path):
        self.seed_store(tmp_path / "src")
        shard = tmp_path / "src" / "shards" / "ab.jsonl"
        shard.write_text("garbage\n" + shard.read_text())
        report = merge_stores(tmp_path / "dest", [tmp_path / "src"])
        assert report.corrupt_skipped[str(tmp_path / "src")] == 1
        assert report.merged == 1

    def test_merge_rejects_self_and_non_stores(self, tmp_path):
        self.seed_store(tmp_path / "a")
        with pytest.raises(ValueError, match="destination"):
            merge_stores(tmp_path / "a", [tmp_path / "a"])
        with pytest.raises(ValueError, match="not a TrialStore"):
            merge_stores(tmp_path / "dest", [tmp_path / "nowhere"])
        with pytest.raises(ValueError, match="at least one source"):
            merge_stores(tmp_path / "dest", [])

    def test_merge_is_crash_healed(self, tmp_path):
        # Re-running a merge that already (fully or partially) landed
        # converges: second run merges nothing new, bytes unchanged.
        self.seed_store(tmp_path / "src")
        merge_stores(tmp_path / "dest", [tmp_path / "src"])
        before = (tmp_path / "dest" / "shards" / "ab.jsonl").read_bytes()
        report = merge_stores(tmp_path / "dest", [tmp_path / "src"])
        assert report.merged == 0
        assert report.identical_duplicates == 1
        assert (tmp_path / "dest" / "shards" / "ab.jsonl").read_bytes() == before

    def test_report_renders(self, tmp_path):
        self.seed_store(tmp_path / "src")
        report = merge_stores(tmp_path / "dest", [tmp_path / "src"])
        text = report.render_text()
        assert "merged 1 new cell(s)" in text
        json.dumps(report.as_dict())


class TestStoreRecordsApi:
    def test_records_round_trip_through_write_records(self, tmp_path):
        src = TrialStore(tmp_path / "src")
        src.put(KEY, make_batch(seed=1))
        src.put(OTHER_KEY, make_batch(seed=2))
        dest = TrialStore(tmp_path / "dest")
        dest.write_records(dict(src.records()))
        assert sorted(dest.keys()) == sorted(src.keys())
        assert dest.get(KEY).seed == 1

    def test_write_records_rejects_mismatched_key(self, tmp_path):
        src = TrialStore(tmp_path / "src")
        src.put(KEY, make_batch())
        (_key, record), = list(src.records())
        with pytest.raises(ValueError, match="malformed record"):
            TrialStore(tmp_path / "dest").write_records({OTHER_KEY: record})

