package ingest

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dio/internal/tsdb"
)

// legacySetDir writes a store into a fresh directory, checkpoints it,
// appends a WAL tail after the checkpoint, then rewrites the single-file
// checkpoint as a 2-file per-shard set (the layout earlier versions'
// sharded store wrote) under the set's names: series split across the
// files, none spanning two. It returns the directory, the reference of
// every acknowledged sample, the set's segment and the checkpoint's
// contents as the single file held them.
func legacySetDir(t *testing.T) (dir string, ref, single *tsdb.DB, seg, of int) {
	t.Helper()
	dir = t.TempDir()
	batches, ref := scrapeBatches(12, 4, 8)
	st, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches[:2] {
		if _, err := st.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Tail after the checkpoint: recovered via WAL replay on top of it.
	for _, b := range batches[2:] {
		if _, err := st.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	names := checkpointFiles(t, dir)
	if len(names) != 1 {
		t.Fatalf("want one single-file checkpoint, have %v", names)
	}
	id, _ := parseCheckpointName(names[0])
	single = loadSnapshotFile(t, filepath.Join(dir, names[0]))
	parts := []*tsdb.DB{tsdb.New(), tsdb.New()}
	for i, sr := range single.AllSeries() {
		if _, _, _, err := parts[i%2].AppendSamples(sr.Labels, sr.Samples); err != nil {
			t.Fatal(err)
		}
	}
	for i, part := range parts {
		if part.NumSeries() == 0 {
			t.Fatalf("set file %d is empty; fixture degenerate", i)
		}
		writeSnapshotFile(t, part, filepath.Join(dir, shardCheckpointName(id.seg, i, len(parts))))
	}
	if err := os.Remove(filepath.Join(dir, names[0])); err != nil {
		t.Fatal(err)
	}
	return dir, ref, single, id.seg, len(parts)
}

// TestShardedStoreCheckpointSet: a complete per-shard checkpoint set must
// load into the one DB exactly as the single-file checkpoint of the same
// data, and recovery from the set plus the post-checkpoint WAL tail must
// be exact.
func TestShardedStoreCheckpointSet(t *testing.T) {
	dir, ref, single, seg, of := legacySetDir(t)
	names := checkpointFiles(t, dir)
	if len(names) != of {
		t.Fatalf("want a %d-file set, have %v", of, names)
	}
	for _, n := range names {
		if !strings.Contains(n, "-of-") {
			t.Fatalf("unexpected checkpoint file name %q", n)
		}
	}

	loaded, err := loadCheckpoint(dir, completeCheckpoint{seg: seg, of: of})
	if err != nil {
		t.Fatal(err)
	}
	identicalStores(t, loaded, single)

	re, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	identicalStores(t, re.DB(), ref)
	if rs := re.ReplayStats(); rs.Samples == 0 {
		t.Fatal("expected WAL replay on top of the checkpoint set")
	}
}

// TestShardedStoreReshardOnReopen: a data directory whose newest
// checkpoint is a per-shard set must reopen into the one DB with every
// acknowledged sample, the next Checkpoint must replace the set with the
// single-file format, and a reopen from that must still be exact.
func TestShardedStoreReshardOnReopen(t *testing.T) {
	dir, ref, _, _, _ := legacySetDir(t)

	re, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	identicalStores(t, re.DB(), ref)
	if err := re.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	re.Close()
	names := checkpointFiles(t, dir)
	if len(names) != 1 {
		t.Fatalf("after Checkpoint want one checkpoint file, have %v", names)
	}
	for _, n := range names {
		if strings.Contains(n, "-of-") {
			t.Fatalf("per-shard checkpoint file %q survived Checkpoint", n)
		}
	}

	again, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	identicalStores(t, again.DB(), ref)
}

// TestShardedStoreIncompleteSetFallsBack: a crash between the renames of
// a per-shard checkpoint set (written by an earlier version) leaves a
// partial set on disk — but the WAL segments it would have covered are
// still present, because segment GC ran only after the last rename.
// Recovery must ignore the partial set (never even open its files) and
// rebuild the exact acknowledged state from the previous complete
// checkpoint plus WAL replay.
func TestShardedStoreIncompleteSetFallsBack(t *testing.T) {
	dir := t.TempDir()
	batches, ref := scrapeBatches(12, 4, 8)
	st, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches[:2] {
		if _, err := st.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for _, b := range batches[2:] {
		if _, err := st.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	// Simulated mid-checkpoint crash: two files of a newer 4-shard set
	// made it to disk before the process died. Their content is garbage —
	// if recovery ever opens them, it fails loudly instead of silently
	// regressing to an older state.
	for i := 0; i < 2; i++ {
		if err := os.WriteFile(filepath.Join(dir, shardCheckpointName(999, i, 4)), []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cps, err := listCheckpoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, cp := range cps {
		if cp.seg == 999 {
			t.Fatalf("partial set listed as complete: %+v", cps)
		}
	}

	re, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	identicalStores(t, re.DB(), ref)
	if rs := re.ReplayStats(); rs.Samples == 0 {
		t.Fatal("expected WAL replay on top of the older complete checkpoint")
	}
}

// TestStoreRejectsShards: the store has one layout; StoreOptions.Shards
// accepts only 0 and 1.
func TestStoreRejectsShards(t *testing.T) {
	for _, shards := range []int{0, 1} {
		st, err := OpenStore(t.TempDir(), StoreOptions{Shards: shards})
		if err != nil {
			t.Fatalf("Shards: %d: %v", shards, err)
		}
		st.Close()
	}
	for _, shards := range []int{2, -1} {
		if _, err := OpenStore(t.TempDir(), StoreOptions{Shards: shards}); err == nil {
			t.Fatalf("Shards: %d: OpenStore succeeded, want an error", shards)
		}
	}
}

// checkpointFiles lists checkpoint-prefixed non-temp files in dir, sorted.
func checkpointFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		if _, ok := parseCheckpointName(e.Name()); ok {
			names = append(names, e.Name())
		}
	}
	return names
}

func loadSnapshotFile(t *testing.T, path string) *tsdb.DB {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	db, err := tsdb.LoadChunkedSnapshot(f)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func writeSnapshotFile(t *testing.T, db *tsdb.DB, path string) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.SnapshotChunked(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}
