package ingest

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dio/internal/obs"
	"dio/internal/tsdb"
)

// Store pairs the in-memory chunked TSDB with the WAL to make ingest
// durable: an append is acknowledged only after its WAL record is fsynced,
// and Open recovers the exact acknowledged state after a crash by loading
// the newest checkpoint and replaying the segments it does not cover.
//
// Checkpoint files are chunked snapshots named checkpoint-%08d.chunks,
// where the number N is a WAL segment index: the checkpoint contains all
// samples from segments < N, so those segments are deletable. Recovery is
// idempotent because the TSDB treats an identical (t, v) re-append as a
// no-op and rejects older timestamps — replaying a segment that overlaps
// the checkpoint cannot corrupt or duplicate anything.
//
// Earlier versions of the store, which could shard the TSDB, wrote a
// checkpoint as a per-shard set, checkpoint-%08d.s%03d-of-%03d.chunks,
// one file per shard. The store no longer writes that layout but still
// reads it, so a data directory written by such a version keeps its data
// across an upgrade: a complete set loads into the one DB (see
// loadCheckpoint), and the next Checkpoint writes the single-file format
// and garbage-collects the set. A set counts only when every file for its
// segment exists; an incomplete one (a crash mid-checkpoint) falls back
// to the previous complete checkpoint plus a longer replay.
type Store struct {
	dir  string
	db   *tsdb.DB
	wal  *WAL
	opts StoreOptions

	// mu orders appends against checkpoints: appends hold RLock across
	// {WAL write, TSDB apply} so a checkpoint (Lock during WAL rotation)
	// can only observe states where every sample in a pre-rotation
	// segment is also in the TSDB.
	mu sync.RWMutex

	replay ReplayStats

	appended   atomic.Int64
	outOfOrder atomic.Int64
	duplicates atomic.Int64

	// Metric handles are installed by Instrument (possibly after traffic
	// has started), hence the atomics.
	mAppended   atomic.Pointer[obs.Counter]
	mOutOfOrder atomic.Pointer[obs.Counter]
	mDuplicate  atomic.Pointer[obs.Counter]
	mFsync      atomic.Pointer[obs.Histogram]
	mWALBytes   atomic.Pointer[obs.Counter]
	mCheckpoint atomic.Pointer[obs.Counter]
}

// StoreOptions configure the durable store.
type StoreOptions struct {
	// FsyncInterval and SegmentBytes are passed to the WAL.
	FsyncInterval time.Duration
	SegmentBytes  int64
	// Shards must be 0 or 1: the store has one layout, a single DB. The
	// field remains only because existing callers set Shards: 1; any
	// other value makes OpenStore fail.
	Shards int
}

const checkpointPrefix = "checkpoint-"
const checkpointSuffix = ".chunks"

func checkpointName(seg int) string {
	return fmt.Sprintf("%s%08d%s", checkpointPrefix, seg, checkpointSuffix)
}

// shardCheckpointName names shard i's file in an of-shard checkpoint set
// for segment seg — the layout earlier versions wrote, read-only here.
func shardCheckpointName(seg, i, of int) string {
	return fmt.Sprintf("%s%08d.s%03d-of-%03d%s", checkpointPrefix, seg, i, of, checkpointSuffix)
}

// checkpointID identifies one checkpoint file: the WAL segment it covers
// and, for per-shard files, which shard out of how many. Single-file
// checkpoints have of == 0.
type checkpointID struct {
	seg   int
	shard int
	of    int
}

func parseCheckpointName(name string) (checkpointID, bool) {
	if !strings.HasPrefix(name, checkpointPrefix) || !strings.HasSuffix(name, checkpointSuffix) {
		return checkpointID{}, false
	}
	body := strings.TrimSuffix(strings.TrimPrefix(name, checkpointPrefix), checkpointSuffix)
	segStr, shardStr, sharded := strings.Cut(body, ".s")
	seg, err := strconv.Atoi(segStr)
	if err != nil || seg < 0 {
		return checkpointID{}, false
	}
	if !sharded {
		return checkpointID{seg: seg}, true
	}
	iStr, ofStr, ok := strings.Cut(shardStr, "-of-")
	if !ok {
		return checkpointID{}, false
	}
	i, err := strconv.Atoi(iStr)
	if err != nil || i < 0 {
		return checkpointID{}, false
	}
	of, err := strconv.Atoi(ofStr)
	if err != nil || of <= i {
		return checkpointID{}, false
	}
	return checkpointID{seg: seg, shard: i, of: of}, true
}

// completeCheckpoint describes a loadable checkpoint: the segment it
// covers and the shard layout it was written under (of == 0: one file).
type completeCheckpoint struct {
	seg int
	of  int
}

// listCheckpoints returns every complete checkpoint in dir, sorted by
// segment. A per-shard set counts only when all of its files exist; a
// partial set (crash mid-checkpoint) is invisible here and removed by the
// next successful Checkpoint's GC.
func listCheckpoints(dir string) ([]completeCheckpoint, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	type key struct{ seg, of int }
	present := make(map[key]int)
	for _, e := range ents {
		if id, ok := parseCheckpointName(e.Name()); ok {
			present[key{id.seg, id.of}]++
		}
	}
	var cps []completeCheckpoint
	for k, n := range present {
		if k.of == 0 || n == k.of {
			cps = append(cps, completeCheckpoint{seg: k.seg, of: k.of})
		}
	}
	sort.Slice(cps, func(i, j int) bool {
		if cps[i].seg != cps[j].seg {
			return cps[i].seg < cps[j].seg
		}
		return cps[i].of < cps[j].of
	})
	return cps, nil
}

// loadCheckpoint reads a complete checkpoint into one DB. A per-shard set
// loads file by file: fingerprint routing put every series in exactly one
// file, so appending each file's series (already in timestamp order)
// rebuilds the store exactly.
func loadCheckpoint(dir string, cp completeCheckpoint) (*tsdb.DB, error) {
	loadOne := func(name string) (*tsdb.DB, error) {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return tsdb.LoadChunkedSnapshot(f)
	}
	if cp.of == 0 {
		db, err := loadOne(checkpointName(cp.seg))
		if err != nil {
			return nil, fmt.Errorf("ingest: load checkpoint %d: %w", cp.seg, err)
		}
		return db, nil
	}
	db := tsdb.New()
	for i := 0; i < cp.of; i++ {
		part, err := loadOne(shardCheckpointName(cp.seg, i, cp.of))
		if err != nil {
			return nil, fmt.Errorf("ingest: load checkpoint %d shard %d/%d: %w", cp.seg, i, cp.of, err)
		}
		for _, sr := range part.AllSeries() {
			if _, _, _, err := db.AppendSamples(sr.Labels, sr.Samples); err != nil {
				return nil, fmt.Errorf("ingest: load checkpoint %d shard %d/%d: %w", cp.seg, i, cp.of, err)
			}
		}
	}
	return db, nil
}

// OpenStore recovers (or initialises) the durable store rooted at dir.
// The layout is dir/checkpoint-*.chunks plus dir/wal/ segments.
func OpenStore(dir string, opts StoreOptions) (*Store, error) {
	if opts.Shards > 1 || opts.Shards < 0 {
		return nil, fmt.Errorf("ingest: StoreOptions.Shards = %d: only the single-DB layout (0 or 1) is supported", opts.Shards)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{dir: dir, opts: opts}

	// 1. Newest complete checkpoint, if any, seeds the TSDB.
	cps, err := listCheckpoints(dir)
	if err != nil {
		return nil, err
	}
	fromSeg := 0
	if len(cps) > 0 {
		newest := cps[len(cps)-1]
		fromSeg = newest.seg
		if s.db, err = loadCheckpoint(dir, newest); err != nil {
			return nil, err
		}
	} else {
		s.db = tsdb.New()
	}

	// 2. Replay WAL segments the checkpoint does not cover. Overlap with
	// the checkpoint is expected (rotation happens before the snapshot);
	// the append policy makes the replay idempotent.
	walDir := filepath.Join(dir, "wal")
	st, err := ReplayWAL(walDir, fromSeg, func(ls tsdb.Labels, t int64, v float64) error {
		err := s.db.Append(ls, t, v)
		switch {
		case err == nil:
		case errors.Is(err, tsdb.ErrOutOfOrder):
			// Already present via the checkpoint (or rejected before the
			// crash): skip, exactly as the original append did.
		default:
			return err
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	s.replay = st

	// 3. Open the WAL for new appends (always a fresh segment).
	wal, err := OpenWAL(walDir, WALOptions{
		SegmentBytes:  opts.SegmentBytes,
		FsyncInterval: opts.FsyncInterval,
		OnFsync: func(sec float64) {
			if h := s.mFsync.Load(); h != nil {
				h.Observe(sec)
			}
		},
		OnWrite: func(n int) {
			if c := s.mWALBytes.Load(); c != nil {
				c.Add(float64(n))
			}
		},
	})
	if err != nil {
		return nil, err
	}
	s.wal = wal
	return s, nil
}

// DB exposes the underlying TSDB for the query engine. Reads are safe
// concurrently with appends; writes must go through Store.Append.
func (s *Store) DB() *tsdb.DB { return s.db }

// ReplayStats reports what crash recovery had to do when the store was
// opened.
func (s *Store) ReplayStats() ReplayStats { return s.replay }

// AppendStats summarises one Append call.
type AppendStats struct {
	// Appended counts accepted samples, including idempotent re-appends
	// of the series head with an identical value (already durable, so
	// acknowledging them again is truthful).
	Appended   int
	OutOfOrder int // samples older than the series head, dropped
	Duplicate  int // same timestamp as the head with a different value, dropped
}

// Append logs the batch to the WAL, applies it to the TSDB, and waits for
// the WAL record to be durable before returning. Out-of-order and
// duplicate samples are dropped and counted (Prometheus remote-write
// semantics) — only I/O or WAL failures make the whole call fail, and a
// failed call means the batch was NOT acknowledged.
func (s *Store) Append(batch []TimeSeries) (AppendStats, error) {
	var st AppendStats
	s.mu.RLock()
	mark, err := s.wal.Log(batch)
	if err != nil {
		s.mu.RUnlock()
		return st, err
	}
	for _, ts := range batch {
		// One lock acquisition per series, not per sample — at streaming
		// rates the per-sample path lets concurrent dashboard readers
		// starve the writers.
		appended, ooo, dup, err := s.db.AppendSamples(ts.Labels, ts.Samples)
		if err != nil {
			s.mu.RUnlock()
			return st, err
		}
		st.Appended += appended
		st.OutOfOrder += ooo
		st.Duplicate += dup
	}
	s.mu.RUnlock()

	// Acknowledge only after the WAL record is on disk. The mark makes
	// this a group commit: one fsync covers every batch written since the
	// previous one.
	if err := s.wal.WaitDurable(mark); err != nil {
		return st, err
	}
	s.appended.Add(int64(st.Appended))
	s.outOfOrder.Add(int64(st.OutOfOrder))
	s.duplicates.Add(int64(st.Duplicate))
	if c := s.mAppended.Load(); c != nil {
		c.Add(float64(st.Appended))
	}
	if c := s.mOutOfOrder.Load(); c != nil {
		c.Add(float64(st.OutOfOrder))
	}
	if c := s.mDuplicate.Load(); c != nil {
		c.Add(float64(st.Duplicate))
	}
	return st, nil
}

// Checkpoint writes a chunked snapshot covering every WAL segment before
// the current one, then deletes those segments and older checkpoints.
// Appends continue concurrently: only the segment rotation excludes them.
func (s *Store) Checkpoint() error {
	// Rotation under the write lock: afterwards every sample in segments
	// < newSeg is guaranteed to be in the TSDB, so the snapshot taken
	// below covers them.
	s.mu.Lock()
	newSeg, err := s.wal.Rotate()
	s.mu.Unlock()
	if err != nil {
		return err
	}

	tmp, err := os.CreateTemp(s.dir, checkpointPrefix+"*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := s.db.SnapshotChunked(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := fsyncFile(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), filepath.Join(s.dir, checkpointName(newSeg))); err != nil {
		return err
	}
	if d, err := os.Open(s.dir); err == nil {
		fsyncFile(d)
		d.Close()
	}

	// Garbage-collect what the new checkpoint supersedes: covered WAL
	// segments, older checkpoints in either layout, and any per-shard set
	// for this same segment.
	if err := s.wal.DeleteSegmentsBefore(newSeg); err != nil {
		return err
	}
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		id, ok := parseCheckpointName(e.Name())
		if !ok {
			continue
		}
		if id.seg < newSeg || (id.seg == newSeg && id.of != 0) {
			if err := os.Remove(filepath.Join(s.dir, e.Name())); err != nil {
				return err
			}
		}
	}
	if c := s.mCheckpoint.Load(); c != nil {
		c.Inc()
	}
	return nil
}

// Truncate drops samples at or before keepAfter from the TSDB and
// immediately checkpoints, so a restart cannot resurrect them from the
// WAL. Returns the number of samples dropped.
func (s *Store) Truncate(keepAfter int64) (int64, error) {
	dropped := s.db.Truncate(keepAfter)
	if err := s.Checkpoint(); err != nil {
		return dropped, err
	}
	return dropped, nil
}

// Close flushes and closes the WAL. The TSDB stays readable.
func (s *Store) Close() error {
	return s.wal.Close()
}

// Instrument registers the subsystem's metrics. Counters pick up totals
// accumulated before instrumentation (replay happens during Open).
func (s *Store) Instrument(reg *obs.Registry) {
	appended := reg.Counter("dio_ingest_appended_samples_total",
		"Samples durably appended through the ingest store.", "samples")
	appended.Add(float64(s.appended.Load()))
	s.mAppended.Store(appended)

	ooo := reg.Counter("dio_ingest_out_of_order_total",
		"Ingest samples dropped for being older than the series head.", "samples")
	ooo.Add(float64(s.outOfOrder.Load()))
	s.mOutOfOrder.Store(ooo)

	dup := reg.Counter("dio_ingest_duplicate_total",
		"Ingest samples dropped for reusing the head timestamp with a different value.", "samples")
	dup.Add(float64(s.duplicates.Load()))
	s.mDuplicate.Store(dup)

	s.mFsync.Store(reg.Histogram("dio_wal_fsync_seconds",
		"WAL fsync latency.", "seconds", obs.ExponentialBuckets(0.0001, 4, 8)))
	s.mWALBytes.Store(reg.Counter("dio_wal_bytes_written_total",
		"Bytes of framed records written to the WAL.", "bytes"))
	s.mCheckpoint.Store(reg.Counter("dio_ingest_checkpoints_total",
		"Checkpoints written by the ingest store.", "checkpoints"))

	reg.Counter("dio_wal_replay_samples_total",
		"Samples replayed from the WAL at startup.", "samples").Add(float64(s.replay.Samples))
	reg.Counter("dio_wal_replay_segments_total",
		"WAL segments replayed at startup.", "segments").Add(float64(s.replay.Segments))

	reg.GaugeFunc("dio_tsdb_chunk_bytes",
		"Bytes held in sealed and head chunks across all series.", "bytes",
		func() float64 { return float64(s.db.Stats().ChunkBytes) })
	reg.GaugeFunc("dio_tsdb_bytes_per_sample",
		"Average encoded bytes per stored sample.", "bytes",
		func() float64 { return s.db.Stats().BytesPerSample })
	reg.GaugeFunc("dio_tsdb_compression_ratio",
		"Raw 16-byte samples over encoded chunk bytes.", "ratio",
		func() float64 { return s.db.Stats().CompressionRatio })

}
