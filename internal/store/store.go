// Package store is the crowd backend's submission store: a sharded,
// mutex-striped in-memory index of every upload, keyed by device model.
//
// The crowd service's hot path is highly concurrent — ingest workers
// appending submissions while replication, anti-entropy and HTTP readers
// scan whole models — so a single lock would serialize everything. The store stripes
// its state across a fixed set of shards, each guarded by its own RWMutex:
// a model's submission list lives in the shard its name hashes to, and a
// secondary stripe indexes individual devices for point lookups. Writers
// touching different models (or different devices) proceed in parallel;
// readers take shared locks and return defensive copies, so callers never
// observe a slice mid-append.
//
// The store itself is volatile; durability is layered on top by
// internal/wal. Three hooks exist for it: PutSeq inserts a record whose
// sequence number was already assigned at the log's commit point, Snapshot
// iterates the whole store deterministically for checkpointing, and
// Restore rebuilds a store from a snapshot at boot.
//
// Replication (internal/replication) layers on a second identity: records
// ingested by a cluster node carry a hybrid-logical-clock stamp plus the
// origin node's ID, which together form a globally unique Key. The store
// tracks every key it holds (Reserve is the idempotence gate replicated
// applies go through), folds each model's records into an
// order-independent Digest for anti-entropy comparison, and resolves
// per-device "latest" by stamp rather than node-local sequence number so
// every replica converges to the same bins.
package store

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"accubench/internal/hlc"
	"accubench/internal/obs"
	"accubench/internal/stats"
	"accubench/internal/units"
)

// Record is one stored submission after the backend's per-submission pass:
// the upload plus the verdict the ingest pipeline reached.
type Record struct {
	// Device is the unit's anonymous identifier.
	Device string `json:"device"`
	// Model is the handset model the unit reported.
	Model string `json:"model"`
	// Score is the ACCUBENCH performance score.
	Score float64 `json:"score"`
	// EstimatedAmbient is the backend's ambient estimate from the cooldown
	// trace; zero when estimation failed.
	EstimatedAmbient units.Celsius `json:"estimated_ambient_c"`
	// Accepted reports whether the submission survived the strict filters.
	Accepted bool `json:"accepted"`
	// RejectReason says why a rejected submission was rejected.
	RejectReason string `json:"reject_reason,omitempty"`
	// Seq is the store's global arrival sequence number, assigned by Put.
	// It is node-local: the same record replicated to another node gets
	// that node's next sequence number there.
	Seq uint64 `json:"seq"`
	// HLCWall and HLCLogical are the hybrid-logical-clock stamp assigned
	// once, by the node that first ingested the submission; they travel
	// with the record through the WAL and replication unchanged. Zero on
	// records from a single-node (non-cluster) deployment.
	HLCWall    int64  `json:"hlc_wall,omitempty"`
	HLCLogical uint16 `json:"hlc_logical,omitempty"`
	// Origin is the node ID that ingested the submission; with the stamp
	// it forms the record's globally unique replication identity.
	Origin string `json:"origin,omitempty"`
}

// Stamp returns the record's hybrid-logical-clock stamp (zero when the
// record was ingested outside a cluster).
func (r Record) Stamp() hlc.Timestamp {
	return hlc.Timestamp{Wall: r.HLCWall, Logical: r.HLCLogical}
}

// SetStamp stamps the record with its replication identity.
func (r *Record) SetStamp(origin string, ts hlc.Timestamp) {
	r.Origin = origin
	r.HLCWall = ts.Wall
	r.HLCLogical = ts.Logical
}

// Key is a record's globally unique replication identity: the HLC stamp
// plus the node that issued it. Two nodes can never mint the same key —
// stamps are unique per clock and Origin separates clocks — which is
// what makes replicated applies idempotent.
type Key struct {
	Origin  string
	Wall    int64
	Logical uint16
}

// Key returns the record's replication identity; ok is false for
// unstamped (single-node) records, which have no cross-node identity.
func (r Record) Key() (Key, bool) {
	if r.Origin == "" || r.Stamp().IsZero() {
		return Key{}, false
	}
	return Key{Origin: r.Origin, Wall: r.HLCWall, Logical: r.HLCLogical}, true
}

// after reports whether r supersedes o as a device's latest record: by
// HLC stamp when either carries one (origin breaks exact-stamp ties),
// by node-local sequence number otherwise. This is the ordering every
// replica agrees on, so converged stores bin identically.
func (r Record) after(o Record) bool {
	a, b := r.Stamp(), o.Stamp()
	if !a.IsZero() || !b.IsZero() {
		if c := a.Compare(b); c != 0 {
			return c > 0
		}
		if r.Origin != o.Origin {
			return r.Origin > o.Origin
		}
	}
	return r.Seq > o.Seq
}

// Store is the sharded submission store. The zero value is not usable; use
// New.
type Store struct {
	modelShards  []modelShard
	deviceShards []deviceShard
	sketchShards []sketchShard
	seq          atomic.Uint64
	total        atomic.Int64
	accepted     atomic.Int64

	// Observability hooks, nil until Instrument: per-shard occupancy
	// gauges and put counters (write-skew visibility), plus a lock-wait
	// histogram (stripe contention).
	shardOcc  []*obs.Gauge
	shardPuts []*obs.Counter
	lockWait  *obs.Histogram
}

type modelShard struct {
	mu     sync.RWMutex
	models map[string][]Record
	// seen tracks the replication identity of every stamped record in
	// this shard (plus in-flight reservations) — the idempotence gate for
	// replicated applies.
	seen map[Key]struct{}
}

type deviceShard struct {
	mu      sync.RWMutex
	devices map[string]Record
}

// sketchShard stripes the per-model population sketches the binner
// folds instead of scanning the corpus. Each model's sketch lives
// in the shard its name hashes to — the same index as its model shard —
// but under its own lock: sketch maintenance is a commit-path side
// effect that must not extend the model stripe's hold time, and bins
// reads must not contend with history appends.
type sketchShard struct {
	mu       sync.Mutex
	sketches map[string]*modelSketch
}

// modelSketch is one model's streaming population summary: the sketch of
// the latest accepted record per device, plus the per-device latest map
// that decides each record's delta. Keeping the latest map here — keyed
// per (model, device), unlike the global device stripe — pins the
// sketch's population definition to the latest record per device within
// the model: a device resubmitting under a different model leaves its
// old model's population untouched.
type modelSketch struct {
	sk *stats.BinSketch
	// rev increments on every mutation — the binner's cache invalidation
	// key.
	rev uint64
	// latest is the winning record per device within this model, by
	// Record.after — the order every replica agrees on. Application is
	// order-independent: whichever of two records lands first, the
	// winner's observation is in the sketch and the loser's is not.
	latest map[string]Record
}

// DefaultShards is the shard count New falls back to for n <= 0.
const DefaultShards = 16

// New creates a store striped across n shards (DefaultShards if n <= 0).
func New(n int) *Store {
	if n <= 0 {
		n = DefaultShards
	}
	s := &Store{
		modelShards:  make([]modelShard, n),
		deviceShards: make([]deviceShard, n),
		sketchShards: make([]sketchShard, n),
	}
	for i := range s.modelShards {
		s.modelShards[i].models = make(map[string][]Record)
		s.modelShards[i].seen = make(map[Key]struct{})
		s.deviceShards[i].devices = make(map[string]Record)
		s.sketchShards[i].sketches = make(map[string]*modelSketch)
	}
	return s
}

// Shards returns the stripe width.
func (s *Store) Shards() int { return len(s.modelShards) }

// Instrument registers the store's observability metrics: a
// store_shard_records occupancy gauge and a store_shard_puts_total
// counter per model shard (the write-skew view — a hot model shows up
// as one shard's counters running away), and a store_lock_wait_seconds
// histogram measuring how long writers wait for a stripe lock (the
// contention view). Call it before the store is shared; instrumentation
// is all-or-nothing and adds one gauge update plus two clock reads per
// put.
func (s *Store) Instrument(reg *obs.Registry) {
	occ := reg.GaugeVec("store_shard_records",
		"records held per model shard — stripe occupancy", "shard")
	puts := reg.CounterVec("store_shard_puts_total",
		"records inserted per model shard — write skew", "shard")
	s.shardOcc = make([]*obs.Gauge, len(s.modelShards))
	s.shardPuts = make([]*obs.Counter, len(s.modelShards))
	for i := range s.modelShards {
		label := strconv.Itoa(i)
		s.shardOcc[i] = occ.With(label)
		s.shardPuts[i] = puts.With(label)
	}
	s.lockWait = reg.Histogram("store_lock_wait_seconds",
		"time writers wait to acquire a model-shard lock — stripe contention", obs.DurationBuckets)
}

// lockShard acquires the model shard's write lock, observing the wait
// when instrumented.
func (s *Store) lockShard(ms *modelShard) {
	if s.lockWait == nil {
		ms.mu.Lock()
		return
	}
	t0 := time.Now()
	ms.mu.Lock()
	s.lockWait.Observe(time.Since(t0).Seconds())
}

// noteInsert updates the shard's observability counters after an
// insert.
func (s *Store) noteInsert(idx int) {
	if s.shardOcc != nil {
		s.shardOcc[idx].Add(1)
		s.shardPuts[idx].Inc()
	}
}

func (s *Store) shardIndex(key string) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(len(s.modelShards)))
}

// validate rejects records the store cannot key.
func validate(r Record) error {
	if r.Model == "" {
		return fmt.Errorf("store: record without model")
	}
	if r.Device == "" {
		return fmt.Errorf("store: record without device")
	}
	return nil
}

// Put stores a submission record, assigns its arrival sequence number and
// returns it. A device resubmitting replaces its previous point-lookup
// entry but still appends to the model history (the bins are computed over
// the latest record per device).
func (s *Store) Put(r Record) (uint64, error) {
	if err := validate(r); err != nil {
		return 0, err
	}
	// Seq is assigned under the model shard's lock so that a model's
	// history is sorted by sequence number as well as by arrival.
	idx := s.shardIndex(r.Model)
	ms := &s.modelShards[idx]
	s.lockShard(ms)
	r.Seq = s.seq.Add(1)
	ms.models[r.Model] = append(ms.models[r.Model], r)
	if k, ok := r.Key(); ok {
		ms.seen[k] = struct{}{}
	}
	ms.mu.Unlock()

	s.noteInsert(idx)
	s.finishPut(r)
	s.noteSketch(r)
	return r.Seq, nil
}

// PutSeq stores a record whose sequence number was already assigned
// upstream — by the WAL's commit point, or by a snapshot being restored.
// The model history stays sorted by sequence number even when concurrent
// committers land out of order, and a device's point-lookup entry is only
// replaced by a record with a higher sequence number, so replaying a log
// always converges to the same state the live writes produced.
func (s *Store) PutSeq(r Record) error {
	if err := validate(r); err != nil {
		return err
	}
	if r.Seq == 0 {
		return fmt.Errorf("store: PutSeq needs an assigned sequence number")
	}
	// Raise the global high-water mark first so an interleaved Put can
	// never hand out a duplicate.
	for {
		cur := s.seq.Load()
		if r.Seq <= cur || s.seq.CompareAndSwap(cur, r.Seq) {
			break
		}
	}
	idx := s.shardIndex(r.Model)
	ms := &s.modelShards[idx]
	s.lockShard(ms)
	insertSeqLocked(ms, r)
	ms.mu.Unlock()

	s.noteInsert(idx)
	s.finishPut(r)
	s.noteSketch(r)
	return nil
}

// insertSeqLocked sorted-inserts a pre-sequenced record into the shard's
// model history and registers its replication key; the caller holds the
// shard's write lock. Insertion keeps the history sorted by sequence
// number even when concurrent committers land out of order.
func insertSeqLocked(ms *modelShard, r Record) {
	recs := ms.models[r.Model]
	i := len(recs)
	for i > 0 && recs[i-1].Seq > r.Seq {
		i--
	}
	recs = append(recs, Record{})
	copy(recs[i+1:], recs[i:])
	recs[i] = r
	ms.models[r.Model] = recs
	if k, ok := r.Key(); ok {
		ms.seen[k] = struct{}{}
	}
}

// PutSeqBatch stores a group of records whose sequence numbers were
// assigned by one WAL batch append — the streaming ingest fast path.
// Semantically it is exactly a PutSeq per record; mechanically the
// global high-water mark is raised once and each model (and device)
// shard's lock is taken once for all the batch's records it holds,
// instead of once per record, so a 256-submission batch costs a
// handful of lock acquisitions rather than five hundred.
func (s *Store) PutSeqBatch(recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	var maxSeq uint64
	for i := range recs {
		if err := validate(recs[i]); err != nil {
			return err
		}
		if recs[i].Seq == 0 {
			return fmt.Errorf("store: PutSeqBatch needs assigned sequence numbers")
		}
		if recs[i].Seq > maxSeq {
			maxSeq = recs[i].Seq
		}
	}
	// Raise the global high-water mark first so an interleaved Put can
	// never hand out a duplicate.
	for {
		cur := s.seq.Load()
		if maxSeq <= cur || s.seq.CompareAndSwap(cur, maxSeq) {
			break
		}
	}
	// One lock pass per model shard: group the batch by the shard each
	// model hashes to, insert every group member under a single hold.
	byModel := make(map[int][]int)
	for i := range recs {
		idx := s.shardIndex(recs[i].Model)
		byModel[idx] = append(byModel[idx], i)
	}
	for idx, group := range byModel {
		ms := &s.modelShards[idx]
		s.lockShard(ms)
		for _, i := range group {
			insertSeqLocked(ms, recs[i])
		}
		ms.mu.Unlock()
		if s.shardOcc != nil {
			s.shardOcc[idx].Add(int64(len(group)))
			s.shardPuts[idx].Add(uint64(len(group)))
		}
		// Sketches stripe on the same model-hash index, so the batch's
		// grouping is reusable: one sketch lock per shard, not per record.
		sh := &s.sketchShards[idx]
		sh.mu.Lock()
		for _, i := range group {
			noteSketchLocked(sh, recs[i])
		}
		sh.mu.Unlock()
	}
	// Device stripe likewise, preserving batch order within a shard so
	// a device submitting twice in one batch resolves like sequential
	// puts would.
	byDevice := make(map[int][]int)
	for i := range recs {
		idx := s.shardIndex(recs[i].Device)
		byDevice[idx] = append(byDevice[idx], i)
	}
	accepted := int64(0)
	for idx, group := range byDevice {
		ds := &s.deviceShards[idx]
		ds.mu.Lock()
		for _, i := range group {
			r := recs[i]
			if prev, ok := ds.devices[r.Device]; !ok || !prev.after(r) {
				ds.devices[r.Device] = r
			}
		}
		ds.mu.Unlock()
	}
	for i := range recs {
		if recs[i].Accepted {
			accepted++
		}
	}
	s.total.Add(int64(len(recs)))
	s.accepted.Add(accepted)
	return nil
}

// finishPut updates the device stripe and the aggregate counters for a
// record already inserted into its model history.
func (s *Store) finishPut(r Record) {
	ds := &s.deviceShards[s.shardIndex(r.Device)]
	ds.mu.Lock()
	if prev, ok := ds.devices[r.Device]; !ok || !prev.after(r) {
		ds.devices[r.Device] = r
	}
	ds.mu.Unlock()

	s.total.Add(1)
	if r.Accepted {
		s.accepted.Add(1)
	}
}

// noteSketch folds one committed record into its model's sketch.
func (s *Store) noteSketch(r Record) {
	sh := &s.sketchShards[s.shardIndex(r.Model)]
	sh.mu.Lock()
	noteSketchLocked(sh, r)
	sh.mu.Unlock()
}

// noteSketchLocked applies a record's sketch delta; the caller holds the
// sketch shard's lock. Every record bumps the submission tally; the
// observation set changes only when the record wins the per-device
// `after` race — retracting the superseded winner's observation if it
// was accepted, adding the new winner's if it is. The resulting sketch
// is a pure function of the committed record set: any arrival order or
// batch grouping converges to the same cells, so replicas that agree on
// records agree on sketches (and therefore on bins).
func noteSketchLocked(sh *sketchShard, r Record) {
	ms := sh.sketches[r.Model]
	if ms == nil {
		ms = &modelSketch{sk: stats.NewBinSketch(), latest: make(map[string]Record)}
		sh.sketches[r.Model] = ms
	}
	ms.sk.NoteRecord()
	if prev, had := ms.latest[r.Device]; !had || !prev.after(r) {
		if had && prev.Accepted {
			ms.sk.Unobserve(prev.Score, float64(prev.EstimatedAmbient))
		}
		if r.Accepted {
			ms.sk.Observe(r.Score, float64(r.EstimatedAmbient))
		}
		ms.latest[r.Device] = r
	}
	ms.rev++
}

// SketchSnapshot returns an independent copy of the model's population
// sketch plus its revision; ok is false when the model has no records.
// The revision increments on every committed record for the model, so a
// caller holding bins derived from revision R knows they are current
// iff SketchRevision still returns R.
func (s *Store) SketchSnapshot(model string) (sk *stats.BinSketch, rev uint64, ok bool) {
	sh := &s.sketchShards[s.shardIndex(model)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ms := sh.sketches[model]
	if ms == nil {
		return nil, 0, false
	}
	return ms.sk.Clone(), ms.rev, true
}

// SketchRevision returns the model's sketch revision without copying the
// sketch — the binner's cache-freshness probe.
func (s *Store) SketchRevision(model string) (uint64, bool) {
	sh := &s.sketchShards[s.shardIndex(model)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ms := sh.sketches[model]
	if ms == nil {
		return 0, false
	}
	return ms.rev, true
}

// SketchBinary returns the model's sketch in its canonical binary
// encoding (stats.DecodeBinSketch reads it back) — the GET /v1/sketch
// payload; ok is false when the model has no records.
func (s *Store) SketchBinary(model string) ([]byte, bool) {
	sh := &s.sketchShards[s.shardIndex(model)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ms := sh.sketches[model]
	if ms == nil {
		return nil, false
	}
	return ms.sk.AppendBinary(nil), true
}

// sketchDigest returns the model's sketch digest (0 when absent).
func (s *Store) sketchDigest(model string) uint64 {
	sh := &s.sketchShards[s.shardIndex(model)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ms := sh.sketches[model]
	if ms == nil {
		return 0
	}
	return ms.sk.Digest()
}

// Model returns a copy of every record stored for the model, in arrival
// order. The copy is the caller's to keep.
func (s *Store) Model(model string) []Record {
	ms := &s.modelShards[s.shardIndex(model)]
	ms.mu.RLock()
	defer ms.mu.RUnlock()
	recs := ms.models[model]
	if len(recs) == 0 {
		return nil
	}
	out := make([]Record, len(recs))
	copy(out, recs)
	return out
}

// Models returns every model name with at least one record, sorted.
func (s *Store) Models() []string {
	var out []string
	for i := range s.modelShards {
		ms := &s.modelShards[i]
		ms.mu.RLock()
		for m := range ms.models {
			out = append(out, m)
		}
		ms.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}

// Device returns the latest record uploaded by the device.
func (s *Store) Device(id string) (Record, bool) {
	ds := &s.deviceShards[s.shardIndex(id)]
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	r, ok := ds.devices[id]
	return r, ok
}

// Snapshot returns every stored record across all models, sorted by
// sequence number — a deterministic iteration of the whole store, the
// serialization order the WAL snapshotter checkpoints. The slice is the
// caller's to keep.
func (s *Store) Snapshot() []Record {
	out := make([]Record, 0, s.Len())
	for i := range s.modelShards {
		ms := &s.modelShards[i]
		ms.mu.RLock()
		for _, recs := range ms.models {
			out = append(out, recs...)
		}
		ms.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Restore loads snapshot records into the store — the boot path, before
// the store is shared. Records keep their sequence numbers; the device
// stripe and counters are rebuilt as if each record had been committed
// live.
func (s *Store) Restore(recs []Record) error {
	for _, r := range recs {
		if err := s.PutSeq(r); err != nil {
			return fmt.Errorf("store: restoring seq %d: %w", r.Seq, err)
		}
	}
	return nil
}

// Len returns the total record count across all models.
func (s *Store) Len() int { return int(s.total.Load()) }

// AcceptedLen returns how many stored records survived the filters.
func (s *Store) AcceptedLen() int { return int(s.accepted.Load()) }

// Reserve atomically claims a replication key under the model's shard:
// it returns true exactly once per key, false for a key the store
// already holds (or has an in-flight reservation for). Replicated
// applies reserve before committing through the WAL so the same record
// arriving twice — live ship racing an anti-entropy pull — commits once.
func (s *Store) Reserve(model string, k Key) bool {
	ms := &s.modelShards[s.shardIndex(model)]
	ms.mu.Lock()
	defer ms.mu.Unlock()
	if _, ok := ms.seen[k]; ok {
		return false
	}
	ms.seen[k] = struct{}{}
	return true
}

// Release returns a reserved key — the failure path of a replicated
// apply whose local commit failed, so a later retry can reserve again.
func (s *Store) Release(model string, k Key) {
	ms := &s.modelShards[s.shardIndex(model)]
	ms.mu.Lock()
	delete(ms.seen, k)
	ms.mu.Unlock()
}

// HasKey reports whether the store holds (or has reserved) the
// replication key.
func (s *Store) HasKey(model string, k Key) bool {
	ms := &s.modelShards[s.shardIndex(model)]
	ms.mu.RLock()
	defer ms.mu.RUnlock()
	_, ok := ms.seen[k]
	return ok
}

// ModelDigest summarizes one model's records for anti-entropy
// comparison: two stores hold the same record set for a model iff their
// digests (and counts) match.
type ModelDigest struct {
	// Records counts every stored record for the model.
	Records int `json:"records"`
	// Digest is the order-independent fold of every record's content
	// hash — insertion order, node-local sequence numbers and shard
	// layout do not affect it.
	Digest uint64 `json:"digest"`
	// MaxWall is the largest HLC wall component among the model's
	// records (0 when none are stamped) — the freshness horizon the
	// replication-lag gauges read.
	MaxWall int64 `json:"max_hlc_wall"`
	// SketchDigest is the order-independent digest of the model's
	// population sketch (stats.BinSketch.Digest). Replicas that agree on
	// Records and Digest must agree on SketchDigest too — the proof that
	// convergence extends past the record set to the bins the sketch
	// path serves from it.
	SketchDigest uint64 `json:"sketch_digest"`
}

// recordHash folds a record's replicated content — everything except the
// node-local sequence number — into one 64-bit hash.
func recordHash(r Record) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	io.WriteString(h, r.Device)
	h.Write([]byte{0})
	io.WriteString(h, r.Origin)
	h.Write([]byte{0})
	binary.LittleEndian.PutUint64(buf[:], uint64(r.HLCWall))
	h.Write(buf[:])
	binary.LittleEndian.PutUint64(buf[:], uint64(r.HLCLogical))
	h.Write(buf[:])
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(r.Score))
	h.Write(buf[:])
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(float64(r.EstimatedAmbient)))
	h.Write(buf[:])
	if r.Accepted {
		h.Write([]byte{1})
	} else {
		h.Write([]byte{0})
	}
	io.WriteString(h, r.RejectReason)
	return h.Sum64()
}

// digestLocked folds one model's records; the caller holds the shard
// lock.
func digestLocked(recs []Record) ModelDigest {
	d := ModelDigest{Records: len(recs)}
	for _, r := range recs {
		d.Digest ^= recordHash(r)
		if r.HLCWall > d.MaxWall {
			d.MaxWall = r.HLCWall
		}
	}
	return d
}

// Digest returns the model's anti-entropy digest; ok is false when the
// store holds no records for it.
func (s *Store) Digest(model string) (ModelDigest, bool) {
	ms := &s.modelShards[s.shardIndex(model)]
	ms.mu.RLock()
	recs, ok := ms.models[model]
	var d ModelDigest
	if ok {
		d = digestLocked(recs)
	}
	ms.mu.RUnlock()
	if !ok {
		return ModelDigest{}, false
	}
	// The sketch stripe is read under its own lock; a record committing
	// between the two reads skews one digest ahead of the other, which
	// anti-entropy already tolerates — digests are point-in-time
	// comparisons, re-checked next round.
	d.SketchDigest = s.sketchDigest(model)
	return d, true
}

// DigestAll returns the digest of every model the store holds — the
// payload of GET /v1/digest, what reconcile rounds compare.
func (s *Store) DigestAll() map[string]ModelDigest {
	out := make(map[string]ModelDigest)
	for i := range s.modelShards {
		ms := &s.modelShards[i]
		ms.mu.RLock()
		for model, recs := range ms.models {
			out[model] = digestLocked(recs)
		}
		ms.mu.RUnlock()
	}
	for model, d := range out {
		d.SketchDigest = s.sketchDigest(model)
		out[model] = d
	}
	return out
}
