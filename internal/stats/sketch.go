package stats

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
)

// BinSketch is the mergeable population sketch behind the crowd backend's
// streaming binning path (docs/BINNING.md): a fixed-compression quantile
// summary of one model's accepted population, compact enough to fold on
// every GET /v1/bins instead of rescanning the corpus.
//
// The paper's §VI endgame needs, per model, the joint distribution of
// (score, estimated ambient): the ambient-slope fit normalizes scores to
// the 26 °C reference before clustering, so a 1-D sketch of scores alone
// would lose exactly the correlation the normalization consumes. The
// sketch therefore keys integer counts by a pair of deterministic cells:
//
//   - score buckets are geometric with fixed ratio sketchGamma — every
//     value inside a bucket is within SketchRelAcc (0.1%) of the bucket's
//     representative, so quantiles, centroids and the slope fit carry a
//     bounded relative error whatever the corpus size;
//   - ambient cells are linear at AmbientCellC (0.25 °C) — narrower than
//     any slope·ΔT effect the binner can resolve.
//
// Unlike a classic t-digest — whose centroids depend on insertion order,
// so two replicas that converged on the same record set could still
// serve different bins — the sketch's state is integer counts under a
// fixed cell mapping: a pure function of the multiset of observations.
// That buys three properties the cluster needs:
//
//   - order independence: any insertion order yields identical state;
//   - exact merge: merging shard or peer sketches is per-cell addition;
//   - exact removal: a device resubmitting retracts its previous
//     contribution precisely (counts decrement), so the sketch tracks
//     the latest-record-per-device population an exact per-record
//     binning would use, not an append-only blur of history.
//
// All three are bit-exact, so converged replicas serve bit-identical
// bins, and Digest/AppendBinary are canonical over the
// observation multiset.
type BinSketch struct {
	// cells maps packed (ambient cell, score bucket) keys to counts.
	// Counts are signed: concurrent writers apply add/remove deltas in
	// arbitrary order, so a removal can transiently land before its
	// addition; the sum is correct once both have applied. Cells are
	// deleted the moment their count returns to zero, keeping the map —
	// and the canonical encodings — free of ghosts.
	cells map[uint64]int64
	// weight is the running Σ counts — the accepted population size.
	weight int64
	// records counts every record noted for the model, superseded and
	// rejected ones included — the bins' Submissions field.
	records int64
}

// SketchRelAcc is the score buckets' relative accuracy: every value in a
// bucket is within this fraction of the bucket representative.
const SketchRelAcc = 0.001

// AmbientCellC is the ambient quantization step, °C.
const AmbientCellC = 0.25

// sketchVersion is the codec version byte.
const sketchVersion = 1

// MaxSketchCells bounds a decoded sketch so a corrupt length can never
// become an allocation instruction. Real sketches run a few hundred to a
// few thousand cells: scores span per-model percents across ~10 buckets
// per percent, ambients span the accept window across ~4 cells per °C.
const MaxSketchCells = 1 << 20

// sketchGamma is the geometric bucket ratio (1+a)/(1-a) for a=SketchRelAcc.
var sketchGamma = (1 + SketchRelAcc) / (1 - SketchRelAcc)
var lnSketchGamma = math.Log(sketchGamma)

// ErrCorruptSketch reports a sketch encoding that cannot be trusted.
var ErrCorruptSketch = errors.New("stats: corrupt sketch encoding")

// NewBinSketch creates an empty sketch.
func NewBinSketch() *BinSketch {
	return &BinSketch{cells: make(map[uint64]int64)}
}

// scoreBucket maps a score to its geometric bucket index. Scores are
// validated positive upstream; non-finite or non-positive strays are
// clamped so the mapping stays total and deterministic.
func scoreBucket(v float64) int32 {
	if math.IsNaN(v) || v < 1e-300 {
		v = 1e-300
	} else if v > 1e300 {
		v = 1e300
	}
	return int32(math.Floor(math.Log(v) / lnSketchGamma))
}

// scoreValue returns a bucket's representative: the geometric midpoint
// of the bucket's value range.
func scoreValue(bucket int32) float64 {
	return math.Pow(sketchGamma, float64(bucket)+0.5)
}

// ambientCell maps an ambient temperature to its linear cell index.
func ambientCell(a float64) int32 {
	if math.IsNaN(a) || math.IsInf(a, 0) {
		return 0
	}
	return int32(math.Round(a / AmbientCellC))
}

// ambientValue returns a cell's representative temperature.
func ambientValue(cell int32) float64 { return float64(cell) * AmbientCellC }

// packKey packs (ambient cell, score bucket) into one map key. Unsigned
// key order sorts by ambient cell, then score bucket, both as uint32 —
// an arbitrary but fixed total order the canonical codec relies on.
func packKey(amb, score int32) uint64 {
	return uint64(uint32(amb))<<32 | uint64(uint32(score))
}

func unpackKey(k uint64) (amb, score int32) {
	return int32(uint32(k >> 32)), int32(uint32(k))
}

// NoteRecord counts one stored record for the model, whatever its
// verdict — the Submissions side of the bins.
func (s *BinSketch) NoteRecord() { s.records++ }

// Observe adds one accepted device's (score, ambient) observation.
func (s *BinSketch) Observe(score, ambient float64) { s.add(score, ambient, 1) }

// Unobserve retracts a previously observed (score, ambient) pair — the
// device's superseded record. Exact: the cell count decrements and the
// cell vanishes when it returns to zero.
func (s *BinSketch) Unobserve(score, ambient float64) { s.add(score, ambient, -1) }

func (s *BinSketch) add(score, ambient float64, n int64) {
	k := packKey(ambientCell(ambient), scoreBucket(score))
	c := s.cells[k] + n
	if c == 0 {
		delete(s.cells, k)
	} else {
		s.cells[k] = c
	}
	s.weight += n
}

// Records returns how many records were noted, superseded and rejected
// ones included.
func (s *BinSketch) Records() int64 { return s.records }

// Accepted returns the sketched population size: observations minus
// retractions.
func (s *BinSketch) Accepted() int64 { return s.weight }

// Cells returns how many non-empty cells the sketch holds — the fold
// cost of a bins read.
func (s *BinSketch) Cells() int { return len(s.cells) }

// Merge folds o into s: per-cell addition, plus the record and weight
// tallies. Merging is exact and order-independent — merging shard
// sketches in any grouping yields identical state.
func (s *BinSketch) Merge(o *BinSketch) {
	for k, v := range o.cells {
		c := s.cells[k] + v
		if c == 0 {
			delete(s.cells, k)
		} else {
			s.cells[k] = c
		}
	}
	s.weight += o.weight
	s.records += o.records
}

// Clone returns an independent copy.
func (s *BinSketch) Clone() *BinSketch {
	c := &BinSketch{
		cells:   make(map[uint64]int64, len(s.cells)),
		weight:  s.weight,
		records: s.records,
	}
	for k, v := range s.cells {
		c.cells[k] = v
	}
	return c
}

// Digest folds the sketch into one order-independent 64-bit hash: two
// sketches hold the same observation multiset (and record count) iff
// their digests match, whatever the insertion, removal or merge history.
func (s *BinSketch) Digest() uint64 {
	var d uint64
	var buf [24]byte
	for k, v := range s.cells {
		if v == 0 {
			continue
		}
		binary.LittleEndian.PutUint64(buf[0:8], k)
		binary.LittleEndian.PutUint64(buf[8:16], uint64(v))
		h := fnv.New64a()
		h.Write(buf[0:16])
		d ^= h.Sum64()
	}
	binary.LittleEndian.PutUint64(buf[16:24], uint64(s.records))
	h := fnv.New64a()
	h.Write(buf[16:24])
	return d ^ h.Sum64()
}

// SketchCell is one populated cell: the representative observation and
// how many devices share it.
type SketchCell struct {
	// Score is the score bucket's representative value.
	Score float64
	// Ambient is the ambient cell's representative temperature, °C.
	Ambient float64
	// Weight is how many current observations the cell holds.
	Weight int64
}

// Points returns the populated cells as weighted representative points,
// in canonical (ambient, score) order — the binner's clustering input.
// Cells whose count is transiently non-positive (a removal observed
// before its paired addition) are skipped.
func (s *BinSketch) Points() []SketchCell {
	keys := s.sortedKeys()
	out := make([]SketchCell, 0, len(keys))
	for _, k := range keys {
		if s.cells[k] <= 0 {
			continue
		}
		amb, sc := unpackKey(k)
		out = append(out, SketchCell{
			Score:   scoreValue(sc),
			Ambient: ambientValue(amb),
			Weight:  s.cells[k],
		})
	}
	return out
}

// sortedKeys returns the cell keys in canonical ascending order.
func (s *BinSketch) sortedKeys() []uint64 {
	keys := make([]uint64, 0, len(s.cells))
	for k := range s.cells {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// AmbientSpread returns the max-min span of populated ambient cells, °C
// — the identifiability check before the slope fit.
func (s *BinSketch) AmbientSpread() float64 {
	first := true
	var lo, hi int32
	for k, v := range s.cells {
		if v <= 0 {
			continue
		}
		amb, _ := unpackKey(k)
		if first {
			lo, hi = amb, amb
			first = false
			continue
		}
		if amb < lo {
			lo = amb
		}
		if amb > hi {
			hi = amb
		}
	}
	if first {
		return 0
	}
	return float64(hi-lo) * AmbientCellC
}

// AmbientFit fits score = a + slope·ambient by weighted least squares
// over the cell representatives — the streaming form of stats.LinearFit
// over the exact population, carried as sufficient statistics
// (Σw, Σwx, Σwy, Σwxy, Σwx²) accumulated in canonical cell order so the
// result is deterministic. ok is false when the population is too small
// (< 3) or too ambient-uniform (spread ≤ 0.5 °C) for the slope to be
// identifiable — the same gate the server tests' exact bins oracle
// applies.
func (s *BinSketch) AmbientFit() (slope float64, ok bool) {
	if s.weight < 3 || s.AmbientSpread() <= 0.5 {
		return 0, false
	}
	var sw, swx, swy, swxy, swxx float64
	for _, p := range s.Points() {
		w := float64(p.Weight)
		sw += w
		swx += w * p.Ambient
		swy += w * p.Score
		swxy += w * p.Ambient * p.Score
		swxx += w * p.Ambient * p.Ambient
	}
	sxx := swxx - swx*swx/sw
	if sxx <= 0 {
		return 0, false
	}
	return (swxy - swx*swy/sw) / sxx, true
}

// Quantile estimates the p-quantile (0 <= p <= 1) of the score marginal
// from the bucket counts; the estimate is within SketchRelAcc of the
// true quantile's bucket representative. Returns 0 on an empty sketch.
func (s *BinSketch) Quantile(p float64) float64 {
	type bc struct {
		bucket int32
		count  int64
	}
	var total int64
	agg := make(map[int32]int64)
	for k, v := range s.cells {
		if v <= 0 {
			continue
		}
		_, sc := unpackKey(k)
		agg[sc] += v
		total += v
	}
	if total == 0 {
		return 0
	}
	buckets := make([]bc, 0, len(agg))
	for b, c := range agg {
		buckets = append(buckets, bc{b, c})
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].bucket < buckets[j].bucket })
	rank := int64(math.Ceil(p * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for _, b := range buckets {
		cum += b.count
		if cum >= rank {
			return scoreValue(b.bucket)
		}
	}
	return scoreValue(buckets[len(buckets)-1].bucket)
}

// AppendBinary appends the sketch's canonical binary encoding to dst and
// returns the extended slice, reusing the wire codec's idioms: a version
// byte, uvarint tallies, then the cells in ascending key order with
// delta-encoded keys and zigzag varint counts. Two sketches holding the
// same observation multiset encode to identical bytes.
func (s *BinSketch) AppendBinary(dst []byte) []byte {
	dst = append(dst, sketchVersion)
	dst = appendUvarint(dst, uint64(s.records))
	keys := s.sortedKeys()
	dst = appendUvarint(dst, uint64(len(keys)))
	var prev uint64
	for i, k := range keys {
		if i == 0 {
			dst = appendUvarint(dst, k)
		} else {
			dst = appendUvarint(dst, k-prev)
		}
		prev = k
		dst = appendZigzag(dst, s.cells[k])
	}
	return dst
}

// DecodeBinSketch decodes a sketch produced by AppendBinary. The whole
// buffer must be consumed exactly; a truncated, over-long, out-of-order
// or otherwise malformed encoding returns ErrCorruptSketch. It never
// panics, whatever the input.
func DecodeBinSketch(b []byte) (*BinSketch, error) {
	c := sketchCursor{b: b}
	if v := c.byte(); v != sketchVersion {
		if c.err == nil {
			c.err = fmt.Errorf("%w: version %d", ErrCorruptSketch, v)
		}
		return nil, c.err
	}
	records := c.uvarint()
	n := c.uvarint()
	if c.err != nil {
		return nil, c.err
	}
	if n > MaxSketchCells {
		return nil, fmt.Errorf("%w: %d cells exceeds %d", ErrCorruptSketch, n, MaxSketchCells)
	}
	// Each cell is at least 2 bytes (key varint + count varint); reject
	// counts the buffer cannot hold before allocating.
	if int(n)*2 > len(b)-c.off {
		return nil, ErrCorruptSketch
	}
	s := &BinSketch{
		cells:   make(map[uint64]int64, n),
		records: int64(records),
	}
	var key uint64
	for i := uint64(0); i < n; i++ {
		d := c.uvarint()
		if i == 0 {
			key = d
		} else {
			if d == 0 { // duplicate or out-of-order key
				return nil, ErrCorruptSketch
			}
			nk := key + d
			if nk < key { // overflow
				return nil, ErrCorruptSketch
			}
			key = nk
		}
		count := c.zigzag()
		if c.err != nil {
			return nil, c.err
		}
		if count == 0 { // empty cells are never encoded
			return nil, ErrCorruptSketch
		}
		s.cells[key] = count
		s.weight += count
	}
	if c.err != nil {
		return nil, c.err
	}
	if c.off != len(b) {
		return nil, ErrCorruptSketch
	}
	return s, nil
}

// appendUvarint appends v in unsigned varint encoding.
func appendUvarint(dst []byte, v uint64) []byte {
	var b [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(b[:], v)
	return append(dst, b[:n]...)
}

// appendZigzag appends v in zigzag varint encoding (signed counts: a
// clone can carry a transiently negative cell).
func appendZigzag(dst []byte, v int64) []byte {
	var b [binary.MaxVarintLen64]byte
	n := binary.PutVarint(b[:], v)
	return append(dst, b[:n]...)
}

// sketchCursor is a bounds-checked reader that latches its first error,
// so decode paths never panic on adversarial input.
type sketchCursor struct {
	b   []byte
	off int
	err error
}

func (c *sketchCursor) byte() byte {
	if c.err != nil {
		return 0
	}
	if c.off >= len(c.b) {
		c.err = ErrCorruptSketch
		return 0
	}
	v := c.b[c.off]
	c.off++
	return v
}

func (c *sketchCursor) uvarint() uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 {
		c.err = ErrCorruptSketch
		return 0
	}
	c.off += n
	return v
}

func (c *sketchCursor) zigzag() int64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Varint(c.b[c.off:])
	if n <= 0 {
		c.err = ErrCorruptSketch
		return 0
	}
	c.off += n
	return v
}
