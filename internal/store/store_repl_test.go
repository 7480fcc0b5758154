package store

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"accubench/internal/hlc"
)

// stamped builds a cluster-ingested record with a deterministic identity.
func stamped(origin string, wall int64, logical uint16, device string, score float64) Record {
	r := Record{
		Device:   device,
		Model:    "Nexus 5",
		Score:    score,
		Accepted: true,
	}
	r.SetStamp(origin, hlc.Timestamp{Wall: wall, Logical: logical})
	return r
}

func TestRecordKey(t *testing.T) {
	r := stamped("n1", 100, 2, "d0", 1000)
	k, ok := r.Key()
	if !ok || k != (Key{Origin: "n1", Wall: 100, Logical: 2}) {
		t.Fatalf("Key() = %+v, %v", k, ok)
	}
	if _, ok := (Record{Device: "d", Model: "m"}).Key(); ok {
		t.Fatal("unstamped record has a replication key")
	}
}

func TestReserveIsIdempotenceGate(t *testing.T) {
	s := New(4)
	r := stamped("n1", 10, 0, "d0", 1000)
	k, _ := r.Key()
	if !s.Reserve(r.Model, k) {
		t.Fatal("first Reserve refused")
	}
	if s.Reserve(r.Model, k) {
		t.Fatal("second Reserve of the same key succeeded")
	}
	s.Release(r.Model, k)
	if !s.Reserve(r.Model, k) {
		t.Fatal("Reserve after Release refused")
	}
	if !s.HasKey(r.Model, k) {
		t.Fatal("HasKey misses a reserved key")
	}
}

func TestPutRegistersReplicationKey(t *testing.T) {
	s := New(4)
	r := stamped("n1", 10, 0, "d0", 1000)
	if _, err := s.Put(r); err != nil {
		t.Fatal(err)
	}
	k, _ := r.Key()
	if !s.HasKey(r.Model, k) {
		t.Fatal("Put did not register the record's key")
	}
	if s.Reserve(r.Model, k) {
		t.Fatal("Reserve succeeded for a stored record")
	}
}

// TestDigestOrderIndependent is the anti-entropy soundness property: two
// stores holding the same record set — inserted in different orders,
// with different local sequence numbers, across different shard widths —
// report identical digests, and any difference in content changes the
// digest.
func TestDigestOrderIndependent(t *testing.T) {
	recs := make([]Record, 0, 40)
	for i := 0; i < 40; i++ {
		origin := fmt.Sprintf("n%d", i%3)
		recs = append(recs, stamped(origin, int64(100+i/2), uint16(i%2), fmt.Sprintf("d%02d", i), 1000+float64(i)))
	}

	build := func(shards int, order []int) *Store {
		s := New(shards)
		for _, i := range order {
			if _, err := s.Put(recs[i]); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	fwd := make([]int, len(recs))
	for i := range fwd {
		fwd[i] = i
	}
	shuffled := append([]int(nil), fwd...)
	rand.New(rand.NewSource(7)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})

	a := build(4, fwd)
	b := build(16, shuffled)
	da, ok := a.Digest("Nexus 5")
	if !ok {
		t.Fatal("no digest for a populated model")
	}
	db, _ := b.Digest("Nexus 5")
	if da != db {
		t.Fatalf("digests diverge for identical content: %+v vs %+v", da, db)
	}
	if da.Records != len(recs) {
		t.Fatalf("digest counts %d records, want %d", da.Records, len(recs))
	}
	if da.MaxWall != 100+int64(len(recs)-1)/2 {
		t.Fatalf("digest MaxWall = %d", da.MaxWall)
	}

	// Content sensitivity: one extra record moves the digest.
	extra := stamped("n9", 500, 0, "d-extra", 999)
	if _, err := b.Put(extra); err != nil {
		t.Fatal(err)
	}
	if db2, _ := b.Digest("Nexus 5"); db2 == da {
		t.Fatal("digest unchanged after adding a record")
	}

	if _, ok := a.Digest("NoSuchModel"); ok {
		t.Fatal("digest reported for an absent model")
	}
	all := a.DigestAll()
	if got := all["Nexus 5"]; got != da {
		t.Fatalf("DigestAll disagrees with Digest: %+v vs %+v", got, da)
	}
}

// TestLatestConvergesAcrossInsertionOrders pins the cross-replica
// convergence contract: with stamped records, latestOf returns the same
// winners in the same canonical order no matter which order the records
// arrived in — the property that keeps bins bit-identical cluster-wide.
func TestLatestConvergesAcrossInsertionOrders(t *testing.T) {
	var recs []Record
	for d := 0; d < 8; d++ {
		// Each device reports twice, from different origins; the later
		// stamp must win everywhere.
		recs = append(recs,
			stamped("n1", int64(200+d), 0, fmt.Sprintf("d%d", d), 1000+float64(d)),
			stamped("n2", int64(200+d), 1, fmt.Sprintf("d%d", d), 2000+float64(d)),
		)
	}
	build := func(order []int) *Store {
		s := New(8)
		for _, i := range order {
			if _, err := s.Put(recs[i]); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	fwd := make([]int, len(recs))
	for i := range fwd {
		fwd[i] = i
	}
	rev := make([]int, len(recs))
	for i := range rev {
		rev[i] = len(recs) - 1 - i
	}
	stripSeq := func(rs []Record) []Record {
		out := append([]Record(nil), rs...)
		for i := range out {
			out[i].Seq = 0
		}
		return out
	}
	la := stripSeq(latestOf(build(fwd), "Nexus 5"))
	lb := stripSeq(latestOf(build(rev), "Nexus 5"))
	if !reflect.DeepEqual(la, lb) {
		t.Fatalf("latestOf diverges across insertion orders:\n%+v\nvs\n%+v", la, lb)
	}
	for _, r := range la {
		if r.Origin != "n2" {
			t.Fatalf("stale record won for %s: %+v", r.Device, r)
		}
	}
	for i := 1; i < len(la); i++ {
		if !la[i].after(la[i-1]) {
			t.Fatalf("canonical order violated at %d: %+v then %+v", i, la[i-1], la[i])
		}
	}
}

// TestLatestKeepsLegacyOrderUnstamped pins the single-node behavior:
// without stamps, latestOf keeps first-seen device order and the highest
// sequence number wins.
func TestLatestKeepsLegacyOrderUnstamped(t *testing.T) {
	s := New(4)
	for i := 0; i < 3; i++ {
		if _, err := s.Put(Record{Device: fmt.Sprintf("z%d", 2-i), Model: "m", Score: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Put(Record{Device: "z2", Model: "m", Score: 2}); err != nil {
		t.Fatal(err)
	}
	got := latestOf(s, "m")
	if len(got) != 3 || got[0].Device != "z2" || got[1].Device != "z1" || got[2].Device != "z0" {
		t.Fatalf("legacy order broken: %+v", got)
	}
	if got[0].Score != 2 {
		t.Fatalf("resubmission did not win: %+v", got[0])
	}
}

// TestDeviceLookupResolvesByStamp pins the device stripe's winner rule:
// a replica applying a device's two submissions out of stamp order must
// still surface the logically newest one.
func TestDeviceLookupResolvesByStamp(t *testing.T) {
	s := New(4)
	newer := stamped("n1", 300, 5, "dev", 2000)
	older := stamped("n2", 300, 1, "dev", 1000)
	// Apply the newer record first — on this node it gets the *lower*
	// local sequence number.
	if _, err := s.Put(newer); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(older); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Device("dev")
	if !ok || got.Score != 2000 {
		t.Fatalf("Device() = %+v, %v — stamp order lost to arrival order", got, ok)
	}
}
