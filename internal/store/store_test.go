package store

import (
	"fmt"
	"sort"
	"sync"
	"testing"
)

func TestPutAndLookup(t *testing.T) {
	s := New(4)
	if s.Shards() != 4 {
		t.Fatalf("Shards() = %d", s.Shards())
	}
	seq1, err := s.Put(Record{Device: "d1", Model: "Nexus 5", Score: 100, Accepted: true})
	if err != nil {
		t.Fatal(err)
	}
	seq2, err := s.Put(Record{Device: "d2", Model: "Nexus 5", Score: 200, Accepted: false, RejectReason: "ambient 35.0°C outside window"})
	if err != nil {
		t.Fatal(err)
	}
	if seq1 == seq2 {
		t.Errorf("sequence numbers collide: %d", seq1)
	}
	if s.Len() != 2 || s.AcceptedLen() != 1 {
		t.Errorf("Len = %d, AcceptedLen = %d, want 2, 1", s.Len(), s.AcceptedLen())
	}

	recs := s.Model("Nexus 5")
	if len(recs) != 2 {
		t.Fatalf("Model returned %d records", len(recs))
	}
	if recs[0].Device != "d1" || recs[1].Device != "d2" {
		t.Errorf("arrival order lost: %v", recs)
	}

	r, ok := s.Device("d2")
	if !ok || r.Score != 200 || r.Accepted {
		t.Errorf("Device(d2) = %+v, %v", r, ok)
	}
	if _, ok := s.Device("nope"); ok {
		t.Error("unknown device found")
	}
	if got := s.Model("LG G5"); got != nil {
		t.Errorf("empty model returned %v", got)
	}
}

func TestPutValidation(t *testing.T) {
	s := New(1)
	if _, err := s.Put(Record{Device: "d"}); err == nil {
		t.Error("record without model accepted")
	}
	if _, err := s.Put(Record{Model: "m"}); err == nil {
		t.Error("record without device accepted")
	}
}

func TestLatestKeepsNewestPerDevice(t *testing.T) {
	s := New(2)
	mustPut(t, s, Record{Device: "d1", Model: "m", Score: 1})
	mustPut(t, s, Record{Device: "d2", Model: "m", Score: 2})
	mustPut(t, s, Record{Device: "d1", Model: "m", Score: 3})
	latest := latestOf(s, "m")
	if len(latest) != 2 {
		t.Fatalf("latestOf returned %d records", len(latest))
	}
	if latest[0].Device != "d1" || latest[0].Score != 3 {
		t.Errorf("resubmission did not replace: %+v", latest[0])
	}
	if latest[1].Device != "d2" {
		t.Errorf("device order lost: %+v", latest[1])
	}
	// The full history keeps all three.
	if got := len(s.Model("m")); got != 3 {
		t.Errorf("Model history has %d records, want 3", got)
	}
}

func TestModelReturnsCopy(t *testing.T) {
	s := New(2)
	mustPut(t, s, Record{Device: "d1", Model: "m", Score: 1})
	recs := s.Model("m")
	recs[0].Score = 999
	if got := s.Model("m")[0].Score; got != 1 {
		t.Errorf("caller mutation leaked into store: score %v", got)
	}
}

func TestModels(t *testing.T) {
	s := New(8)
	for _, m := range []string{"Nexus 5", "LG G5", "Google Pixel"} {
		mustPut(t, s, Record{Device: "d-" + m, Model: m})
	}
	got := s.Models()
	want := []string{"Google Pixel", "LG G5", "Nexus 5"}
	if len(got) != len(want) {
		t.Fatalf("Models() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Models()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestConcurrentReadersAndWriters hammers the stripes from parallel
// writers and readers; run with -race (the ci target does).
func TestConcurrentReadersAndWriters(t *testing.T) {
	s := New(8)
	models := []string{"Nexus 5", "Nexus 6", "Nexus 6P", "LG G5", "Google Pixel"}
	const writers = 8
	const perWriter = 400

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				m := models[(w+i)%len(models)]
				mustPut(t, s, Record{
					Device:   fmt.Sprintf("w%d-d%d", w, i),
					Model:    m,
					Score:    float64(i),
					Accepted: i%2 == 0,
				})
			}
		}(w)
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				m := models[(r+n)%len(models)]
				recs := s.Model(m)
				for i := 1; i < len(recs); i++ {
					if recs[i].Seq <= recs[i-1].Seq {
						t.Errorf("model %s: seq not increasing at %d", m, i)
						return
					}
				}
				s.Device(fmt.Sprintf("w0-d%d", n%perWriter))
				if n%64 == 0 {
					s.Models()
					_ = s.Len()
				}
			}
		}(r)
	}

	wg.Wait()
	close(stop)
	readers.Wait()

	if got := s.Len(); got != writers*perWriter {
		t.Errorf("Len = %d, want %d", got, writers*perWriter)
	}
	if got := s.AcceptedLen(); got != writers*perWriter/2 {
		t.Errorf("AcceptedLen = %d, want %d", got, writers*perWriter/2)
	}
	var sum int
	for _, m := range s.Models() {
		sum += len(s.Model(m))
	}
	if sum != writers*perWriter {
		t.Errorf("per-model records sum to %d, want %d", sum, writers*perWriter)
	}
}

func mustPut(t *testing.T, s *Store, r Record) {
	t.Helper()
	if _, err := s.Put(r); err != nil {
		t.Fatal(err)
	}
}

func TestPutSeqHonorsAssignedSequence(t *testing.T) {
	s := New(4)
	// Out-of-order arrival — concurrent WAL committers can land 3 before 1 —
	// must still leave the model history sorted by sequence number.
	for _, seq := range []uint64{3, 1, 2} {
		r := Record{Device: fmt.Sprintf("ps-%d", seq), Model: "Nexus 5", Score: float64(100 * seq), Seq: seq, Accepted: true}
		if err := s.PutSeq(r); err != nil {
			t.Fatal(err)
		}
	}
	recs := s.Model("Nexus 5")
	for i, r := range recs {
		if r.Seq != uint64(i+1) {
			t.Fatalf("model history out of order: %v", recs)
		}
	}
	// The high-water mark moved: a live Put continues past the restored tail.
	seq, err := s.Put(Record{Device: "live", Model: "Nexus 5", Score: 1})
	if err != nil {
		t.Fatal(err)
	}
	if seq != 4 {
		t.Errorf("Put after PutSeq(3) assigned %d, want 4", seq)
	}

	if err := s.PutSeq(Record{Device: "d", Model: "m"}); err == nil {
		t.Error("PutSeq accepted a record without a sequence number")
	}
	if err := s.PutSeq(Record{Seq: 9}); err == nil {
		t.Error("PutSeq accepted an unkeyable record")
	}
}

func TestPutSeqDeviceStripeKeepsNewest(t *testing.T) {
	s := New(2)
	// Replaying seq 5 then seq 2 for the same device (resubmissions in a
	// log being replayed out of order) must leave the point lookup on 5.
	if err := s.PutSeq(Record{Device: "dup", Model: "m", Score: 500, Seq: 5}); err != nil {
		t.Fatal(err)
	}
	if err := s.PutSeq(Record{Device: "dup", Model: "m", Score: 200, Seq: 2}); err != nil {
		t.Fatal(err)
	}
	r, ok := s.Device("dup")
	if !ok || r.Seq != 5 || r.Score != 500 {
		t.Errorf("Device(dup) = %+v, want the seq-5 record", r)
	}
}

func TestSnapshotRestoreRoundtrip(t *testing.T) {
	s := New(4)
	for i := 0; i < 20; i++ {
		mustPut(t, s, Record{
			Device:   fmt.Sprintf("sr-%02d", i),
			Model:    fmt.Sprintf("Model %d", i%3),
			Score:    float64(1000 + i),
			Accepted: i%2 == 0,
		})
	}
	snap := s.Snapshot()
	if len(snap) != 20 {
		t.Fatalf("snapshot holds %d records", len(snap))
	}
	for i := 1; i < len(snap); i++ {
		if snap[i].Seq <= snap[i-1].Seq {
			t.Fatalf("snapshot iteration not seq-sorted at %d: %v", i, snap[i])
		}
	}

	// Restore into a store with a different stripe width: state, counters
	// and a follow-on snapshot must all match.
	s2 := New(7)
	if err := s2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if s2.Len() != s.Len() || s2.AcceptedLen() != s.AcceptedLen() {
		t.Fatalf("restored store counts %d/%d, want %d/%d", s2.Len(), s2.AcceptedLen(), s.Len(), s.AcceptedLen())
	}
	snap2 := s2.Snapshot()
	if len(snap2) != len(snap) {
		t.Fatalf("second-generation snapshot holds %d records", len(snap2))
	}
	for i := range snap {
		if snap[i] != snap2[i] {
			t.Fatalf("snapshot→restore→snapshot drifted at %d: %+v != %+v", i, snap[i], snap2[i])
		}
	}
	// Per-device lookups survived the round trip.
	for i := 0; i < 20; i++ {
		id := fmt.Sprintf("sr-%02d", i)
		a, aok := s.Device(id)
		b, bok := s2.Device(id)
		if aok != bok || a != b {
			t.Errorf("device %s diverged: %+v vs %+v", id, a, b)
		}
	}
}

// latestOf returns the latest record per device for the model — the
// population each model's sketch summarizes. "Latest" is by HLC stamp
// for cluster-ingested records, by arrival for single-node ones. When
// every winner carries a stamp the result is in canonical stamp order,
// identical on every converged replica; otherwise it keeps first-seen
// device order.
func latestOf(s *Store, model string) []Record {
	recs := s.Model(model)
	idx := make(map[string]int, len(recs))
	var out []Record
	for _, r := range recs {
		if i, ok := idx[r.Device]; ok {
			if r.after(out[i]) {
				out[i] = r
			}
			continue
		}
		idx[r.Device] = len(out)
		out = append(out, r)
	}
	stamped := len(out) > 0
	for _, r := range out {
		if _, ok := r.Key(); !ok {
			stamped = false
			break
		}
	}
	if stamped {
		sort.Slice(out, func(i, j int) bool { return out[j].after(out[i]) })
	}
	return out
}
