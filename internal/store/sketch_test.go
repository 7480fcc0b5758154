package store

import (
	"fmt"
	"math/rand"
	"testing"

	"accubench/internal/hlc"
	"accubench/internal/stats"
	"accubench/internal/units"
)

func sketchRecord(device, model string, seq uint64, score, amb float64, accepted bool) Record {
	r := Record{
		Device:           device,
		Model:            model,
		Score:            score,
		EstimatedAmbient: units.Celsius(amb),
		Accepted:         accepted,
		Seq:              seq,
	}
	if !accepted {
		r.RejectReason = "test"
	}
	return r
}

func TestSketchTracksLatestAcceptedPerDevice(t *testing.T) {
	s := New(4)
	// d1 accepted, then superseded by a rejected record: its observation
	// must leave the sketch.
	if _, err := s.Put(sketchRecord("d1", "m", 0, 3.0, 24, true)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(sketchRecord("d2", "m", 0, 4.0, 26, true)); err != nil {
		t.Fatal(err)
	}
	sk, _, ok := s.SketchSnapshot("m")
	if !ok {
		t.Fatal("no sketch for model m")
	}
	if sk.Accepted() != 2 || sk.Records() != 2 {
		t.Fatalf("accepted=%d records=%d, want 2,2", sk.Accepted(), sk.Records())
	}
	if _, err := s.Put(sketchRecord("d1", "m", 0, 3.5, 24, false)); err != nil {
		t.Fatal(err)
	}
	sk, _, _ = s.SketchSnapshot("m")
	if sk.Accepted() != 1 || sk.Records() != 3 {
		t.Fatalf("after reject-supersede: accepted=%d records=%d, want 1,3", sk.Accepted(), sk.Records())
	}
	// Resubmission with a new accepted score replaces, not accumulates.
	if _, err := s.Put(sketchRecord("d2", "m", 0, 4.2, 26, true)); err != nil {
		t.Fatal(err)
	}
	sk, _, _ = s.SketchSnapshot("m")
	if sk.Accepted() != 1 {
		t.Fatalf("after resubmit: accepted=%d, want 1 (d1 rejected, d2 replaced)", sk.Accepted())
	}
	if q := sk.Quantile(1.0); q < 4.19 || q > 4.21 {
		t.Fatalf("max score after resubmit = %g, want ~4.2", q)
	}
}

// TestSketchModelScopedLatest pins the population definition: the sketch
// tracks the latest record per device *within each model*, exactly like
// latestOf(model) — a device moving to another model leaves its old
// model's population untouched.
func TestSketchModelScopedLatest(t *testing.T) {
	s := New(4)
	if _, err := s.Put(sketchRecord("d1", "mA", 0, 3.0, 24, true)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(sketchRecord("d1", "mB", 0, 5.0, 24, true)); err != nil {
		t.Fatal(err)
	}
	skA, _, _ := s.SketchSnapshot("mA")
	skB, _, _ := s.SketchSnapshot("mB")
	if skA.Accepted() != 1 || skB.Accepted() != 1 {
		t.Fatalf("accepted A=%d B=%d, want 1,1 (model-scoped latest)", skA.Accepted(), skB.Accepted())
	}
	if got := len(latestOf(s, "mA")); got != 1 {
		t.Fatalf("latestOf(mA) = %d records, want 1 — sketch and exact must agree", got)
	}
}

// TestSketchConvergence is the replica-convergence pin: the same record
// set committed in any order, batched or sequential, live or restored,
// produces bit-identical sketches.
func TestSketchConvergence(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var recs []Record
	for i := 0; i < 400; i++ {
		dev := fmt.Sprintf("d%03d", rng.Intn(120)) // plenty of resubmissions
		model := fmt.Sprintf("m%d", rng.Intn(3))
		r := sketchRecord(dev, model, uint64(i+1), 2+rng.Float64()*3, 18+rng.Float64()*14, rng.Intn(4) != 0)
		r.SetStamp("n1", hlc.Timestamp{Wall: int64(i + 1)})
		recs = append(recs, r)
	}

	sequential := New(8)
	for _, r := range recs {
		if err := sequential.PutSeq(r); err != nil {
			t.Fatal(err)
		}
	}

	batched := New(8)
	for i := 0; i < len(recs); i += 64 {
		end := i + 64
		if end > len(recs) {
			end = len(recs)
		}
		if err := batched.PutSeqBatch(append([]Record(nil), recs[i:end]...)); err != nil {
			t.Fatal(err)
		}
	}

	shuffled := New(8)
	perm := rng.Perm(len(recs))
	for _, i := range perm {
		if err := shuffled.PutSeq(recs[i]); err != nil {
			t.Fatal(err)
		}
	}

	restored := New(8)
	if err := restored.Restore(sequential.Snapshot()); err != nil {
		t.Fatal(err)
	}

	for _, model := range sequential.Models() {
		ref, _, ok := sequential.SketchSnapshot(model)
		if !ok {
			t.Fatalf("no sketch for %s", model)
		}
		for name, st := range map[string]*Store{"batched": batched, "shuffled": shuffled, "restored": restored} {
			got, _, ok := st.SketchSnapshot(model)
			if !ok {
				t.Fatalf("%s: no sketch for %s", name, model)
			}
			if got.Digest() != ref.Digest() {
				t.Errorf("%s: sketch digest for %s = %#x, want %#x", name, model, got.Digest(), ref.Digest())
			}
			if got.Records() != ref.Records() || got.Accepted() != ref.Accepted() {
				t.Errorf("%s: %s tallies records=%d/%d accepted=%d/%d", name, model,
					got.Records(), ref.Records(), got.Accepted(), ref.Accepted())
			}
		}
	}
}

func TestSketchRevisionAdvances(t *testing.T) {
	s := New(4)
	if _, ok := s.SketchRevision("m"); ok {
		t.Fatal("revision reported for absent model")
	}
	if _, err := s.Put(sketchRecord("d1", "m", 0, 3.0, 24, true)); err != nil {
		t.Fatal(err)
	}
	r1, ok := s.SketchRevision("m")
	if !ok {
		t.Fatal("no revision after put")
	}
	if _, err := s.Put(sketchRecord("d2", "m", 0, 3.1, 24, false)); err != nil {
		t.Fatal(err)
	}
	r2, _ := s.SketchRevision("m")
	if r2 <= r1 {
		t.Fatalf("revision did not advance: %d -> %d (every record must bump it)", r1, r2)
	}
}

func TestSketchBinaryRoundTrip(t *testing.T) {
	s := New(4)
	if _, ok := s.SketchBinary("m"); ok {
		t.Fatal("binary reported for absent model")
	}
	for i := 0; i < 50; i++ {
		if _, err := s.Put(sketchRecord(fmt.Sprintf("d%d", i), "m", 0, 2+float64(i)*0.05, 20+float64(i%10), true)); err != nil {
			t.Fatal(err)
		}
	}
	enc, ok := s.SketchBinary("m")
	if !ok {
		t.Fatal("no sketch binary")
	}
	dec, err := stats.DecodeBinSketch(enc)
	if err != nil {
		t.Fatalf("DecodeBinSketch: %v", err)
	}
	ref, _, _ := s.SketchSnapshot("m")
	if dec.Digest() != ref.Digest() {
		t.Fatal("decoded sketch digest differs from snapshot")
	}
}

func TestDigestCarriesSketchDigest(t *testing.T) {
	a, b := New(4), New(4)
	for i := 0; i < 30; i++ {
		r := sketchRecord(fmt.Sprintf("d%d", i), "m", uint64(i+1), 3+float64(i)*0.01, 22+float64(i%5), true)
		r.SetStamp("n1", hlc.Timestamp{Wall: int64(i + 1)})
		if err := a.PutSeq(r); err != nil {
			t.Fatal(err)
		}
		if err := b.PutSeq(r); err != nil {
			t.Fatal(err)
		}
	}
	da, ok := a.Digest("m")
	if !ok || da.SketchDigest == 0 {
		t.Fatalf("Digest: ok=%v sketch=%#x, want populated sketch digest", ok, da.SketchDigest)
	}
	db, _ := b.Digest("m")
	if da.SketchDigest != db.SketchDigest {
		t.Fatal("converged stores disagree on sketch digest")
	}
	all := a.DigestAll()
	if all["m"].SketchDigest != da.SketchDigest {
		t.Fatal("DigestAll sketch digest differs from Digest")
	}
	// Diverge b; the sketch digests must split.
	if _, err := b.Put(sketchRecord("dX", "m", 0, 9.9, 25, true)); err != nil {
		t.Fatal(err)
	}
	db2, _ := b.Digest("m")
	if db2.SketchDigest == da.SketchDigest {
		t.Fatal("diverged stores share a sketch digest")
	}
}
