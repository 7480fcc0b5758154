package server_test

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"testing"

	"accubench/internal/crowd"
	"accubench/internal/obs"
	"accubench/internal/server"
	"accubench/internal/stats"
	"accubench/internal/store"
	"accubench/internal/testkit"
	"accubench/internal/units"
)

// seedPopulation writes a §VI-style crowd into the store: per model, a
// few well-separated true bins, each device's observed score biased by
// the thermal slope against its ambient, plus a sprinkle of rejected
// submissions. Returns the per-model accepted device count.
func seedPopulation(t *testing.T, st *store.Store, models []string, bins [][]float64, slope float64, perBin int, seed int64) map[string]int {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	accepted := make(map[string]int)
	for mi, model := range models {
		for bi, base := range bins[mi] {
			for d := 0; d < perBin; d++ {
				amb := 20 + rng.Float64()*10
				score := base*(1+0.002*(rng.Float64()-0.5)) + slope*(amb-26)
				r := store.Record{
					Device:           fmt.Sprintf("%s-b%d-d%03d", model, bi, d),
					Model:            model,
					Score:            score,
					EstimatedAmbient: units.Celsius(amb),
					Accepted:         true,
				}
				if _, err := st.Put(r); err != nil {
					t.Fatal(err)
				}
				accepted[model]++
			}
		}
		// Rejected submissions count toward Submissions, never the bins.
		for d := 0; d < 5; d++ {
			r := store.Record{
				Device:       fmt.Sprintf("%s-rej-%d", model, d),
				Model:        model,
				Score:        1,
				Accepted:     false,
				RejectReason: "test",
			}
			if _, err := st.Put(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	return accepted
}

// TestSketchBinsMatchExactGolden is the sketch path's tolerance golden:
// over seed-style populations, the served bins must agree with the
// exact per-record oracle (exactBins) on the population tallies, the
// discovered bin count, the per-bin device counts, and — within the
// sketch's cell resolution — the centroids and the ambient slope
// (tolerance contract in docs/BINNING.md).
func TestSketchBinsMatchExactGolden(t *testing.T) {
	models := []string{"Nexus 5", "Pixel 2", "Galaxy S7"}
	bins := [][]float64{
		{900, 1000, 1100}, // three bins, 10% apart
		{950, 1150},       // two bins
		{1000},            // single bin
	}
	const slope = -2.0
	st := store.New(8)
	accepted := seedPopulation(t, st, models, bins, slope, 40, 41)

	sketch := server.NewBinner(server.BinnerConfig{Store: st})

	for mi, model := range models {
		em := exactBins(st, model, 5)
		sm, ok := sketch.ModelBins(model)
		if !ok {
			t.Fatalf("%s: no sketch bins", model)
		}
		if sm.Submissions != em.Submissions || em.Submissions != accepted[model]+5 {
			t.Errorf("%s: Submissions sketch=%d exact=%d want=%d", model, sm.Submissions, em.Submissions, accepted[model]+5)
		}
		if sm.Accepted != em.Accepted || em.Accepted != accepted[model] {
			t.Errorf("%s: Accepted sketch=%d exact=%d want=%d", model, sm.Accepted, em.Accepted, accepted[model])
		}
		if want := len(bins[mi]); em.BinCount != want || sm.BinCount != want {
			t.Fatalf("%s: BinCount sketch=%d exact=%d want=%d", model, sm.BinCount, em.BinCount, want)
		}
		for c := range em.Centroids {
			rel := math.Abs(sm.Centroids[c]-em.Centroids[c]) / em.Centroids[c]
			if rel > 0.005 {
				t.Errorf("%s bin %d: centroid sketch=%g exact=%g (rel %g > 0.5%%)", model, c, sm.Centroids[c], em.Centroids[c], rel)
			}
			if sm.Sizes[c] != em.Sizes[c] {
				t.Errorf("%s bin %d: size sketch=%d exact=%d", model, c, sm.Sizes[c], em.Sizes[c])
			}
		}
		if math.Abs(sm.AmbientSlope-em.AmbientSlope) > 0.2 {
			t.Errorf("%s: slope sketch=%g exact=%g (|diff| > 0.2)", model, sm.AmbientSlope, em.AmbientSlope)
		}
	}
}

// TestSketchBinsFreshWithoutDebounce pins the serving path's headline
// behavior end-to-end: a server serves every committed submission on
// the very next bins read — no background loop in the path.
func TestSketchBinsFreshWithoutDebounce(t *testing.T) {
	srv, base := startStandalone(t)
	client := &http.Client{}
	policy := crowd.DefaultPolicy()

	const n = 8
	for i := 0; i < n; i++ {
		raw := testkit.AcceptedPayload(t, policy, fmt.Sprintf("fresh-%d", i), 1000+10*float64(i), 25)
		resp := postSubmission(t, client, base, raw)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submission %d: status %d", i, resp.StatusCode)
		}
	}
	waitForStored(t, client, base, n)

	mb, ok := srv.Binner().ModelBins("Nexus 5")
	if !ok {
		t.Fatal("no bins immediately after commit")
	}
	if mb.Accepted != n {
		t.Fatalf("Accepted = %d immediately after commit, want %d (bins must not wait for a debounce)", mb.Accepted, n)
	}

	// One more submission must be visible on the next read too.
	raw := testkit.AcceptedPayload(t, policy, "fresh-extra", 1200, 25)
	if resp := postSubmission(t, client, base, raw); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("extra submission: status %d", resp.StatusCode)
	}
	waitForStored(t, client, base, n+1)
	if mb, _ := srv.Binner().ModelBins("Nexus 5"); mb.Accepted != n+1 {
		t.Fatalf("Accepted = %d after extra commit, want %d", mb.Accepted, n+1)
	}
}

// TestSketchEndpoint round-trips GET /v1/sketch: the served bytes must
// decode with stats.DecodeBinSketch and agree with the store's sketch.
func TestSketchEndpoint(t *testing.T) {
	srv, base := startStandalone(t)
	client := &http.Client{}
	policy := crowd.DefaultPolicy()
	const n = 6
	for i := 0; i < n; i++ {
		raw := testkit.AcceptedPayload(t, policy, fmt.Sprintf("sk-%d", i), 1000+5*float64(i), 24)
		if resp := postSubmission(t, client, base, raw); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submission %d: status %d", i, resp.StatusCode)
		}
	}
	waitForStored(t, client, base, n)

	resp, err := client.Get(base + "/v1/sketch?model=Nexus+5")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/sketch: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-accubench-sketch" {
		t.Fatalf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	sk, err := stats.DecodeBinSketch(body)
	if err != nil {
		t.Fatalf("DecodeBinSketch: %v", err)
	}
	if sk.Accepted() != n || sk.Records() != n {
		t.Fatalf("decoded sketch: accepted=%d records=%d, want %d,%d", sk.Accepted(), sk.Records(), n, n)
	}
	ref, _, ok := srv.Store().SketchSnapshot("Nexus 5")
	if !ok || sk.Digest() != ref.Digest() {
		t.Fatalf("served sketch digest differs from store (ok=%v)", ok)
	}

	for path, want := range map[string]int{
		"/v1/sketch":               http.StatusBadRequest,
		"/v1/sketch?model=missing": http.StatusNotFound,
	} {
		resp, err := client.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s: status %d, want %d", path, resp.StatusCode, want)
		}
	}
}

// TestDriftGaugesExposed drives two folds with a shifted population and
// asserts the drift series appear in the Prometheus exposition.
func TestDriftGaugesExposed(t *testing.T) {
	st := store.New(4)
	reg := obs.NewRegistry("crowdd_")
	b := server.NewBinner(server.BinnerConfig{Store: st, Obs: reg})

	put := func(dev string, score float64) {
		t.Helper()
		if _, err := st.Put(store.Record{
			Device: dev, Model: "m", Score: score,
			EstimatedAmbient: 25, Accepted: true,
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		put(fmt.Sprintf("lo-%d", i), 900+float64(i))
		put(fmt.Sprintf("hi-%d", i), 1100+float64(i))
	}
	b.ModelBins("m")
	// Shift the population: every device resubmits ~1% higher.
	for i := 0; i < 10; i++ {
		put(fmt.Sprintf("lo-%d", i), 910+float64(i))
		put(fmt.Sprintf("hi-%d", i), 1111+float64(i))
	}
	b.ModelBins("m")

	var sb strings.Builder
	reg.WritePrometheus(&sb)
	exp := sb.String()
	for _, series := range []string{
		`crowdd_drift_bin_count{model="m"}`,
		`crowdd_drift_centroid_shift_ppm{model="m"}`,
		"crowdd_drift_bin_count_changes_total",
	} {
		if !strings.Contains(exp, series) {
			t.Errorf("exposition missing %s", series)
		}
	}
	// ~1% shift ≈ 10000 ppm; require the gauge moved off zero into a
	// plausible band rather than pinning an exact value.
	var ppm int64
	for _, line := range strings.Split(exp, "\n") {
		if strings.HasPrefix(line, `crowdd_drift_centroid_shift_ppm{model="m"}`) {
			fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%d", &ppm)
		}
	}
	if ppm < 5000 || ppm > 20000 {
		t.Errorf("drift_centroid_shift_ppm = %d, want ~10000 after a 1%% shift", ppm)
	}
}

// TestModelBinsQueryFoldsOnlyThatModel pins GET /v1/bins?model=M: after
// commits to two models, reading one model folds that model's sketch
// alone, and the other model's fold waits for a read that covers it.
func TestModelBinsQueryFoldsOnlyThatModel(t *testing.T) {
	srv, base := startStandalone(t)
	client := &http.Client{}
	for _, model := range []string{"A", "B"} {
		for i := 0; i < 6; i++ {
			if _, err := srv.Store().Put(store.Record{
				Device: fmt.Sprintf("%s-%d", model, i), Model: model,
				Score: 1000 + 10*float64(i), EstimatedAmbient: 25, Accepted: true,
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	folds := func() uint64 {
		return scrapeMetrics(t, client, base)["crowdd_bins_sketch_recomputes_total"]
	}
	get := func(path string) {
		t.Helper()
		resp, err := client.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		drainBody(t, resp)
	}

	before := folds()
	get("/v1/bins?model=A")
	if got := folds() - before; got != 1 {
		t.Fatalf("GET /v1/bins?model=A ran %d folds, want 1 (A only; B's sketch must not be folded)", got)
	}
	get("/v1/bins?model=A")
	if got := folds() - before; got != 1 {
		t.Fatalf("repeat GET /v1/bins?model=A re-folded: %d folds total, want 1", got)
	}
	get("/v1/bins")
	if got := folds() - before; got != 2 {
		t.Fatalf("GET /v1/bins after the A read ran %d folds in total, want 2 (B's first fold)", got)
	}
	m := scrapeMetrics(t, client, base)
	if m["crowdd_bin_recomputes_total"] != m["crowdd_bins_sketch_recomputes_total"] {
		t.Errorf("bin_recomputes_total %d != bins_sketch_recomputes_total %d; both name the fold counter",
			m["crowdd_bin_recomputes_total"], m["crowdd_bins_sketch_recomputes_total"])
	}
}

// TestBinModeGate pins the deprecated Config.BinMode: only "" and
// "sketch" are accepted, any other value is an error naming it, and a
// refused New leaves the data dir free for the next one.
func TestBinModeGate(t *testing.T) {
	dir := t.TempDir()
	if _, err := server.New(server.Config{DataDir: dir, BinMode: "exact"}); err == nil {
		t.Fatal(`New accepted BinMode "exact"`)
	} else if !strings.Contains(err.Error(), `"exact"`) {
		t.Fatalf("error %q does not name the refused mode", err)
	}
	for _, mode := range []string{"", server.BinModeSketch} {
		srv, err := server.New(server.Config{DataDir: dir, BinMode: mode})
		if err != nil {
			t.Fatalf("New with BinMode %q after a refused New: %v", mode, err)
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBinnerConcurrentReadsConverge reads bins from several goroutines
// while commits keep moving the sketch revision, then checks that the
// cache ends at the final revision: a slow fold must never clobber a
// fresher one. Run it under -race.
func TestBinnerConcurrentReadsConverge(t *testing.T) {
	st := store.New(4)
	b := server.NewBinner(server.BinnerConfig{Store: st})
	const n = 200
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				b.ModelBins("m")
				b.Bins()
			}
		}()
	}
	for i := 0; i < n; i++ {
		if _, err := st.Put(store.Record{
			Device: fmt.Sprintf("d-%d", i), Model: "m",
			Score: 1000 + float64(i%7)*100, EstimatedAmbient: 25, Accepted: true,
		}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	rev, _ := st.SketchRevision("m")
	mb, ok := b.ModelBins("m")
	if !ok || mb.Revision != rev || mb.Accepted != n {
		t.Fatalf("after concurrent reads: ok=%v revision %d (store %d), accepted %d (want %d)", ok, mb.Revision, rev, mb.Accepted, n)
	}
}
