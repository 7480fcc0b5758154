package server

import (
	"math"
	"sync"

	"accubench/internal/cluster"
	"accubench/internal/obs"
	"accubench/internal/stats"
	"accubench/internal/store"
)

// ModelBins is the binning of one model's accepted population — the §VI
// endgame: normalized-score clusters standing in for the vendor's
// undisclosed speed bins.
type ModelBins struct {
	// Model is the handset model.
	Model string `json:"model"`
	// Submissions counts every stored record for the model.
	Submissions int `json:"submissions"`
	// Accepted counts the filtered population the bins are computed over
	// (latest record per device).
	Accepted int `json:"accepted"`
	// AmbientSlope is the fitted score-per-°C slope used to normalize
	// scores to the 26 °C reference; zero when the population is too small
	// or too ambient-uniform to fit.
	AmbientSlope float64 `json:"ambient_slope_per_c"`
	// BinCount is the discovered bin count (0 until the population
	// reaches the clustering minimum).
	BinCount int `json:"bin_count"`
	// Centroids are the bins' normalized-score centers, ascending (bin 0
	// is the worst silicon).
	Centroids []float64 `json:"centroids,omitempty"`
	// Sizes are the per-bin device counts, aligned with Centroids.
	Sizes []int `json:"sizes,omitempty"`
	// Revision is the store's sketch revision the bins were folded at.
	Revision uint64 `json:"revision"`
}

// minClusterPop is the smallest accepted population worth clustering,
// matching the batch study in internal/crowd.
const minClusterPop = 4

// BinModeSketch names the only bin-serving path: bins folded from the
// store's streaming population sketches.
//
// Deprecated: bins are always served from the sketches. The constant
// remains because existing configurations still set Config.BinMode and
// BinnerConfig.Mode to it; it will be removed with those fields.
const BinModeSketch = "sketch"

// Binner serves per-model bins from the store's population sketches,
// which the store keeps current on every commit. There is no background
// loop: a read folds the model's sketch on demand — O(cells), never
// O(corpus) — and caches the result until the store's sketch revision
// for that model moves, so served bins are always current.
type Binner struct {
	store *store.Store
	// maxK bounds the discovered bin count.
	maxK int

	// mu guards cache: per model, the bins folded at .Revision, served
	// until the store's sketch revision moves past it.
	mu    sync.Mutex
	cache map[string]ModelBins

	// folds counts fresh sketch folds; it backs both bin_recomputes_total
	// and bins_sketch_recomputes_total.
	folds       *obs.Counter
	cachedReads *obs.Counter

	// Drift instrumentation: the silicon-lottery story as monitoring —
	// how far each model's bin centroids moved on the latest fold, and
	// whether the bin count itself changed.
	driftShift   *obs.GaugeVec
	driftBins    *obs.GaugeVec
	driftChanges *obs.Counter
}

// BinnerConfig parameterizes a Binner.
type BinnerConfig struct {
	// Store is the submission store to bin. Required.
	Store *store.Store
	// MaxK bounds the discovered bin count (default 5 — the paper's
	// Nexus 5 study saw bins 0–4).
	MaxK int
	// Mode is ignored: bins are always folded from the store sketches.
	//
	// Deprecated: kept only so existing configurations that set it to
	// BinModeSketch still compile; it will be removed.
	Mode string
	// Obs, when non-nil, registers the drift gauges and fold counters
	// (docs/METRICS.md, "Binning & drift"). Nil keeps them private.
	Obs *obs.Registry
}

// NewBinner creates a binner over the store's sketches.
func NewBinner(cfg BinnerConfig) *Binner {
	if cfg.MaxK <= 0 {
		cfg.MaxK = 5
	}
	// A nil registry hands out private metrics, so the binner is always
	// instrumented.
	reg := cfg.Obs
	return &Binner{
		store: cfg.Store,
		maxK:  cfg.MaxK,
		cache: make(map[string]ModelBins),
		folds: reg.Counter("bins_sketch_recomputes_total",
			"bins computed from a fresh sketch fold"),
		cachedReads: reg.Counter("bins_sketch_cached_reads_total",
			"bins served from the revision-matched cache"),
		driftShift: reg.GaugeVec("drift_centroid_shift_ppm",
			"mean relative centroid shift vs the previous revision, parts per million", "model"),
		driftBins: reg.GaugeVec("drift_bin_count",
			"discovered bin count per model", "model"),
		driftChanges: reg.Counter("drift_bin_count_changes_total",
			"folds that changed a model's bin count"),
	}
}

// Bins returns the bins for every model, sorted by model name.
func (b *Binner) Bins() []ModelBins {
	models := b.store.Models()
	out := make([]ModelBins, 0, len(models))
	for _, m := range models {
		if mb, ok := b.ModelBins(m); ok {
			out = append(out, mb)
		}
	}
	return out
}

// ModelBins returns one model's bins. A read whose sketch revision still
// matches the cached fold is a pure cache hit; the first read after any
// commit for the model re-folds O(cells).
func (b *Binner) ModelBins(model string) (ModelBins, bool) {
	rev, ok := b.store.SketchRevision(model)
	if !ok {
		return ModelBins{}, false
	}
	b.mu.Lock()
	cached, hit := b.cache[model]
	b.mu.Unlock()
	if hit && cached.Revision == rev {
		b.cachedReads.Inc()
		return cached, true
	}

	sk, rev, ok := b.store.SketchSnapshot(model)
	if !ok {
		return ModelBins{}, false
	}
	mb := binsFromSketch(model, sk, b.maxK)
	mb.Revision = rev
	b.folds.Inc()

	b.mu.Lock()
	old, hadOld := b.cache[model]
	// Concurrent reads race to fill the cache; the highest revision wins
	// so a slow fold never clobbers a fresher one.
	published := !hadOld || old.Revision <= mb.Revision
	if published {
		b.cache[model] = mb
	} else {
		mb = old
	}
	b.mu.Unlock()
	if published {
		b.noteDrift(old, hadOld, mb)
	}
	return mb, true
}

// Recomputes returns how many sketch folds have run — the proof that
// repeated GET /v1/bins reads between commits do not re-cluster.
func (b *Binner) Recomputes() uint64 { return b.folds.Value() }

// binsFromSketch clusters a population sketch into ModelBins, operating
// on weighted cell representatives instead of raw records: fit the
// ambient slope (AmbientFit applies the identifiability gate), normalize
// every cell's score to the 26 °C reference, then cluster with the
// weighted exact k-means. Agreement with an exact per-record binning is
// bounded by the sketch's cell resolution; docs/BINNING.md states the
// tolerance contract the goldens enforce.
func binsFromSketch(model string, sk *stats.BinSketch, maxK int) ModelBins {
	mb := ModelBins{
		Model:       model,
		Submissions: int(sk.Records()),
		Accepted:    int(sk.Accepted()),
	}
	slope, fitted := sk.AmbientFit()
	if fitted {
		mb.AmbientSlope = slope
	}
	pts := sk.Points()
	if mb.Accepted < minClusterPop || len(pts) == 0 {
		return mb
	}
	wpts := make([]cluster.WeightedPoint, len(pts))
	for i, p := range pts {
		wpts[i] = cluster.WeightedPoint{
			Value:  p.Score - slope*(p.Ambient-26),
			Weight: p.Weight,
		}
	}
	k, err := cluster.ChooseKWeighted(wpts, maxK)
	if err != nil {
		return mb
	}
	asg, err := cluster.KMeans1DWeighted(wpts, k)
	if err != nil {
		return mb
	}
	mb.BinCount = k
	mb.Centroids = asg.Centroids
	mb.Sizes = make([]int, k)
	for c, w := range asg.Sizes {
		mb.Sizes[c] = int(w)
	}
	return mb
}

// noteDrift publishes the drift gauges for a freshly folded binning: the
// current bin count, whether it changed, and the mean relative centroid
// shift vs the previous revision in parts per million — the
// silicon-lottery population moving, told as monitoring.
func (b *Binner) noteDrift(old ModelBins, hadOld bool, mb ModelBins) {
	b.driftBins.With(mb.Model).Set(int64(mb.BinCount))
	if !hadOld {
		return
	}
	if old.BinCount != mb.BinCount {
		b.driftChanges.Inc()
	}
	n := min(len(old.Centroids), len(mb.Centroids))
	if n == 0 {
		return
	}
	var rel float64
	for i := 0; i < n; i++ {
		if old.Centroids[i] != 0 {
			rel += math.Abs(mb.Centroids[i]-old.Centroids[i]) / math.Abs(old.Centroids[i])
		}
	}
	b.driftShift.With(mb.Model).Set(int64(rel / float64(n) * 1e6))
}
