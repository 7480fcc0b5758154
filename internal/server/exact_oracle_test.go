package server_test

import (
	"accubench/internal/cluster"
	"accubench/internal/server"
	"accubench/internal/stats"
	"accubench/internal/store"
)

// exactMinClusterPop is the smallest accepted population the oracle
// clusters, matching the server's sketch path and internal/crowd.
const exactMinClusterPop = 4

// exactBins is the exact per-record binning the sketch path is held
// against (TestSketchBinsMatchExactGolden): normalize the accepted
// population's scores to the 26 °C reference ambient, then cluster them
// (exact 1-D k-means, silhouette-selected k). It scans the whole corpus,
// so it lives here as a test oracle, never on the serving path. Unlike
// crowd.Run it fits the slope only when the ambients spread over more
// than 0.5 °C, the same identifiability gate BinSketch.AmbientFit
// applies.
func exactBins(st *store.Store, model string, maxK int) server.ModelBins {
	all := st.Model(model)
	mb := server.ModelBins{Model: model, Submissions: len(all)}

	// Each device's newest record, in first-seen order. Store.Device is
	// global across models, so a device whose newest record moved to
	// another model is skipped; no population the oracle runs on moves
	// devices between models.
	var latest []store.Record
	seen := make(map[string]bool)
	for _, r := range all {
		if seen[r.Device] {
			continue
		}
		seen[r.Device] = true
		if rec, ok := st.Device(r.Device); ok && rec.Model == model {
			latest = append(latest, rec)
		}
	}

	var scores, ambs []float64
	for _, r := range latest {
		if !r.Accepted {
			continue
		}
		scores = append(scores, r.Score)
		ambs = append(ambs, float64(r.EstimatedAmbient))
	}
	mb.Accepted = len(scores)

	normalized := append([]float64(nil), scores...)
	if len(scores) >= 3 && spread(ambs) > 0.5 {
		// The slope fit needs ambient variation to be identifiable; an
		// ambient-uniform population needs no normalization anyway.
		_, slope := stats.LinearFit(ambs, scores)
		mb.AmbientSlope = slope
		for i := range normalized {
			normalized[i] = scores[i] - slope*(ambs[i]-26)
		}
	}

	if len(normalized) >= exactMinClusterPop {
		if k, err := cluster.ChooseK(normalized, maxK); err == nil {
			if asg, err := cluster.KMeans1D(normalized, k); err == nil {
				mb.BinCount = k
				mb.Centroids = asg.Centroids
				mb.Sizes = make([]int, k)
				for _, lbl := range asg.Labels {
					mb.Sizes[lbl]++
				}
			}
		}
	}
	return mb
}

// spread returns max-min of xs.
func spread(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return hi - lo
}
