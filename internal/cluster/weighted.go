package cluster

import (
	"fmt"
	"math"
	"sort"
)

// WeightedPoint is one clustering input carrying multiplicity: Weight
// devices share the value. The server's binner clusters sketch cells
// — a few hundred weighted points — instead of the full corpus, with
// semantics identical to expanding each point Weight times.
type WeightedPoint struct {
	Value  float64
	Weight int64
}

// WeightedAssignment is the result of weighted clustering. Cluster 0
// holds the smallest values.
type WeightedAssignment struct {
	// Labels[i] is the cluster index of input point i.
	Labels []int
	// Centroids are the weighted cluster means, ascending.
	Centroids []float64
	// Sizes are the total weights (device counts) per cluster.
	Sizes []int64
	// Cost is the total weighted within-cluster sum of squared deviations.
	Cost float64
}

// KMeans1DWeighted exactly solves 1-D k-means over weighted points: the
// same DP over sorted prefixes as KMeans1D, with count prefix sums
// replaced by weight prefix sums. Equivalent to KMeans1D on the
// expanded multiset (each point repeated Weight times), in O(k·n²) of
// the number of distinct points rather than the population size. Each
// point is atomic: all of its weight lands in one cluster.
func KMeans1DWeighted(points []WeightedPoint, k int) (WeightedAssignment, error) {
	n := len(points)
	if k <= 0 {
		return WeightedAssignment{}, fmt.Errorf("cluster: k = %d", k)
	}
	if n == 0 {
		return WeightedAssignment{}, fmt.Errorf("cluster: no points")
	}
	if k > n {
		return WeightedAssignment{}, fmt.Errorf("cluster: k = %d exceeds %d points", k, n)
	}

	type iv struct {
		v   float64
		w   int64
		idx int
	}
	sorted := make([]iv, n)
	for i, p := range points {
		if math.IsNaN(p.Value) || math.IsInf(p.Value, 0) {
			return WeightedAssignment{}, fmt.Errorf("cluster: non-finite value at %d", i)
		}
		if p.Weight <= 0 {
			return WeightedAssignment{}, fmt.Errorf("cluster: non-positive weight at %d", i)
		}
		sorted[i] = iv{v: p.Value, w: p.Weight, idx: i}
	}
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].v < sorted[b].v })

	// Weighted prefix sums for O(1) segment cost.
	preW := make([]float64, n+1)
	preWV := make([]float64, n+1)
	preWV2 := make([]float64, n+1)
	for i, s := range sorted {
		w := float64(s.w)
		preW[i+1] = preW[i] + w
		preWV[i+1] = preWV[i] + w*s.v
		preWV2[i+1] = preWV2[i] + w*s.v*s.v
	}
	segCost := func(i, j int) float64 { // cost of sorted[i..j] inclusive
		w := preW[j+1] - preW[i]
		sum := preWV[j+1] - preWV[i]
		sum2 := preWV2[j+1] - preWV2[i]
		c := sum2 - sum*sum/w
		if c < 0 { // float guard
			c = 0
		}
		return c
	}

	const inf = math.MaxFloat64
	dp := make([][]float64, k)
	cut := make([][]int, k)
	for c := range dp {
		dp[c] = make([]float64, n)
		cut[c] = make([]int, n)
	}
	for j := 0; j < n; j++ {
		dp[0][j] = segCost(0, j)
	}
	for c := 1; c < k; c++ {
		for j := 0; j < n; j++ {
			dp[c][j] = inf
			for i := c; i <= j; i++ {
				cost := dp[c-1][i-1] + segCost(i, j)
				if cost < dp[c][j] {
					dp[c][j] = cost
					cut[c][j] = i
				}
			}
		}
	}

	bounds := make([]int, k+1)
	bounds[k] = n
	j := n - 1
	for c := k - 1; c >= 1; c-- {
		i := cut[c][j]
		bounds[c] = i
		j = i - 1
	}
	bounds[0] = 0

	out := WeightedAssignment{
		Labels:    make([]int, n),
		Centroids: make([]float64, k),
		Sizes:     make([]int64, k),
		Cost:      dp[k-1][n-1],
	}
	for c := 0; c < k; c++ {
		lo, hi := bounds[c], bounds[c+1]
		out.Centroids[c] = (preWV[hi] - preWV[lo]) / (preW[hi] - preW[lo])
		for s := lo; s < hi; s++ {
			out.Labels[sorted[s].idx] = c
			out.Sizes[c] += sorted[s].w
		}
	}
	return out, nil
}

// ChooseKWeighted picks a cluster count in [1, maxK] by weighted
// silhouette, with the same 0.75 separation threshold as ChooseK: below
// it the population is treated as a single bin. maxK is clamped to the
// number of distinct points.
func ChooseKWeighted(points []WeightedPoint, maxK int) (int, error) {
	if maxK <= 0 {
		return 0, fmt.Errorf("cluster: maxK = %d", maxK)
	}
	if maxK > len(points) {
		maxK = len(points)
	}
	bestK, bestSil := 1, 0.0
	for k := 2; k <= maxK; k++ {
		a, err := KMeans1DWeighted(points, k)
		if err != nil {
			return 0, err
		}
		if s := SilhouetteWeighted(points, a); s > bestSil {
			bestSil = s
			bestK = k
		}
	}
	if bestSil < 0.75 {
		return 1, nil
	}
	return bestK, nil
}

// SilhouetteWeighted returns the mean silhouette coefficient over the
// expanded multiset (each point counted Weight times): for a copy of
// value v in cluster c, a = Σ w·|v−u| over c divided by (W_c − 1) — the
// copy's own zero-distance term stays in the sum, the copy itself
// leaves the denominator — and b is the smallest mean distance to
// another cluster. Copies in clusters of total weight < 2 are skipped,
// matching Silhouette's singleton rule. Returns 0 for k < 2.
func SilhouetteWeighted(points []WeightedPoint, a WeightedAssignment) float64 {
	k := len(a.Centroids)
	if k < 2 {
		return 0
	}
	groups := make([][]WeightedPoint, k)
	for i, p := range points {
		c := a.Labels[i]
		groups[c] = append(groups[c], p)
	}
	var total, n float64
	for i, p := range points {
		c := a.Labels[i]
		if a.Sizes[c] < 2 {
			continue
		}
		ai := weightedDistSum(p.Value, groups[c]) / float64(a.Sizes[c]-1)
		bi := math.MaxFloat64
		for oc := 0; oc < k; oc++ {
			if oc == c || a.Sizes[oc] == 0 {
				continue
			}
			if d := weightedDistSum(p.Value, groups[oc]) / float64(a.Sizes[oc]); d < bi {
				bi = d
			}
		}
		den := math.Max(ai, bi)
		if den > 0 {
			w := float64(p.Weight)
			total += w * (bi - ai) / den
			n += w
		}
	}
	if n == 0 {
		return 0
	}
	return total / n
}

func weightedDistSum(v float64, group []WeightedPoint) float64 {
	var sum float64
	for _, g := range group {
		sum += float64(g.Weight) * math.Abs(v-g.Value)
	}
	return sum
}
