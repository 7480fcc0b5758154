package main

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"accubench/internal/crowd"
	"accubench/internal/fleetsim"
	"accubench/internal/ingest"
	"accubench/internal/sim"
	"accubench/internal/soc"
	"accubench/internal/stats"
	"accubench/internal/wire"
)

// The corpus is a fleetsim population over the paper's four studied
// models (Figs. 6–9), drawn as crowdload's fleet source draws it: the
// silicon lottery at the default spread, wild ambients uniform in
// [12, 38] °C, integer scores, one cooldown sensor poll every 5 s.
//
// The population is one fixed draw, so that every seed bins the same
// devices and the cost of a bins read does not swing with the seed's
// silicon lottery. The seed draws the rest: the send order, and a second
// population that gives the first rerunsPerModel devices of each model a
// re-run with a different result. Uploads past the first pass are
// therefore repeat uploads from the same device, which make the store
// retract the device's earlier sketch observation.
var corpusModels = []string{"Nexus 5", "Nexus 6P", "LG G5", "Google Pixel"}

const (
	// populationSeed is the fleetsim seed of the fixed population.
	populationSeed = 1
	// devicesPerModel is the population's cohort size per model.
	devicesPerModel = 600
	// rerunsPerModel is the re-run draw's cohort size per model.
	rerunsPerModel = devicesPerModel / 4
	ambientLo      = 12
	ambientHi      = 38
	// corpusVersion names the cache file format; bump it when a draw
	// changes.
	corpusVersion = 2
)

// upload is one submission as the device app would send it.
type upload struct {
	Device   string
	Model    string
	Score    float64
	Cooldown []wire.Point
}

// corpus holds the uploads of one seed and the fixed order they are sent
// in. Upload k of the infinite sequence is items[k % len(items)]; the
// population comes first, then the re-runs in the same relative device
// order, so two uploads from one device are at least len(re-runs) apart
// and the pipeline's few concurrent workers cannot commit them out of
// order.
type corpus struct {
	items []upload
	first int // items[:first] are first uploads, the rest re-runs

	// Encodings prepared before any clock starts.
	json [][]byte
	wire []wire.Submission
}

func (c *corpus) at(k int) int { return k % len(c.items) }

// cachedDraw is the on-disk form of one draw.
type cachedDraw struct {
	Version int
	Uploads []upload
}

// loadCorpus builds the seed's corpus from the fixed population and the
// seed's re-run draw. Each draw takes a few seconds the first time and
// is then read from its cache file under dir; no metric includes either.
func loadCorpus(dir string, seed int64) (*corpus, error) {
	first, err := cachedFleet(dir, populationSeed, devicesPerModel)
	if err != nil {
		return nil, err
	}
	rerun, err := cachedFleet(dir, seed+1_000_003, rerunsPerModel)
	if err != nil {
		return nil, err
	}
	return buildCorpus(seed, first, rerun)
}

func cachedFleet(dir string, seed int64, perModel int) ([]upload, error) {
	path := filepath.Join(dir, fmt.Sprintf("draw-%d-%d.gob", seed, perModel))
	var d cachedDraw
	if b, err := os.ReadFile(path); err == nil && gob.NewDecoder(bytes.NewReader(b)).Decode(&d) == nil && d.Version == corpusVersion {
		return d.Uploads, nil
	}
	ups, err := drawFleet(seed, perModel)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(cachedDraw{Version: corpusVersion, Uploads: ups}); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	return ups, os.Rename(tmp, path)
}

// drawFleet runs the wild protocol on perModel devices of every corpus
// model. Devices are named after their model and index within the
// cohort, so the re-run draw reuses the population's names. Uploads a
// well-behaved app would refuse to send (thermal-runaway traces past the
// ingest validator's ceiling, as crowdload's plausibility check) are
// left out.
func drawFleet(seed int64, perModel int) ([]upload, error) {
	specs := make([]fleetsim.CohortSpec, len(corpusModels))
	for i, name := range corpusModels {
		m, err := soc.ModelByName(name)
		if err != nil {
			return nil, err
		}
		specs[i] = fleetsim.CohortSpec{Model: m, Devices: perModel}
	}
	fl, err := fleetsim.New(fleetsim.Config{Seed: seed, Cohorts: specs, AmbientLo: ambientLo, AmbientHi: ambientHi})
	if err != nil {
		return nil, err
	}
	var mu sync.Mutex
	var subs []fleetsim.Submission
	if err := fl.RunWild(func(s fleetsim.Submission) {
		mu.Lock()
		subs = append(subs, s)
		mu.Unlock()
	}); err != nil {
		return nil, err
	}
	// fleetsim names devices fleet-NNNNNNN across cohorts in spec order,
	// so after sorting, device i is number i%perModel of corpusModels[i/perModel].
	sort.Slice(subs, func(i, j int) bool { return subs[i].Device < subs[j].Device })
	out := make([]upload, 0, len(subs))
	for i, s := range subs {
		u := upload{
			Device:   fmt.Sprintf("m%d-%04d", i/perModel, i%perModel),
			Model:    s.Model,
			Score:    s.Score,
			Cooldown: make([]wire.Point, len(s.Cooldown)),
		}
		for j, p := range s.Cooldown {
			u.Cooldown[j] = wire.Point{AtSeconds: p.At.Seconds(), TempC: float64(p.Reading)}
		}
		if toIngest(u).Validate() != nil {
			continue
		}
		out = append(out, u)
	}
	return out, nil
}

// buildCorpus fixes the send order and prepares both encodings. The
// population is shuffled by the seed; the re-runs follow in the same
// relative device order.
func buildCorpus(seed int64, first, rerun []upload) (*corpus, error) {
	order := sim.NewSource(seed, "perfbench:order").Perm(len(first))
	rank := make(map[string]int, len(first))
	c := &corpus{first: len(first)}
	for r, i := range order {
		rank[first[i].Device] = r
		c.items = append(c.items, first[i])
	}
	rr := append([]upload(nil), rerun...)
	sort.SliceStable(rr, func(i, j int) bool {
		ri, oki := rank[rr[i].Device]
		rj, okj := rank[rr[j].Device]
		if oki != okj {
			return oki
		}
		if ri != rj {
			return ri < rj
		}
		return rr[i].Device < rr[j].Device
	})
	c.items = append(c.items, rr...)
	c.json = make([][]byte, len(c.items))
	c.wire = make([]wire.Submission, len(c.items))
	for i, u := range c.items {
		body, err := ingest.Marshal(u.Device, u.Model, u.Score, toIngest(u).Readings())
		if err != nil {
			return nil, err
		}
		c.json[i] = body
		c.wire[i] = wire.Submission{Device: u.Device, Model: u.Model, Score: u.Score, Cooldown: u.Cooldown}
	}
	return c, nil
}

func toIngest(u upload) ingest.Submission {
	s := ingest.Submission{Device: u.Device, Model: u.Model, Score: u.Score, Cooldown: make([]ingest.CooldownPoint, len(u.Cooldown))}
	for i, p := range u.Cooldown {
		s.Cooldown[i] = ingest.CooldownPoint{AtSeconds: p.AtSeconds, TempC: p.TempC}
	}
	return s
}

// expectedSketches replays uploads [0, n) of the sequence through the
// acceptance policy and the store's per-device sketch rule — every
// record counts, the newest upload per device is the one observed — and
// returns each model's canonical sketch encoding. With standalone
// (unstamped) records the newest is the last committed, which the send
// order fixes.
func (c *corpus) expectedSketches(pol crowd.Policy, n int) map[string][]byte {
	type verdict struct {
		score, est float64
		ok         bool
	}
	memo := make([]*verdict, len(c.items))
	sk := make(map[string]*stats.BinSketch)
	latest := make(map[string]*verdict)
	for k := 0; k < n; k++ {
		i := c.at(k)
		u := c.items[i]
		v := memo[i]
		if v == nil {
			est, ok, err := pol.Evaluate(toIngest(u).Readings())
			v = &verdict{score: u.Score, est: float64(est), ok: ok && err == nil}
			if err != nil {
				v.est = 0
			}
			memo[i] = v
		}
		s := sk[u.Model]
		if s == nil {
			s = stats.NewBinSketch()
			sk[u.Model] = s
		}
		s.NoteRecord()
		if prev := latest[u.Device]; prev != nil && prev.ok {
			s.Unobserve(prev.score, prev.est)
		}
		if v.ok {
			s.Observe(v.score, v.est)
		}
		latest[u.Device] = v
	}
	out := make(map[string][]byte, len(sk))
	for m, s := range sk {
		out[m] = s.AppendBinary(nil)
	}
	return out
}
