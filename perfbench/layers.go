package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"accubench/internal/accubench"
	"accubench/internal/crowd"
	"accubench/internal/device"
	"accubench/internal/fleetsim"
	"accubench/internal/hlc"
	"accubench/internal/ingest"
	"accubench/internal/monsoon"
	"accubench/internal/replication"
	"accubench/internal/server"
	"accubench/internal/silicon"
	"accubench/internal/soc"
	"accubench/internal/store"
	"accubench/internal/wal"
	"accubench/internal/wire"
)

// The isolated layer runs time each module's public calls on the seed's
// corpus, one call site at a time, on a single goroutine. They run in
// every traced run, whatever its workload, so each layer's cost is
// reported on the same inputs everywhere.

// layerCost is one layer's measured cost per submission.
type layerCost struct {
	nsPerSub     float64
	allocsPerSub float64
}

// measure runs fn until at least minDur has passed (and at least once),
// and returns ns and allocations per unit, fn reporting how many units
// each call did.
func measure(minDur time.Duration, fn func() int) layerCost {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	units := 0
	start := time.Now()
	for units == 0 || time.Since(start) < minDur {
		units += fn()
	}
	el := time.Since(start)
	runtime.ReadMemStats(&ms1)
	return layerCost{
		nsPerSub:     float64(el.Nanoseconds()) / float64(units),
		allocsPerSub: float64(ms1.Mallocs-ms0.Mallocs) / float64(units),
	}
}

// layerRun holds the isolated measurements of one run.
type layerRun struct {
	metrics map[string]float64
	budget  []budgetRow
}

type budgetRow struct {
	layer string
	cost  layerCost
}

func runLayers(c *corpus) (*layerRun, error) {
	lr := &layerRun{metrics: make(map[string]float64)}
	m := lr.metrics
	pol := crowd.DefaultPolicy()

	// Front door: wire decode, JSON decode, validation, ambient filter.
	var frames [][]byte
	for k := 0; k+batchB <= len(c.wire); k += batchB {
		b, err := wire.AppendBatchFrame(nil, uint64(k+1), c.wire[k:k+batchB])
		if err != nil {
			return nil, err
		}
		frames = append(frames, b)
	}
	var decodeErr error
	fi := 0
	wireCost := measure(150*time.Millisecond, func() int {
		fr, _, err := wire.DecodeFrame(frames[fi%len(frames)])
		fi++
		if err != nil {
			decodeErr = err
			return batchB
		}
		if _, err := wire.DecodeSubmissions(fr); err != nil {
			decodeErr = err
		}
		return batchB
	})
	if decodeErr != nil {
		return nil, decodeErr
	}
	m["wire.decode_ns_per_sub"] = wireCost.nsPerSub

	ji := 0
	jsonCost := measure(150*time.Millisecond, func() int {
		if _, err := ingest.Decode(c.json[ji%len(c.json)]); err != nil {
			decodeErr = err
		}
		ji++
		return 1
	})
	if decodeErr != nil {
		return nil, decodeErr
	}
	m["ingest.json_decode_ns_per_sub"] = jsonCost.nsPerSub

	subs := make([]ingest.Submission, len(c.items))
	for i, u := range c.items {
		subs[i] = toIngest(u)
	}
	vi := 0
	validateCost := measure(100*time.Millisecond, func() int {
		if err := subs[vi%len(subs)].Validate(); err != nil {
			decodeErr = err
		}
		vi++
		return 1
	})
	if decodeErr != nil {
		return nil, decodeErr
	}
	m["ingest.validate_ns_per_sub"] = validateCost.nsPerSub

	readings := make([][]accubench.CooldownSample, len(subs))
	for i, s := range subs {
		readings[i] = s.Readings()
	}
	ei := 0
	evalCost := measure(150*time.Millisecond, func() int {
		pol.Evaluate(readings[ei%len(readings)])
		ei++
		return 1
	})
	m["crowd.evaluate_ns_per_sub"] = evalCost.nsPerSub
	recs := make([]store.Record, len(subs))
	for i, s := range subs {
		est, ok, err := pol.Evaluate(readings[i])
		recs[i] = store.Record{Device: s.Device, Model: s.Model, Score: s.Score, EstimatedAmbient: est, Accepted: ok && err == nil}
	}

	// Store and sketch.
	var putErr error
	putCost := measure(150*time.Millisecond, func() int {
		st := store.New(16)
		batch := make([]store.Record, batchB)
		seq := uint64(0)
		n := 0
		for k := 0; k+batchB <= len(recs); k += batchB {
			for j := range batch {
				seq++
				batch[j] = recs[k+j]
				batch[j].Seq = seq
			}
			if err := st.PutSeqBatch(batch); err != nil {
				putErr = err
			}
			n += batchB
		}
		return n
	})
	if putErr != nil {
		return nil, putErr
	}
	m["store.put_batch_ns_per_sub"] = putCost.nsPerSub

	foldMS, cells, err := measureFold(recs[:c.first], recs[c.first:])
	if err != nil {
		return nil, err
	}
	m["bins.fold_ms"] = foldMS
	m["stats.sketch_cells"] = float64(cells)

	// WAL and replica apply, on data dirs under the build directory.
	dir, err := os.MkdirTemp(buildDir, "layers-")
	if err != nil {
		return nil, err
	}
	defer removeAll(dir)
	commit, commitBatch, replay, err := measureWAL(dir, recs)
	if err != nil {
		return nil, err
	}
	m["wal.commit_us"] = commit.nsPerSub / 1e3
	m["wal.commit_batch_us"] = commitBatch.nsPerSub * batchB / 1e3
	m["wal.replay_ms_per_10k"] = replay
	apply, err := measureApply(filepath.Join(dir, "apply"), recs)
	if err != nil {
		return nil, err
	}
	m["repl.apply_us_per_sub"] = apply.nsPerSub / 1e3

	// Simulator layers.
	sim, err := measureSimulator()
	if err != nil {
		return nil, err
	}
	for k, v := range sim {
		m[k] = v
	}

	lr.budget = []budgetRow{
		{"wire decode (DecodeFrame + DecodeSubmissions)", wireCost},
		{"validate (Submission.Validate)", validateCost},
		{"ambient estimate + filter (Policy.Evaluate)", evalCost},
		{"WAL group commit (Persister.CommitBatch / 64)", commitBatch},
		{"store + sketch (Store.PutSeqBatch)", putCost},
		{"replica apply (Replicator.ApplyRemote)", apply},
	}
	return lr, nil
}

// measureFold loads the first draw into a store, then alternates a
// commit of one re-run with a sketch-mode bins read of its model, and
// returns the median read time and the store's total sketch cells.
func measureFold(first, reruns []store.Record) (float64, int, error) {
	st := store.New(16)
	for _, r := range first {
		if _, err := st.Put(r); err != nil {
			return 0, 0, err
		}
	}
	cells := 0
	for _, model := range corpusModels {
		if sk, _, ok := st.SketchSnapshot(model); ok {
			cells += sk.Cells()
		}
	}
	b := server.NewBinner(server.BinnerConfig{Store: st, MaxK: 5, Mode: server.BinModeSketch})
	var folds []float64
	for i := 0; i < 40; i++ {
		r := reruns[i%len(reruns)]
		if _, err := st.Put(r); err != nil {
			return 0, 0, err
		}
		t0 := time.Now()
		if _, ok := b.ModelBins(r.Model); !ok {
			return 0, 0, fmt.Errorf("no bins for %s", r.Model)
		}
		folds = append(folds, ms(time.Since(t0)))
	}
	return median(folds), cells, nil
}

// measureWAL times sequential Persister.Commit calls, 64-record
// CommitBatch calls, and wal.Open replaying a log of about 4000 records
// with no snapshot.
func measureWAL(dir string, recs []store.Record) (commit, batch layerCost, replayMSPer10k float64, err error) {
	open := func(sub string) (*wal.Persister, error) {
		p, _, err := wal.Open(wal.PersistConfig{Dir: filepath.Join(dir, sub), FlushEvery: wal.DefaultFlushEvery}, store.New(16))
		return p, err
	}
	p, err := open("commit")
	if err != nil {
		return
	}
	ci := 0
	commit = measure(150*time.Millisecond, func() int {
		r := recs[ci%len(recs)]
		ci++
		if _, cerr := p.Commit(&r); cerr != nil {
			err = cerr
		}
		return 1
	})
	p.Crash()
	if err != nil {
		return
	}

	const (
		timedBatches  = 30
		replayRecords = 4000 // below the default snapshot trigger
	)
	p, err = open("batch")
	if err != nil {
		return
	}
	logged := 0
	ptrs := make([]*store.Record, batchB)
	commitNext := func() error {
		for j := range ptrs {
			r := recs[(logged+j)%len(recs)]
			ptrs[j] = &r
		}
		logged += batchB
		return p.CommitBatch(ptrs)
	}
	batch = measure(0, func() int {
		for i := 0; i < timedBatches && err == nil; i++ {
			err = commitNext()
		}
		return timedBatches * batchB
	})
	for err == nil && logged+batchB <= replayRecords {
		err = commitNext()
	}
	p.Crash()
	if err != nil {
		return
	}
	var replays []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		q, rec, oerr := wal.Open(wal.PersistConfig{Dir: filepath.Join(dir, "batch"), FlushEvery: wal.DefaultFlushEvery}, store.New(16))
		if oerr != nil {
			err = oerr
			return
		}
		replays = append(replays, ms(time.Since(t0))*1e4/float64(rec.Restored))
		q.Crash()
	}
	replayMSPer10k = median(replays)
	return
}

// measureApply times Replicator.ApplyRemote on 64-record batches of
// records stamped by another node, applied through a durable
// Persister.Commit as a cluster node applies them.
func measureApply(dir string, recs []store.Record) (layerCost, error) {
	st := store.New(16)
	p, _, err := wal.Open(wal.PersistConfig{Dir: dir, FlushEvery: wal.DefaultFlushEvery}, st)
	if err != nil {
		return layerCost{}, err
	}
	defer p.Crash()
	r, err := replication.New(replication.Config{
		NodeID: "bench",
		Clock:  hlc.NewClock(nil, 0),
		Store:  st,
		Apply: func(rec *store.Record) error {
			_, err := p.Commit(rec)
			return err
		},
	})
	if err != nil {
		return layerCost{}, err
	}
	peer := hlc.NewClock(nil, 0)
	next := 0
	var applyErr error
	cost := measure(300*time.Millisecond, func() int {
		batch := make([]store.Record, batchB)
		for j := range batch {
			batch[j] = recs[next%len(recs)]
			batch[j].SetStamp("peer", peer.Now())
			next++
		}
		res, err := r.ApplyRemote(batch)
		if err != nil {
			applyErr = err
		} else if res.Applied != batchB {
			applyErr = fmt.Errorf("applied %d of %d", res.Applied, batchB)
		}
		return batchB
	})
	return cost, applyErr
}

// measureSimulator times the simulator's inner steps as the root
// benchmarks do: a thermal network step, a busy device's 100 ms control
// step, one quick ACCUBENCH iteration and a fleet cohort step.
func measureSimulator() (map[string]float64, error) {
	m := make(map[string]float64)
	model := soc.Nexus5()
	nw, die, _, err := model.Body.Build(26)
	if err != nil {
		return nil, err
	}
	var stepErr error
	th := measure(100*time.Millisecond, func() int {
		for i := 0; i < 1000; i++ {
			if err := nw.Inject(die, 5); err != nil {
				stepErr = err
			}
			nw.Step(100 * time.Millisecond)
		}
		return 1000
	})
	m["thermal.step_ns"] = th.nsPerSub

	newDevice := func(seed int64) (*device.Device, *monsoon.Monitor, error) {
		mon := monsoon.New(3.8)
		d, err := device.New(device.Config{
			Name:    "bench",
			Model:   model,
			Corner:  silicon.ProcessCorner{Bin: 2, Leakage: 1.3},
			Ambient: 26,
			Seed:    seed,
			Source:  mon.Supply(),
		})
		return d, mon, err
	}
	dev, _, err := newDevice(1)
	if err != nil {
		return nil, err
	}
	dev.StartWorkload()
	ds := measure(100*time.Millisecond, func() int {
		for i := 0; i < 100; i++ {
			if err := dev.Step(100 * time.Millisecond); err != nil {
				stepErr = err
			}
		}
		return 100
	})
	m["device.step_ns"] = ds.nsPerSub

	var iters []float64
	for i := 0; i < 3; i++ {
		d, mon, err := newDevice(int64(i))
		if err != nil {
			return nil, err
		}
		cfg := accubench.DefaultConfig(accubench.Unconstrained)
		cfg.Warmup = 30 * time.Second
		cfg.Workload = time.Minute
		cfg.Iterations = 1
		t0 := time.Now()
		if _, err := (&accubench.Runner{Device: d, Monitor: mon, Config: cfg}).Run(); err != nil {
			return nil, err
		}
		iters = append(iters, ms(time.Since(t0)))
	}
	m["accubench.iteration_ms"] = median(iters)

	const cohort = 2048
	fl, err := fleetsim.New(fleetsim.Config{Seed: 1, Cohorts: []fleetsim.CohortSpec{{Model: model, Devices: cohort}}, AmbientLo: ambientLo, AmbientHi: ambientHi})
	if err != nil {
		return nil, err
	}
	c := fl.Cohorts()[0]
	ph := fleetsim.Phase{Busy: true, Wakelock: true}
	fs := measure(100*time.Millisecond, func() int {
		if err := c.Step(0, cohort, &ph, 100*time.Millisecond); err != nil {
			stepErr = err
		}
		return cohort
	})
	m["fleetsim.cohort_step_ns_per_dev"] = fs.nsPerSub
	return m, stepErr
}

// printBudget prints the per-submission cost of each layer on the
// cluster-ingest blocking path beside the end-to-end time per upload on
// one stream, and the residue the isolated calls do not account for.
func printBudget(rows []budgetRow, ratePerS float64) {
	if ratePerS <= 0 {
		return
	}
	e2e := float64(streamCount) * 1e9 / ratePerS
	fmt.Println("budget: cluster-ingest blocking path, per upload (isolated calls on the corpus)")
	fmt.Printf("budget: %-48s %14s %12s\n", "layer", "ns/sub", "allocs/sub")
	sum := 0.0
	sorted := append([]budgetRow(nil), rows...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].cost.nsPerSub > sorted[j].cost.nsPerSub })
	for _, r := range sorted {
		fmt.Printf("budget: %-48s %14.0f %12.1f\n", r.layer, r.cost.nsPerSub, r.cost.allocsPerSub)
		sum += r.cost.nsPerSub
	}
	fmt.Printf("budget: %-48s %14.0f\n", "sum of layers", sum)
	fmt.Printf("budget: %-48s %14.0f\n", fmt.Sprintf("end to end (%d streams / %.1f uploads/s)", streamCount, ratePerS), e2e)
	fmt.Printf("budget: %-48s %14.0f\n", "residue (end to end - sum), reported not asserted", e2e-sum)
}
