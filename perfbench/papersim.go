package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"reflect"
	"runtime"
	"sort"
	"time"

	"accubench/internal/experiments"
	"accubench/internal/fleetsim"
	"accubench/internal/soc"
)

// paper-sim is the simulator half. Each regeneration resets the study
// cache and then makes every experiments call `cmd/experiments -run all`
// renders, in its order, at full (non-quick) length. A run regenerates
// once for every pinned seed, starting at the one --seed picks, so every
// run does the same work in another order: a regeneration's cost varies
// by up to a third from seed to seed. After each regeneration a small
// fleetsim population of the same seed over the corpus models runs the
// wild protocol.
// Every call's results are folded into a digest that must equal the
// value pinned for the seed, as must the fleet's fingerprint: a change
// that only makes the simulator faster leaves both identical.
const (
	fleetPerMdl = 50
	pinnedSeeds = 16
	// fleetSetups is how many times each fleet is set up, timed, before
	// it runs; setup_s is the median over the run.
	fleetSetups = 4
)

// regenCall is one experiments call of a regeneration.
type regenCall struct {
	id  string
	run func(experiments.Options) (any, error)
}

func wrap[T any](f func(experiments.Options) (T, error)) func(experiments.Options) (any, error) {
	return func(o experiments.Options) (any, error) { return f(o) }
}

// regenCalls mirrors cmd/experiments' dispatch of "all": the runners in
// sorted id order, then the full-fleet study behind Table II, Fig. 13 and
// the repeatability figure.
var regenCalls = []regenCall{
	{"AblateWarmup", wrap(experiments.AblateWarmup)},
	{"AblateCooldownTarget", wrap(experiments.AblateCooldownTarget)},
	{"AblateHysteresis", wrap(experiments.AblateHysteresis)},
	{"AblateWorkloadShape", wrap(experiments.AblateWorkloadShape)},
	{"AblateSensorNoise", wrap(experiments.AblateSensorNoise)},
	{"Baseline", wrap(experiments.Baseline)},
	{"Fig1", wrap(experiments.Fig1)},
	{"Fig10", wrap(experiments.Fig10)},
	{"Fig11", wrap(experiments.Fig11)},
	{"Fig12", wrap(experiments.Fig12)},
	{"Fig2", wrap(experiments.Fig2)},
	{"Fig3", wrap(experiments.Fig3)},
	{"Fig4", wrap(experiments.Fig4)},
	{"Fig5", wrap(experiments.Fig5)},
	{"Fig6", studyOf("Nexus 5")},
	{"Fig7", studyOf("Nexus 6P")},
	{"Fig8", studyOf("LG G5")},
	{"Fig9", studyOf("Google Pixel")},
	{"TableI", func(experiments.Options) (any, error) { return experiments.TableI(), nil }},
	{"ThermalMap", wrap(experiments.ThermalMap)},
	{"WhatIfSpeedBinning", wrap(experiments.WhatIfSpeedBinning)},
	{"TableII", tableII},
}

func studyOf(model string) func(experiments.Options) (any, error) {
	return func(o experiments.Options) (any, error) { return experiments.Study(model, o) }
}

func tableII(o experiments.Options) (any, error) {
	rows, studies, err := experiments.TableII(o)
	if err != nil {
		return nil, err
	}
	eff, err := experiments.Fig13(studies)
	if err != nil {
		return nil, err
	}
	avg, iters := experiments.Repeatability(studies)
	return []any{rows, eff, avg, iters}, nil
}

func runPaperSim(seed int64, tr *tracer) (*result, error) {
	res := newResult()
	specs := make([]fleetsim.CohortSpec, len(corpusModels))
	for i, name := range corpusModels {
		m, err := soc.ModelByName(name)
		if err != nil {
			return nil, err
		}
		specs[i] = fleetsim.CohortSpec{Model: m, Devices: fleetPerMdl}
	}
	newFleet := func(s int64) (*fleetsim.Fleet, error) {
		return fleetsim.New(fleetsim.Config{Seed: s, Cohorts: specs, AmbientLo: ambientLo, AmbientHi: ambientHi})
	}
	var calls, regens []float64
	var fleetSteps, fleetWall float64
	hits, misses := 0, 0
	for i := 0; i < pinnedSeeds; i++ {
		s := poolSeed(seed, i)
		o := experiments.Options{Seed: s}
		experiments.ResetStudyCache()
		var root *span
		if tr != nil {
			root = tr.begin("regen", "", 0)
		}
		dg := newDigester()
		regen := 0.0
		for _, call := range regenCalls {
			var sp *span
			if tr != nil {
				sp = tr.begin("regen."+call.id, "", root.ID)
			}
			c0 := time.Now()
			out, err := call.run(o)
			took := ms(time.Since(c0))
			calls = append(calls, took)
			regen += took / 1e3
			if tr != nil {
				tr.end(sp)
			}
			res.attemptN(1)
			if err != nil {
				res.fail("seed %d %s: %v", s, call.id, err)
				continue
			}
			dg.h.Write([]byte(call.id))
			dg.seen = make(map[uintptr]uint64)
			dg.value(reflect.ValueOf(out))
		}
		regens = append(regens, regen)
		if tr != nil {
			tr.end(root)
		}
		// One fleet run after each regeneration spreads the fleet's
		// samples, and its timed set-ups, over the whole run.
		var fl *fleetsim.Fleet
		for k := 0; k < fleetSetups; k++ {
			runtime.GC()
			t0 := time.Now()
			f, err := newFleet(s)
			if err != nil {
				return nil, err
			}
			res.setups = append(res.setups, time.Since(t0).Seconds())
			fl = f
		}
		f0 := time.Now()
		if err := fl.RunWild(func(fleetsim.Submission) {}); err != nil {
			return nil, err
		}
		fleetWall += time.Since(f0).Seconds()
		fleetSteps += float64(fl.Devices()) * float64(fleetsim.WildSteps)
		res.attemptN(1)
		if fp, want := fl.Fingerprint(), pinnedFleet[s]; fp != want {
			res.failN(1, "fleet seed %d: fingerprint %016x, pinned %016x", s, fp, want)
		}

		sh, sm := experiments.StudyCacheStats()
		hits, misses = hits+sh, misses+sm
		d := dg.h.Sum64()
		fmt.Printf("paper-sim: seed %d regenerated in %.3f s, statistics digest %016x\n", s, regens[len(regens)-1], d)
		res.attemptN(1)
		if want := pinnedStats[s]; d != want {
			res.fail("seed %d: statistics digest %016x, pinned %016x", s, d, want)
		}
	}
	res.e2e["oneshot_s"] = median(regens)
	res.e2e["p50_ms"] = quantile(calls, 0.50)
	res.e2e["p95_ms"] = quantile(calls, 0.95)
	res.samples = len(calls)
	if hits+misses > 0 {
		res.layer["experiments.cache_hit_ratio"] = float64(hits) / float64(hits+misses)
	}

	res.e2e["rate_per_s"] = fleetSteps / fleetWall
	printSetups(res.setups)
	fmt.Printf("paper-sim: %d regenerations, median %.3f s; %d experiment calls p50 %.1f ms p95 %.1f ms; %d fleets of %d devices: %.4g dev-steps/s\n",
		len(regens), res.e2e["oneshot_s"], len(calls), res.e2e["p50_ms"], res.e2e["p95_ms"], pinnedSeeds, len(specs)*fleetPerMdl, res.e2e["rate_per_s"])
	return res, nil
}

// poolSeed is the i-th simulation seed of a run: the runs draw from a
// pool of pinnedSeeds seeds whose results are pinned in pins.go, starting at
// an offset the run's seed chooses.
func poolSeed(seed int64, i int) int64 {
	k := (seed + int64(i)) % pinnedSeeds
	if k < 0 {
		k += pinnedSeeds
	}
	return k + 1
}

// digester folds results into a hash: numbers by their bits, strings
// by their bytes, maps in sorted key order, pointers by what they point
// to. A pointer met again within one result hashes as the order it was
// first met, so shared or cyclic structures hash once; seen is reset per
// result, whose objects stay alive while it is hashed.
type digester struct {
	h    hash.Hash64
	seen map[uintptr]uint64
	b    [8]byte
}

func newDigester() *digester { return &digester{h: fnv.New64a()} }

func (d *digester) put(x uint64) {
	binary.LittleEndian.PutUint64(d.b[:], x)
	d.h.Write(d.b[:])
}

func (d *digester) value(v reflect.Value) {
	switch v.Kind() {
	case reflect.Invalid:
		d.put(0)
	case reflect.Bool:
		if v.Bool() {
			d.put(1)
		} else {
			d.put(0)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		d.put(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		d.put(v.Uint())
	case reflect.Float32, reflect.Float64:
		d.put(math.Float64bits(v.Float()))
	case reflect.String:
		d.put(uint64(v.Len()))
		d.h.Write([]byte(v.String()))
	case reflect.Pointer:
		if v.IsNil() {
			d.put(0)
			return
		}
		if k, ok := d.seen[v.Pointer()]; ok {
			d.put(k)
			return
		}
		d.seen[v.Pointer()] = uint64(len(d.seen) + 1)
		d.value(v.Elem())
	case reflect.Interface:
		if v.IsNil() {
			d.put(0)
			return
		}
		d.value(v.Elem())
	case reflect.Slice, reflect.Array:
		d.put(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			d.value(v.Index(i))
		}
	case reflect.Map:
		keys := v.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return fmt.Sprint(keys[i]) < fmt.Sprint(keys[j]) })
		d.put(uint64(len(keys)))
		for _, k := range keys {
			d.value(k)
			d.value(v.MapIndex(k))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			d.value(v.Field(i))
		}
	default:
		// Functions and channels carry no statistic.
	}
}
