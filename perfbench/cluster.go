package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"path/filepath"
	"reflect"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"accubench/internal/store"
	"accubench/internal/wire"
)

// cluster-ingest drives a deployed three-node cluster over the binary
// stream, from two streams homed on nodes n1 and n2:
//
//	A  open loop: frames of batchA uploads on a fixed schedule at rateA
//	   uploads/s, pipelined within each stream's ack window, in chunksA
//	   chunks; each batch's ack latency is timed from its scheduled send.
//	C  halfway through phase A, n3 is crashed (Server.Crash), its data
//	   dir, which holds exactly the first half of phase A's records, is
//	   copied, and n3 is reopened on the original. A shadow of n3, with
//	   n3's cluster config, recovers the copy a few times at each quiet
//	   point from here to the end of the run: now, after each later
//	   chunk of phases A and B and after the checks. Each recovery is
//	   timed to /healthz.
//	B  closed loop: each stream sends its next batchB-upload frame when
//	   the previous one is acked; acked uploads per second is the
//	   capacity. It runs in chunksB chunks.
//
// Every chunk is followed by a quiet point, which also times a few
// set-ups. Then every acked upload must be on every node (full
// replication), the digests must converge, /v1/bins must agree across
// nodes, and the digests after each recovery must equal n3's before the
// crash.
const (
	clusterNodes = 3
	streamCount  = 2
	batchA       = 8
	batchB       = 64
	// rateA is about 60% of the open-loop knee at batchA on a 2-core
	// x86-64 host: there, ack p95 stays within 30–40 ms up to about
	// 320 uploads/s and climbs from about 400 uploads/s, the closed-loop
	// capacity at batchB being about 550 uploads/s.
	rateA = 240.0
	// ackWindow bounds the frames in flight on one stream in phase A.
	ackWindow = 64
	chunksA   = 6
	chunksB   = 8
)

// phase shares of --seconds.
const (
	shareA = 0.50
	shareB = 0.35
)

func runClusterIngest(c *corpus, seconds float64, tr *tracer) (*result, error) {
	res := newResult()
	dir, err := workDir()
	if err != nil {
		return nil, err
	}
	defer removeAll(dir)

	boot := func(i int) (*fleet, error) {
		return startFleet(fmt.Sprintf("%s/setup%d", dir, i), clusterNodes, tr)
	}
	fl, err := setUp(res, boot, setupsAtStart)
	if err != nil {
		return nil, err
	}
	defer fl.close()

	streamClient := &http.Client{Transport: newTransport(streamCount)}
	defer streamClient.CloseIdleConnections()
	streams := make([]*wire.Stream, streamCount)
	for i := range streams {
		if streams[i], err = wire.OpenStream(streamClient, fl.nodes[i].url, nil); err != nil {
			return nil, err
		}
	}
	defer func() {
		for _, s := range streams {
			s.Close()
		}
	}()

	before, err := fl.scrape()
	if err != nil {
		return nil, err
	}
	ack := &ackLog{}
	next := 0

	// A quiet point times a few set-ups and, once phase C has made the
	// shadow's data dir, a few of the shadow's recoveries, while the
	// cluster is idle. So both medians follow the host over most of the
	// run rather than a few moments of it.
	var (
		shadow *node
		want   map[string]store.ModelDigest
		recs   []float64
	)
	quiet := func() error {
		if err := waitConverged(fl, 30*time.Second); err != nil {
			res.fail("before a quiet point: %v", err)
		}
		if err := setUpAgain(res, boot, setupsPerQuiet); err != nil {
			return err
		}
		if shadow == nil {
			return nil
		}
		t, err := recoverTimes(fl, shadow, want, recoveriesPerQuiet, res)
		if err != nil {
			return err
		}
		fl.crash(shadow)
		recs = append(recs, t...)
		return nil
	}

	// Phase A, with phase C halfway through. A reopened node's counters
	// start over, so the /metrics deltas are taken before and after the
	// crash separately.
	var lat []float64
	var beforeC, afterC map[string]float64
	framesA := int(shareA * seconds * rateA / batchA / chunksA)
	for k := 0; k < chunksA; k++ {
		lk, late := openLoopStreams(streams, c, &next, framesA, batchA, rateA, ack, res)
		lat = append(lat, lk...)
		res.genLate = append(res.genLate, late...)
		if k == chunksA/2-1 {
			// Phase C.
			if err := waitConverged(fl, 30*time.Second); err != nil {
				res.fail("before crash: %v", err)
			}
			if beforeC, err = fl.scrape(); err != nil {
				return nil, err
			}
			victim := fl.nodes[clusterNodes-1]
			want = victim.srv.Store().DigestAll()
			fl.crash(victim)
			sh := &node{id: victim.id, addr: "127.0.0.1:0", dataDir: filepath.Join(dir, "shadow"), peers: victim.peers, shadow: true}
			if err := copyDir(victim.dataDir, sh.dataDir); err != nil {
				return nil, err
			}
			if recs, err = recoverTimes(fl, victim, want, 1, res); err != nil {
				return nil, err
			}
			if afterC, err = fl.scrape(); err != nil {
				return nil, err
			}
			shadow = sh
		}
		if err := quiet(); err != nil {
			return nil, err
		}
	}
	res.samples = len(lat)
	res.e2e["p50_ms"] = quantile(lat, 0.50)
	res.e2e["p95_ms"] = quantile(lat, 0.95)
	fmt.Printf("cluster-ingest: phase A %d frames of %d at %.0f uploads/s: ack p50 %.1f ms, p95 %.1f ms\n",
		len(lat), batchA, rateA, res.e2e["p50_ms"], res.e2e["p95_ms"])

	// Phase B.
	var n int
	var el time.Duration
	chunk := time.Duration(shareB / chunksB * seconds * float64(time.Second))
	for k := 0; k < chunksB; k++ {
		nk, elk := closedLoopStreams(streams, c, &next, batchB, chunk, ack, res)
		n, el = n+nk, el+elk
		if err := quiet(); err != nil {
			return nil, err
		}
	}
	res.e2e["rate_per_s"] = float64(n) / el.Seconds()
	fmt.Printf("cluster-ingest: phase B %d uploads acked in %.2f s on %d streams × %d: %.1f uploads/s\n",
		n, el.Seconds(), streamCount, batchB, res.e2e["rate_per_s"])

	// Checks.
	if err := waitConverged(fl, 30*time.Second); err != nil {
		res.fail("after load: %v", err)
	}
	checkAckedPresent(fl, c, ack, res)
	checkBinsIdentical(fl, res)

	after, err := fl.scrape()
	if err != nil {
		return nil, err
	}
	res.scrape = scrapeDelta(before, beforeC)
	for k, v := range scrapeDelta(afterC, after) {
		res.scrape[k] += v
	}
	res.subs = ack.n()
	if err := quiet(); err != nil {
		return nil, err
	}
	printRecovery(shadow, recs)
	res.e2e["oneshot_s"] = median(recs)
	printSetups(res.setups)
	return res, nil
}

// recoverTimes opens a node that is down on its data dir n times,
// crashing it between the reopens, and returns the seconds from each
// reopen to healthy. Each time, its digests must come back as want. The
// node is left running.
func recoverTimes(fl *fleet, nd *node, want map[string]store.ModelDigest, n int, res *result) ([]float64, error) {
	var times []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			fl.crash(nd)
		}
		// A restarted process starts with a fresh heap and faults its
		// memory in; collect the crashed server's garbage and hand it
		// back to the OS so every recovery starts alike.
		debug.FreeOSMemory()
		t, err := fl.reopen(nd)
		if err != nil {
			return nil, err
		}
		times = append(times, t)
		res.attemptN(1)
		if !reflect.DeepEqual(want, nd.srv.Store().DigestAll()) {
			res.failN(1, "%s: digests after recovery differ from those before the crash", nd.id)
		}
	}
	return times, nil
}

// printRecovery reports what the node's last recovery restored and the
// median and quartiles of the recovery times.
func printRecovery(nd *node, times []float64) {
	r, _ := nd.srv.Recovery()
	fmt.Printf("recovery: %s restored %d records (snapshot %d, replayed %d), median of %d recoveries %.4f s (quartiles %.4f, %.4f)\n",
		nd.id, r.Restored, r.SnapshotRecords, r.Replayed, len(times), median(times), quantile(times, 0.25), quantile(times, 0.75))
}

// ackLog records which corpus items were acked.
type ackLog struct {
	mu  sync.Mutex
	idx []int
}

func (a *ackLog) add(idx []int) {
	a.mu.Lock()
	a.idx = append(a.idx, idx...)
	a.mu.Unlock()
}

func (a *ackLog) n() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.idx)
}

// frame takes the next batch uploads of the sequence.
func frame(c *corpus, next *int, batch int) ([]wire.Submission, []int) {
	subs := make([]wire.Submission, batch)
	idx := make([]int, batch)
	for i := range subs {
		idx[i] = c.at(*next)
		subs[i] = c.wire[idx[i]]
		*next++
	}
	return subs, idx
}

// openLoopStreams sends frames round-robin over the streams on a fixed
// schedule and returns each frame's ack latency from its scheduled send
// and how late the generator sent each frame, both in ms.
func openLoopStreams(streams []*wire.Stream, c *corpus, next *int, frames, batch int, rate float64, ack *ackLog, res *result) (lat, late []float64) {
	type pending struct {
		seq uint64
		due time.Time
		idx []int
	}
	type planned struct {
		due  time.Time
		subs []wire.Submission
		idx  []int
	}
	interval := time.Duration(float64(batch) / rate * float64(time.Second))
	plans := make([][]planned, len(streams))
	t0 := time.Now().Add(20 * time.Millisecond)
	for j := 0; j < frames; j++ {
		subs, idx := frame(c, next, batch)
		plans[j%len(streams)] = append(plans[j%len(streams)], planned{t0.Add(time.Duration(j) * interval), subs, idx})
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for s, st := range streams {
		inflight := make(chan pending, ackWindow)
		wg.Add(2)
		go func(st *wire.Stream, plan []planned) {
			defer wg.Done()
			defer close(inflight)
			for _, p := range plan {
				time.Sleep(time.Until(p.due))
				l := time.Since(p.due)
				seq, err := st.Send(p.subs)
				mu.Lock()
				late = append(late, ms(l))
				mu.Unlock()
				if err != nil {
					res.attemptN(len(p.idx))
					res.failN(len(p.idx), "stream send: %v", err)
					return
				}
				inflight <- pending{seq, p.due, p.idx}
			}
		}(st, plans[s])
		go func(st *wire.Stream) {
			defer wg.Done()
			for p := range inflight {
				a, err := st.RecvAck()
				now := time.Now()
				res.attemptN(len(p.idx))
				if err != nil {
					res.failN(len(p.idx), "stream ack: %v", err)
					continue
				}
				if !ackOK(a, p.seq, len(p.idx)) {
					res.failN(len(p.idx), "batch %d: committed %d of %d, err %q", p.seq, a.Committed, len(p.idx), a.Err)
					continue
				}
				ack.add(p.idx)
				mu.Lock()
				lat = append(lat, ms(now.Sub(p.due)))
				mu.Unlock()
			}
		}(st)
	}
	wg.Wait()
	return lat, late
}

func ackOK(a wire.Ack, seq uint64, n int) bool {
	return a.Batch == seq && a.Err == "" && a.Dropped == 0 && int(a.Committed) == n
}

// closedLoopStreams runs one send-and-wait loop per stream for dur and
// returns the acked uploads and the elapsed time.
func closedLoopStreams(streams []*wire.Stream, c *corpus, next *int, batch int, dur time.Duration, ack *ackLog, res *result) (int, time.Duration) {
	var mu sync.Mutex
	var acked atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for _, st := range streams {
		wg.Add(1)
		go func(st *wire.Stream) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				mu.Lock()
				subs, idx := frame(c, next, batch)
				mu.Unlock()
				a, err := st.Do(subs)
				res.attemptN(len(idx))
				if err != nil {
					res.failN(len(idx), "stream: %v", err)
					return
				}
				if !ackOK(a, a.Batch, len(idx)) {
					res.failN(len(idx), "batch %d: committed %d of %d, err %q", a.Batch, a.Committed, len(idx), a.Err)
					continue
				}
				ack.add(idx)
				acked.Add(int64(len(idx)))
			}
		}(st)
	}
	wg.Wait()
	return int(acked.Load()), time.Since(start)
}

// waitConverged polls every node's /v1/digest until all agree.
func waitConverged(fl *fleet, window time.Duration) error {
	deadline := time.Now().Add(window)
	for {
		var first []byte
		same := true
		for i, nd := range fl.nodes {
			b, err := fl.get(nd.url + "/v1/digest")
			if err != nil {
				return err
			}
			if i == 0 {
				first = b
			} else if !bytes.Equal(first, b) {
				same = false
			}
		}
		if same {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("digests did not converge within %v", window)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// checkAckedPresent asks every node for its full model dumps and checks
// that each node holds every acked upload as many times as it was acked,
// and nothing else. The send sequence cycles through the corpus, so an
// upload and its byte-identical twin from a later cycle are told apart
// only by their count.
func checkAckedPresent(fl *fleet, c *corpus, ack *ackLog, res *result) {
	type key struct {
		device string
		score  float64
	}
	want := make(map[key]int)
	for _, i := range ack.idx {
		want[key{c.items[i].Device, c.items[i].Score}]++
	}
	for _, nd := range fl.nodes {
		have := make(map[key]int)
		for _, m := range corpusModels {
			b, err := fl.get(nd.url + "/v1/replicate?model=" + url.QueryEscape(m))
			if err != nil {
				res.fail("%s: model dump: %v", nd.id, err)
				return
			}
			var batch struct {
				Records []store.Record `json:"records"`
			}
			if err := json.Unmarshal(b, &batch); err != nil {
				res.fail("%s: model dump: %v", nd.id, err)
				return
			}
			for _, r := range batch.Records {
				have[key{r.Device, r.Score}]++
			}
		}
		missing, extra := 0, 0
		for k, n := range want {
			missing += max(0, n-have[k])
		}
		for k, n := range have {
			extra += max(0, n-want[k])
		}
		if missing > 0 {
			res.failN(missing, "%s is missing %d acked uploads", nd.id, missing)
		}
		if extra > 0 {
			res.fail("%s holds %d records that were never acked", nd.id, extra)
		}
	}
}

// checkBinsIdentical compares every node's /v1/bins, leaving out the
// serve-time age and the node-local fold revision.
func checkBinsIdentical(fl *fleet, res *result) {
	var first []byte
	for i, nd := range fl.nodes {
		b, err := fl.get(nd.url + "/v1/bins")
		if err != nil {
			res.fail("%s: bins: %v", nd.id, err)
			return
		}
		var out struct {
			Models []map[string]any `json:"models"`
		}
		if err := json.Unmarshal(b, &out); err != nil {
			res.fail("%s: bins: %v", nd.id, err)
			return
		}
		for _, m := range out.Models {
			delete(m, "age_ms")
			delete(m, "revision")
		}
		norm, _ := json.Marshal(out)
		if i == 0 {
			first = norm
			continue
		}
		if !bytes.Equal(first, norm) {
			res.fail("%s serves different bins than %s", nd.id, fl.nodes[0].id)
		}
	}
}
