package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"path/filepath"
	"sync"
	"time"

	"accubench/internal/crowd"
	"accubench/internal/wal"
	"accubench/internal/wire"
)

// standalone-mixed drives one deployed durable node with sketch bins.
// preloadCycles passes over the upload sequence are preloaded over the
// binary stream (untimed), so the data dir holds a snapshot plus a log
// tail. A copy of that data dir is recovered by a second node a few
// times at each quiet point of the run (timed to /healthz): after the
// preload, after each chunk of the two phases below and after the
// checks. The two phases post the rest of the upload sequence as JSON,
// every upload a repeat upload, on one connection:
//
//	W  closed loop for shareW of --seconds, in chunksW chunks. Its rate
//	   is drain-inclusive: each chunk's clock stops when /v1/bins counts
//	   every 202'd upload.
//	R  open loop at jsonRate uploads/s for shareR of --seconds, in
//	   chunksR chunks, while an open-loop reader GETs /v1/bins at
//	   binsRate on a second connection; each read is timed from its
//	   scheduled send.
//
// Reads are timed beside a fixed write rate rather than beside the
// closed loop: a saturated node's read latency measures its queue, and
// swings with the host's speed far more than the node's own costs.
const (
	// preloadCycles makes about 9000 records: two snapshots are cut
	// on the way, at 4096 and 8192 commits.
	preloadCycles = 3
	shareW        = 0.35
	shareR        = 0.50
	binsRate      = 50.0
	// jsonRate is about a third of phase W's rate on a 2-core x86-64
	// host, low enough that a slower host does not push the node into
	// its queue.
	jsonRate = 500.0
	chunksW  = 4
	chunksR  = 6
)

func runStandaloneMixed(c *corpus, seconds float64, tr *tracer) (*result, error) {
	res := newResult()
	dir, err := workDir()
	if err != nil {
		return nil, err
	}
	defer removeAll(dir)

	boot := func(i int) (*fleet, error) {
		return startFleet(fmt.Sprintf("%s/setup%d", dir, i), 1, tr)
	}
	fl, err := setUp(res, boot, setupsAtStart)
	if err != nil {
		return nil, err
	}
	defer fl.close()
	nd := fl.nodes[0]

	preloaded := preloadCycles * len(c.items)
	if err := preload(nd.url, c, preloaded, res); err != nil {
		return nil, err
	}
	// Snapshots are cut in the background; crash only once the last one
	// is on disk, so every run recovers the same snapshot and log tail.
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		pc, _ := nd.srv.PersistCounters()
		if pc.Snapshots >= uint64(preloaded/wal.DefaultSnapshotEvery) {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("preload: %d snapshots cut, want %d", pc.Snapshots, preloaded/wal.DefaultSnapshotEvery)
		}
	}
	// The preloaded data dir is copied while its node is down. A second
	// node recovers the copy, which stays as it is, at quiet points
	// spread over the run; the node under load goes on from the
	// original.
	want := nd.srv.Store().DigestAll()
	fl.crash(nd)
	frozen := &node{id: "r1", addr: "127.0.0.1:0", dataDir: filepath.Join(dir, "frozen")}
	if err := copyDir(nd.dataDir, frozen.dataDir); err != nil {
		return nil, err
	}
	if _, err := recoverTimes(fl, nd, want, 1, res); err != nil {
		return nil, err
	}
	var recs []float64
	quiet := func() error {
		if err := setUpAgain(res, boot, setupsPerQuiet); err != nil {
			return err
		}
		t, err := recoverTimes(fl, frozen, want, recoveriesPerQuiet, res)
		if err != nil {
			return err
		}
		fl.crash(frozen)
		recs = append(recs, t...)
		return nil
	}
	if err := quiet(); err != nil {
		return nil, err
	}

	before, err := fl.scrape()
	if err != nil {
		return nil, err
	}
	writer := &http.Client{Timeout: 10 * time.Second, Transport: newTransport(1)}
	reader := &http.Client{Timeout: 10 * time.Second, Transport: newTransport(1)}
	defer writer.CloseIdleConnections()
	defer reader.CloseIdleConnections()

	// Phase W.
	next := preloaded
	sent := 0
	var el time.Duration
	for k := 0; k < chunksW; k++ {
		start := time.Now()
		end := start.Add(time.Duration(shareW / chunksW * seconds * float64(time.Second)))
		for time.Now().Before(end) {
			res.attemptN(1)
			if err := postJSON(writer, nd.url, c.json[c.at(next)]); err != nil {
				res.failN(1, "upload %d: %v", next, err)
				break
			}
			next++
			sent++
		}
		drained, err := waitCounted(writer, nd.url, next, 60*time.Second)
		if err != nil {
			res.fail("drain: %v", err)
		}
		el += drained.Sub(start)
		if err := quiet(); err != nil {
			return nil, err
		}
	}
	res.e2e["rate_per_s"] = float64(sent) / el.Seconds()
	fmt.Printf("standalone-mixed: phase W %d JSON uploads 202'd and drained in %.2f s: %.1f uploads/s\n",
		sent, el.Seconds(), res.e2e["rate_per_s"])

	// Phase R.
	var lat []float64
	sentR := 0
	for k := 0; k < chunksR; k++ {
		start := time.Now()
		end := start.Add(time.Duration(shareR / chunksR * seconds * float64(time.Second)))
		var wg sync.WaitGroup
		var rlat, rlate []float64
		wg.Add(1)
		go func() {
			defer wg.Done()
			rlat, rlate = readBins(reader, nd.url, start, end, res)
		}()
		sk, wlate := writeOpenLoop(writer, nd.url, c, &next, start, end, res)
		wg.Wait()
		lat = append(lat, rlat...)
		res.genLate = append(append(res.genLate, rlate...), wlate...)
		sentR += sk
		if _, err := waitCounted(writer, nd.url, next, 60*time.Second); err != nil {
			res.fail("drain: %v", err)
		}
		if err := quiet(); err != nil {
			return nil, err
		}
	}
	res.e2e["p50_ms"] = quantile(lat, 0.50)
	res.e2e["p95_ms"] = quantile(lat, 0.95)
	res.samples = len(lat)
	res.subs = sent + sentR
	fmt.Printf("standalone-mixed: phase R %d JSON uploads at %.0f/s beside %d bins reads at %.0f/s: p50 %.2f ms, p95 %.2f ms\n",
		sentR, jsonRate, len(lat), binsRate, res.e2e["p50_ms"], res.e2e["p95_ms"])

	after, err := fl.scrape()
	if err != nil {
		return nil, err
	}
	res.scrape = scrapeDelta(before, after)
	if got := int(after["crowdd_store_records"]); got != next {
		res.fail("store holds %d records, %d were acked", got, next)
	}
	exp := c.expectedSketches(crowd.DefaultPolicy(), next)
	for _, m := range corpusModels {
		res.attemptN(1)
		got, err := fl.get(nd.url + "/v1/sketch?model=" + url.QueryEscape(m))
		if err != nil {
			res.fail("sketch %s: %v", m, err)
			continue
		}
		if !bytes.Equal(got, exp[m]) {
			res.fail("sketch %s: served %d bytes differ from the %d-byte sketch of the acked corpus", m, len(got), len(exp[m]))
		}
	}
	if err := quiet(); err != nil {
		return nil, err
	}
	printRecovery(frozen, recs)
	printSetups(res.setups)
	res.e2e["oneshot_s"] = median(recs)
	return res, nil
}

// writeOpenLoop POSTs the sequence from *next at jsonRate until end and
// returns how many uploads it sent and how late the generator was. One
// connection carries the POSTs one at a time, so lateness is taken from
// each POST's due time: a writer that cannot keep up with its schedule
// runs late, and the run is reported invalid rather than measured at a
// lower write rate than it claims.
func writeOpenLoop(client *http.Client, base string, c *corpus, next *int, start, end time.Time, res *result) (int, []float64) {
	interval := time.Second / time.Duration(jsonRate)
	var late []float64
	sent := 0
	for j := 0; ; j++ {
		due := start.Add(time.Duration(j) * interval)
		if due.After(end) {
			return sent, late
		}
		time.Sleep(time.Until(due))
		late = append(late, ms(time.Since(due)))
		res.attemptN(1)
		err := postJSON(client, base, c.json[c.at(*next)])
		if err != nil {
			res.failN(1, "upload %d: %v", *next, err)
			return sent, late
		}
		*next++
		sent++
	}
}

// preload sends uploads [0, n) of the sequence over one binary stream.
func preload(base string, c *corpus, n int, res *result) error {
	client := &http.Client{Transport: newTransport(1)}
	defer client.CloseIdleConnections()
	st, err := wire.OpenStream(client, base, nil)
	if err != nil {
		return err
	}
	defer st.Close()
	next := 0
	for next < n {
		subs, _ := frame(c, &next, min(batchB, n-next))
		a, err := st.Do(subs)
		res.attemptN(len(subs))
		if err != nil {
			return err
		}
		if !ackOK(a, a.Batch, len(subs)) {
			res.failN(len(subs), "preload batch %d: committed %d of %d, err %q", a.Batch, a.Committed, len(subs), a.Err)
		}
	}
	return nil
}

func postJSON(client *http.Client, base string, body []byte) error {
	resp, err := client.Post(base+"/v1/submissions", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("POST /v1/submissions: %s", resp.Status)
	}
	return nil
}

type binsReply struct {
	Models []struct {
		Submissions int `json:"submissions"`
	} `json:"models"`
}

func getBins(client *http.Client, base string) (binsReply, error) {
	var out binsReply
	resp, err := client.Get(base + "/v1/bins")
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("GET /v1/bins: %s", resp.Status)
	}
	err = json.NewDecoder(resp.Body).Decode(&out)
	return out, err
}

func (b binsReply) submissions() int {
	n := 0
	for _, m := range b.Models {
		n += m.Submissions
	}
	return n
}

// readBins GETs /v1/bins on a fixed schedule until end and returns each
// read's latency from its scheduled send, and how late the generator
// itself was: the delay past the later of the due time and the end of
// the previous read on the connection.
func readBins(client *http.Client, base string, start, end time.Time, res *result) (lat, late []float64) {
	interval := time.Second / time.Duration(binsRate)
	free := start
	for j := 0; ; j++ {
		due := start.Add(time.Duration(j) * interval)
		if due.After(end) {
			return lat, late
		}
		time.Sleep(time.Until(due))
		sent := time.Now()
		late = append(late, ms(sent.Sub(maxTime(due, free))))
		res.attemptN(1)
		b, err := getBins(client, base)
		free = time.Now()
		if err != nil {
			res.failN(1, "bins read: %v", err)
			continue
		}
		if len(b.Models) != len(corpusModels) {
			res.failN(1, "bins read: %d models, want %d", len(b.Models), len(corpusModels))
			continue
		}
		lat = append(lat, ms(free.Sub(due)))
	}
}

// waitCounted polls /v1/bins until it counts want submissions and
// returns when it first did.
func waitCounted(client *http.Client, base string, want int, window time.Duration) (time.Time, error) {
	deadline := time.Now().Add(window)
	for {
		b, err := getBins(client, base)
		if err != nil {
			return time.Now(), err
		}
		if n := b.submissions(); n == want {
			return time.Now(), nil
		} else if n > want || time.Now().After(deadline) {
			return time.Now(), fmt.Errorf("bins count %d submissions, want %d", n, want)
		}
		time.Sleep(time.Millisecond)
	}
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}
