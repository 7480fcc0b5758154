package server_test

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"accubench/internal/chaos"
	"accubench/internal/crowd"
	"accubench/internal/server"
	"accubench/internal/testkit"
	"accubench/internal/wire"
)

// wireAccepted builds a wire submission whose cooldown the default
// policy accepts, mirroring testkit.AcceptedPayload on the JSON side.
func wireAccepted(t *testing.T, device string, score float64) wire.Submission {
	t.Helper()
	samples := testkit.AcceptedCooldown(t, crowd.DefaultPolicy(), 25)
	ws := wire.Submission{
		Device:   device,
		Model:    "Nexus 5",
		Score:    score,
		Cooldown: make([]wire.Point, len(samples)),
	}
	for i, s := range samples {
		ws.Cooldown[i] = wire.Point{AtSeconds: s.At.Seconds(), TempC: float64(s.Reading)}
	}
	return ws
}

// startStandalone boots one in-memory server on an httptest listener.
func startStandalone(t *testing.T, mut ...func(*server.Config)) (*server.Server, string) {
	t.Helper()
	var cfg server.Config
	for _, m := range mut {
		m(&cfg)
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start(context.Background())
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return srv, ts.URL
}

// TestStreamIngestStandalone drives several batches down one persistent
// stream — accepts, a reject, an invalid entry — and asserts the acks,
// the pipeline counters (conservation laws included), the store, and
// the wire metric family.
func TestStreamIngestStandalone(t *testing.T) {
	srv, base := startStandalone(t)
	client := &http.Client{}
	st, err := wire.OpenStream(client, base, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Batch 1: three clean accepts.
	batch1 := []wire.Submission{
		wireAccepted(t, "ws-0", 1000),
		wireAccepted(t, "ws-1", 1040),
		wireAccepted(t, "ws-2", 1080),
	}
	ack, err := st.Do(batch1)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Committed != 3 || ack.Dropped != 0 || ack.Err != "" {
		t.Fatalf("batch 1 ack = %+v, want 3 committed", ack)
	}
	if ack.CommitSeq == 0 {
		t.Error("batch 1 ack carries no commit seq")
	}

	// Batch 2: an accept plus an invalid entry — the invalid one drops,
	// the rest commit, and the stream survives.
	batch2 := []wire.Submission{
		wireAccepted(t, "ws-3", 1120),
		{Device: "", Model: "Nexus 5", Score: 1},
	}
	ack2, err := st.Do(batch2)
	if err != nil {
		t.Fatal(err)
	}
	if ack2.Committed != 1 || ack2.Dropped != 1 {
		t.Fatalf("batch 2 ack = %+v, want 1 committed + 1 dropped", ack2)
	}
	if ack2.CommitSeq <= ack.CommitSeq {
		t.Errorf("commit seq did not advance: %d then %d", ack.CommitSeq, ack2.CommitSeq)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	c := srv.Counters()
	if c.Received != 5 || c.Stored != 4 || c.DecodeErrors != 1 {
		t.Errorf("counters = %+v, want received 5, stored 4, decode errors 1", c)
	}
	testkit.CheckCounterFlow(t, c)
	if srv.Store().Len() != 4 || srv.Store().AcceptedLen() != 4 {
		t.Errorf("store holds %d/%d, want 4/4", srv.Store().Len(), srv.Store().AcceptedLen())
	}

	m := scrapeMetrics(t, client, base)
	for name, want := range map[string]uint64{
		"crowdd_wire_streams_total":     1,
		"crowdd_wire_streams_active":    0,
		"crowdd_wire_frames_total":      2,
		"crowdd_wire_batches_total":     2,
		"crowdd_wire_submissions_total": 5,
		"crowdd_wire_acks_total":        2,
		"crowdd_wire_bad_frames_total":  0,
	} {
		if m[name] != want {
			t.Errorf("%s = %d, want %d", name, m[name], want)
		}
	}
	if m["crowdd_wire_batch_size_count"] != 2 || m["crowdd_wire_ack_seconds_count"] != 2 {
		t.Errorf("wire histograms observed %d/%d batches, want 2/2",
			m["crowdd_wire_batch_size_count"], m["crowdd_wire_ack_seconds_count"])
	}
}

// TestStreamCorruptFrameTerminates locks the trust boundary: a frame
// failing CRC terminates the stream (no ack, counted bad), and the
// already-acked batches stay committed.
func TestStreamCorruptFrameTerminates(t *testing.T) {
	srv, base := startStandalone(t)
	client := &http.Client{}
	st, err := wire.OpenStream(client, base, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Do([]wire.Submission{wireAccepted(t, "corrupt-0", 1000)}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Send(nil); err == nil {
		t.Fatal("empty batch encoded cleanly, want error")
	}
	st.Close()

	// Hand-corrupt a frame: flip one payload byte after framing.
	frame, err := wire.AppendBatchFrame(nil, 2, []wire.Submission{wireAccepted(t, "corrupt-1", 1100)})
	if err != nil {
		t.Fatal(err)
	}
	frame[len(frame)-1] ^= 0x40
	// Push the corrupt bytes through a fresh raw request: the server
	// must refuse the frame and close without acking it.
	req, err := http.NewRequest(http.MethodPost, base+wire.StreamPath, bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", wire.ContentType)
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body := drainBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream rejected outright: %d (%s)", resp.StatusCode, body)
	}
	if len(body) != 0 {
		t.Errorf("corrupt frame was acked: %d bytes of response", len(body))
	}

	m := scrapeMetrics(t, client, base)
	if m["crowdd_wire_bad_frames_total"] != 1 {
		t.Errorf("bad frames = %d, want 1", m["crowdd_wire_bad_frames_total"])
	}
	if srv.Store().Len() != 1 {
		t.Errorf("store holds %d records, want only the acked one", srv.Store().Len())
	}
}

// TestUnsupportedMediaType415 locks the content-type gates on both
// ingest routes, each counted under http_unsupported_media_total.
func TestUnsupportedMediaType415(t *testing.T) {
	_, base := startStandalone(t)
	client := &http.Client{}

	resp, err := client.Post(base+"/v1/submissions", "application/octet-stream", bytes.NewReader([]byte{1, 2, 3}))
	if err != nil {
		t.Fatal(err)
	}
	if body := drainBody(t, resp); resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("binary body on the JSON route = %d (%s), want 415", resp.StatusCode, body)
	}

	resp, err = client.Post(base+wire.StreamPath, "application/json", bytes.NewReader([]byte(`{}`)))
	if err != nil {
		t.Fatal(err)
	}
	if body := drainBody(t, resp); resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("JSON body on the stream route = %d (%s), want 415", resp.StatusCode, body)
	}

	// JSON with an explicit charset parameter must still pass.
	req, err := http.NewRequest(http.MethodPost, base+"/v1/submissions",
		bytes.NewReader(testkit.AcceptedPayload(t, crowd.DefaultPolicy(), "ct-ok", 1000, 25)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json; charset=utf-8")
	resp, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if body := drainBody(t, resp); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("JSON with charset = %d (%s), want 202", resp.StatusCode, body)
	}

	if m := scrapeMetrics(t, client, base); m["crowdd_http_unsupported_media_total"] != 2 {
		t.Errorf("http_unsupported_media_total = %d, want 2", m["crowdd_http_unsupported_media_total"])
	}
}

// TestStreamJSONCompatBitIdentical is the compat-shim contract: the
// same submissions uploaded as JSON POSTs to one server and as wire
// batches to another must produce bit-identical bins and equal store
// digests — the transports are interchangeable encodings of one
// pipeline.
func TestStreamJSONCompatBitIdentical(t *testing.T) {
	jsonSrv, jsonBase := startStandalone(t)
	wireSrv, wireBase := startStandalone(t)
	client := &http.Client{}
	policy := crowd.DefaultPolicy()

	const n = 12
	var wireBatch []wire.Submission
	for i := 0; i < n; i++ {
		device := fmt.Sprintf("compat-%02d", i)
		score := 1000 + float64(i%8)*40
		raw := testkit.AcceptedPayload(t, policy, device, score, 25)
		resp := postSubmission(t, client, jsonBase, raw)
		if body := drainBody(t, resp); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("JSON POST %s = %d (%s)", device, resp.StatusCode, body)
		}
		wireBatch = append(wireBatch, wireAccepted(t, device, score))
	}
	st, err := wire.OpenStream(client, wireBase, nil)
	if err != nil {
		t.Fatal(err)
	}
	ack, err := st.Do(wireBatch)
	if err != nil {
		t.Fatal(err)
	}
	if int(ack.Committed) != n {
		t.Fatalf("wire ack committed %d of %d", ack.Committed, n)
	}
	st.Close()

	jsonBins := waitForBins(t, client, jsonBase, "Nexus 5", n)
	wireBins := waitForBins(t, client, wireBase, "Nexus 5", n)
	if !reflect.DeepEqual(jsonBins, wireBins) {
		t.Errorf("bins diverge across transports:\njson %+v\nwire %+v", jsonBins, wireBins)
	}
	jd, wd := jsonSrv.Store().DigestAll(), wireSrv.Store().DigestAll()
	if !reflect.DeepEqual(jd, wd) {
		t.Errorf("store digests diverge: json %+v, wire %+v", jd, wd)
	}
}

// streamBatch ships one batch over a fresh stream, rotating across
// nodes until some node commits the whole batch — the retry loop
// crowdload's binary workers run, dup-safe because the cluster stamps
// each resubmission fresh and keeps the newest per device.
func streamBatch(t *testing.T, client *http.Client, nodes []*clusterNode, batch []wire.Submission) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for attempt := 0; ; attempt++ {
		node := nodes[attempt%len(nodes)]
		st, err := wire.OpenStream(client, node.url, nil)
		if err == nil {
			ack, derr := st.Do(batch)
			st.Close()
			if derr == nil && ack.Err == "" && int(ack.Committed) == len(batch) {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("batch of %d not committed after %d attempts", len(batch), attempt+1)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestChaosStreamIngest runs the binary transport through the chaos
// harness: batches stream in while the degraded scenario mangles peer
// traffic, and while a partition cuts one node off. Afterward the PR-6
// acceptance invariants must hold over the streamed records — zero
// acked loss, converged digests, bit-identical bins — plus the
// scripted-event determinism pin.
func TestChaosStreamIngest(t *testing.T) {
	for _, tc := range []struct {
		name string
		seed int64
	}{
		{"degraded", 13},
		{"partition", 17},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc, ok := chaos.Lookup(tc.name)
			if !ok {
				t.Fatalf("unknown scenario %q", tc.name)
			}
			plan := chaos.NewPlan(tc.seed)
			nodes := startCluster(t, 3, func(i int, cfg *server.Config) {
				chaosMut(t, plan)(i, cfg)
				// Short ack window so an unreplicated ack error surfaces
				// (and the client fails over) instead of stalling the
				// stream for the full default timeout.
				cfg.Cluster.AckTimeout = 200 * time.Millisecond
			})
			ids := []string{"n1", "n2", "n3"}
			sc.Apply(plan, ids)

			client := &http.Client{Timeout: 5 * time.Second}
			var devices []string
			for b := 0; b < 3; b++ {
				batch := make([]wire.Submission, 4)
				for i := range batch {
					dev := fmt.Sprintf("wire-%s-%d", tc.name, b*len(batch)+i)
					batch[i] = wireAccepted(t, dev, 1000+float64((b*len(batch)+i)%8)*40)
					devices = append(devices, dev)
				}
				streamBatch(t, client, nodes, batch)
			}

			if tc.name == "partition" {
				// The scenario scheduled its own heal; convergence waits
				// for that timer to fire before checking the invariants.
				assertClusterConverged(t, client, nodes, devices)
				sc.Heal(plan)
				assertScriptedEvents(t, plan, func(p *chaos.Plan) {
					sc.Apply(p, ids)
					p.HealPartitions() // the live run's timer fired exactly once
					sc.Heal(p)
				})
				return
			}
			sc.Heal(plan)
			assertClusterConverged(t, client, nodes, devices)
			assertScriptedEvents(t, plan, func(p *chaos.Plan) {
				sc.Apply(p, ids)
				sc.Heal(p)
			})
		})
	}
}

// lockedBuffer is a trace sink the test can read while the server
// still writes to it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestStreamBatchTraceSpans pins tracing on the binary stream: every
// batch emits one decode → filter → wal_append → store chain under its
// own trace ID, and a batch of one carries the device, the model and,
// from the commit on, the sequence number, like a JSON upload's chain.
func TestStreamBatchTraceSpans(t *testing.T) {
	var buf lockedBuffer
	_, base := startStandalone(t, func(c *server.Config) {
		c.DataDir = t.TempDir()
		c.TraceWriter = &buf
	})
	st, err := wire.OpenStream(&http.Client{}, base, nil)
	if err != nil {
		t.Fatal(err)
	}
	batches := [][]wire.Submission{
		{wireAccepted(t, "tr-0", 1000), wireAccepted(t, "tr-1", 1040), wireAccepted(t, "tr-2", 1080)},
		{wireAccepted(t, "tr-solo", 1120)},
	}
	for i, b := range batches {
		ack, err := st.Do(b)
		if err != nil {
			t.Fatal(err)
		}
		if int(ack.Committed) != len(b) || ack.Err != "" {
			t.Fatalf("batch %d ack = %+v, want %d committed", i, ack, len(b))
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	chain := []string{"decode", "filter", "wal_append", "store"}
	spans := parseSpans(t, buf.String())
	if len(spans) != len(batches)*len(chain) {
		t.Fatalf("%d batches emitted %d spans, want %d:\n%s", len(batches), len(spans), len(batches)*len(chain), buf.String())
	}
	group, solo := spans[:len(chain)], spans[len(chain):]
	for _, batch := range [][]traceSpan{group, solo} {
		for i, s := range batch {
			if s.Span != chain[i] {
				t.Errorf("span %d = %q, want %q", i, s.Span, chain[i])
			}
			if s.Trace == "" || s.Trace != batch[0].Trace {
				t.Errorf("span %q trace ID %q breaks the chain (first span has %q)", s.Span, s.Trace, batch[0].Trace)
			}
			if s.Err != "" {
				t.Errorf("span %q carries error %q on the happy path", s.Span, s.Err)
			}
		}
	}
	if group[0].Trace == solo[0].Trace {
		t.Errorf("two batches share trace ID %q", group[0].Trace)
	}
	for _, s := range group {
		if s.Device != "" || s.Seq != 0 {
			t.Errorf("span %q of a 3-submission batch names device %q, seq %d", s.Span, s.Device, s.Seq)
		}
	}
	for _, s := range solo {
		if s.Device != "tr-solo" || s.Model != "Nexus 5" {
			t.Errorf("span %q of a batch of one carries device %q, model %q", s.Span, s.Device, s.Model)
		}
		if (s.Span == "wal_append" || s.Span == "store") && s.Seq == 0 {
			t.Errorf("span %q has no sequence number after the commit point", s.Span)
		}
	}
}
