package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"accubench/internal/wire"
)

// The traced run records spans from outside the program: a shim around
// each node's http.Handler and one around each node's peer-client
// transport. Spans stay in memory and are written out when the run ends.
// A span's parent travels between nodes in spanHeader, which the
// transport shim adds to every peer request; a proxy forward is a child
// of the stream batch its node was serving when it was sent.

const spanHeader = "X-Perfbench-Span"

// Span names.
const (
	spanStreamBatch = "stream_batch"    // one client frame, read to ack
	spanForwarded   = "forwarded_batch" // one forwarded frame on its primary
	spanForward     = "forward"         // proxy forward, sender's round trip
	spanShip        = "ship"            // replication POST, sender's round trip
	spanReplicate   = "replicate"       // replication POST on the replica
	spanBins        = "bins"            // GET /v1/bins
	spanPeerOther   = "peer_other"      // anti-entropy pulls
	spanOther       = "other"           // health, metrics, checks
)

// span is one timed interval; Start and End are ns since the tracer's
// epoch, and End is 0 while the span is open.
type span struct {
	ID     uint64
	Parent uint64
	Name   string
	Node   string
	Start  int64
	End    int64
	Seq    uint64 // batch sequence number of a frame span
	N      int    // uploads in a frame, records in a ship
}

type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []*span
	// open is the client-stream batch each node is serving, the parent
	// of the forwards that node sends meanwhile.
	open map[string]*span
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), open: make(map[string]*span)} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) begin(name, node string, parent uint64) *span {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &span{ID: uint64(len(t.spans) + 1), Parent: parent, Name: name, Node: node, Start: t.now()}
	t.spans = append(t.spans, s)
	return s
}

func (t *tracer) end(s *span) {
	t.mu.Lock()
	s.End = t.now()
	t.mu.Unlock()
}

// handler wraps one node's API handler.
func (t *tracer) handler(node string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		if r.URL.Path == wire.StreamPath {
			name := spanStreamBatch
			if parent != 0 {
				name = spanForwarded
			}
			fs := &frameSpans{t: t, node: node, name: name, parent: parent}
			r.Body = &frameBody{ReadCloser: r.Body, onFrame: fs.frameRead}
			h.ServeHTTP(&ackWriter{ResponseWriter: w, onAck: fs.ackWritten}, r)
			fs.ackWritten()
			return
		}
		name := spanOther
		switch {
		case r.URL.Path == "/v1/bins":
			name = spanBins
		case r.URL.Path == "/v1/replicate" && r.Method == http.MethodPost:
			name = spanReplicate
		case parent != 0:
			name = spanPeerOther
		}
		s := t.begin(name, node, parent)
		h.ServeHTTP(w, r)
		t.end(s)
	})
}

// frameSpans turns one stream request into a span per frame: from the
// moment the handler has read the frame's last byte to the moment it
// writes the frame's ack.
type frameSpans struct {
	t      *tracer
	node   string
	name   string
	parent uint64
	cur    *span
}

func (f *frameSpans) frameRead(seq uint64, count int) {
	f.ackWritten() // a frame without an ack still ends at the next one
	s := f.t.begin(f.name, f.node, f.parent)
	s.Seq, s.N = seq, count
	f.cur = s
	if f.name == spanStreamBatch {
		f.t.mu.Lock()
		f.t.open[f.node] = s
		f.t.mu.Unlock()
	}
}

func (f *frameSpans) ackWritten() {
	if f.cur == nil {
		return
	}
	f.t.end(f.cur)
	if f.name == spanStreamBatch {
		f.t.mu.Lock()
		if f.t.open[f.node] == f.cur {
			delete(f.t.open, f.node)
		}
		f.t.mu.Unlock()
	}
	f.cur = nil
}

// frameBody follows the wire framing of a request body and reports each
// frame once its last byte has been handed to the reader. It keeps the
// bytes of the frame in progress and lets wire.DecodeFrame find where a
// frame ends, so the frame layout is known to the wire package alone.
type frameBody struct {
	io.ReadCloser
	onFrame func(seq uint64, count int)
	buf     []byte
	corrupt bool // the server ends a stream at a bad frame; stop following
}

func (b *frameBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if b.corrupt || n == 0 {
		return n, err
	}
	b.buf = append(b.buf, p[:n]...)
	for {
		fr, size, derr := wire.DecodeFrame(b.buf)
		if derr == wire.ErrShortFrame {
			break
		}
		if derr != nil {
			b.corrupt, b.buf = true, nil
			break
		}
		b.onFrame(fr.Seq, fr.Count)
		b.buf = b.buf[size:]
	}
	return n, err
}

// ackWriter ends the open frame span when the handler writes an ack.
// Unwrap keeps http.ResponseController (full duplex, flush) working.
type ackWriter struct {
	http.ResponseWriter
	onAck func()
	body  bool
}

func (w *ackWriter) Write(p []byte) (int, error) {
	if w.body {
		w.onAck()
	}
	return w.ResponseWriter.Write(p)
}

func (w *ackWriter) WriteHeader(code int) {
	w.body = code == http.StatusOK
	w.ResponseWriter.WriteHeader(code)
}

func (w *ackWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// transport wraps one node's peer client.
func (t *tracer) transport(node string, base http.RoundTripper) http.RoundTripper {
	return &traceTransport{t: t, node: node, base: base}
}

type traceTransport struct {
	t    *tracer
	node string
	base http.RoundTripper
}

var deviceKey = []byte(`"device":`)

func (tt *traceTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	name, parent, n := spanPeerOther, uint64(0), 0
	switch {
	case req.URL.Path == wire.StreamPath:
		name = spanForward
		tt.t.mu.Lock()
		if s := tt.t.open[tt.node]; s != nil {
			parent = s.ID
		}
		tt.t.mu.Unlock()
	case req.URL.Path == "/v1/replicate" && req.Method == http.MethodPost:
		name = spanShip
		if req.GetBody != nil {
			if rc, err := req.GetBody(); err == nil {
				b, _ := io.ReadAll(rc)
				rc.Close()
				n = bytes.Count(b, deviceKey)
			}
		}
	}
	s := tt.t.begin(name, tt.node, parent)
	s.N = n
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatUint(s.ID, 10))
	resp, err := tt.base.RoundTrip(req)
	if err != nil {
		tt.t.end(s)
		return nil, err
	}
	resp.Body = &endOnClose{ReadCloser: resp.Body, end: func() { tt.t.end(s) }}
	return resp, nil
}

type endOnClose struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (e *endOnClose) Read(p []byte) (int, error) {
	n, err := e.ReadCloser.Read(p)
	if err == io.EOF {
		e.once.Do(e.end)
	}
	return n, err
}

func (e *endOnClose) Close() error {
	e.once.Do(e.end)
	return e.ReadCloser.Close()
}

// spanStat is the mean duration and self time of the finished spans with
// one name: self time is the span's duration minus the part of it its
// children cover.
type spanStat struct {
	count      int
	meanMS     float64
	meanSelfMS float64
	meanN      float64
}

func (t *tracer) stats() map[string]spanStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[uint64][]*span)
	for _, s := range t.spans {
		if s.Parent != 0 && s.End != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	acc := make(map[string]*spanStat)
	for _, s := range t.spans {
		if s.End == 0 {
			continue
		}
		st := acc[s.Name]
		if st == nil {
			st = &spanStat{}
			acc[s.Name] = st
		}
		dur := s.End - s.Start
		self := dur - covered(s, children[s.ID])
		st.count++
		st.meanMS += float64(dur) / 1e6
		st.meanSelfMS += float64(self) / 1e6
		st.meanN += float64(s.N)
	}
	out := make(map[string]spanStat, len(acc))
	for name, st := range acc {
		n := float64(st.count)
		st.meanMS /= n
		st.meanSelfMS /= n
		st.meanN /= n
		out[name] = *st
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p *span, kids []*span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	return total + curHi - curLo
}

// writeFile writes every span as one JSON object per line.
func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range t.spans {
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"name":%q,"node":%q,"start_ns":%d,"end_ns":%d,"seq":%d,"n":%d}`+"\n",
			s.ID, s.Parent, s.Name, s.Node, s.Start, s.End, s.Seq, s.N)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
