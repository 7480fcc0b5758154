// Package ingest is the crowd backend's submission path: it turns raw
// uploads into stored, filtered records, and every record it keeps goes
// through one commit seam, Committer.CommitBatch.
//
// Each submission passes three steps:
//
//	decode   — parse and validate the JSON wire format
//	evaluate — estimate the ambient from the cooldown trace (Aitken
//	           extrapolation via crowd.Policy) and apply the strict filters
//	commit   — hand the verdicts to the Committer (the WAL's append +
//	           fsync, then the store insert, on a durable node), which
//	           lands them in the sharded store and its bin sketches
//
// Two execution models run those steps:
//
//   - The staged pipeline behind Submit (standalone JSON): each step has
//     its own worker pool, connected by bounded channels, so slow
//     evaluation of one upload never blocks decoding of the next. Submit
//     returns once the bytes are enqueued and blocks (up to its context
//     deadline) while the pipeline is saturated.
//   - The inline path behind SubmitBatch (the binary stream) and
//     SubmitJSON (cluster JSON): the caller's goroutine runs a whole
//     batch through the three steps and commits it with one CommitBatch
//     call, after admission through a bound shared by all inline callers.
//
// Both keep the same counters, so the conservation laws hold across
// them. Shutdown is graceful by default: Close stops intake, lets every
// enqueued or admitted submission finish, then returns. Cancelling the
// Start context instead aborts promptly, dropping queued items (counted,
// never silent).
package ingest

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"time"

	"accubench/internal/accubench"
	"accubench/internal/crowd"
	"accubench/internal/obs"
	"accubench/internal/store"
	"accubench/internal/units"
)

// ErrClosed is returned by Submit after Close (or Start-context
// cancellation) has stopped intake.
var ErrClosed = errors.New("ingest: pipeline closed")

// ErrBadPayload wraps decode failures surfaced by SubmitJSON, so callers
// can tell a malformed upload (client error) from a commit failure.
var ErrBadPayload = errors.New("ingest: bad payload")

// Config parameterizes a Pipeline.
type Config struct {
	// Workers is the staged pipeline's per-stage worker count
	// (DefaultWorkers if <= 0).
	Workers int
	// QueueDepth is the capacity of each inter-stage channel
	// (DefaultQueueDepth if <= 0). The staged pipeline holds at most
	// 3*QueueDepth + 3*Workers submissions in flight; the inline path
	// admits at most that many concurrent calls.
	QueueDepth int
	// Policy is the per-submission acceptance policy.
	Policy crowd.Policy
	// Committer receives every verdict the pipeline keeps: a record is
	// stored only through it, never directly. Required.
	Committer Committer
	// Obs is the metrics registry the pipeline's counters and per-stage
	// latency histograms register in. Nil gets a private registry, so
	// the pipeline is always instrumented; pass the service's registry
	// to expose the metrics on its scrape surface.
	Obs *obs.Registry
	// Tracer, when non-nil and enabled, emits one span per step
	// (decode, filter, wal_append, store) per staged submission or per
	// inline batch, correlated by a trace ID — the reconstructible
	// timeline behind crowdd's -trace flag.
	Tracer *obs.Tracer
}

// Committer is the pipeline's one commit seam. CommitBatch must make
// every record of the batch visible in the store — durable first, when
// it is a write-ahead log — and set each record's Seq before returning
// nil. On error no record of the batch may have become visible.
// internal/wal.Persister is the durable implementation, MemCommitter the
// in-memory one.
type Committer interface {
	CommitBatch(recs []*store.Record) error
}

// MemCommitter is the in-memory Committer: it assigns sequence numbers
// from its own counter and inserts each batch through
// store.PutSeqBatch. A node without a data directory commits through it.
type MemCommitter struct {
	st  *store.Store
	seq atomic.Uint64
}

// NewMemCommitter returns a committer storing into st.
func NewMemCommitter(st *store.Store) *MemCommitter { return &MemCommitter{st: st} }

// CommitBatch assigns the batch consecutive sequence numbers and stores
// it.
func (c *MemCommitter) CommitBatch(recs []*store.Record) error {
	n := uint64(len(recs))
	first := c.seq.Add(n) - n + 1
	vals := make([]store.Record, len(recs))
	for i, r := range recs {
		r.Seq = first + uint64(i)
		vals[i] = *r
	}
	return c.st.PutSeqBatch(vals)
}

// DefaultWorkers is the per-stage worker count for Config.Workers <= 0.
const DefaultWorkers = 4

// DefaultQueueDepth is the channel capacity for Config.QueueDepth <= 0.
const DefaultQueueDepth = 256

// Counters is a snapshot of the pipeline's per-stage counters. The flow
// invariant after a graceful Close is
//
//	Received = DecodeErrors + Aborted + Stored + WALFailed
//	Stored   = Accepted + Rejected = WALAppended
type Counters struct {
	// Received counts uploads admitted by Submit or the inline path.
	Received uint64 `json:"received"`
	// Decoded counts uploads that parsed and validated.
	Decoded uint64 `json:"decoded"`
	// DecodeErrors counts malformed uploads (dropped at decode).
	DecodeErrors uint64 `json:"decode_errors"`
	// Evaluated counts submissions whose cooldown trace yielded an
	// ambient estimate.
	Evaluated uint64 `json:"evaluated"`
	// EstimateFailures counts submissions whose trace was unusable; they
	// are stored as rejected, not dropped.
	EstimateFailures uint64 `json:"estimate_failures"`
	// Accepted counts submissions that survived the strict filters.
	Accepted uint64 `json:"accepted"`
	// Rejected counts submissions filtered out (estimate outside the
	// window, or unusable trace).
	Rejected uint64 `json:"rejected"`
	// Stored counts records written to the store.
	Stored uint64 `json:"stored"`
	// Aborted counts admitted submissions dropped before their commit by
	// a hard (context) shutdown or, on the inline path, by an expired
	// deadline.
	Aborted uint64 `json:"aborted"`
	// WALAppended counts records committed through the Committer — the
	// WAL's durable append on a node with a data directory.
	WALAppended uint64 `json:"wal_appended"`
	// WALFailed counts records dropped because their commit failed —
	// they were never stored, so acceptance never outran durability.
	WALFailed uint64 `json:"wal_failed"`
}

// counters holds the pipeline's per-stage counters as registry metrics:
// the same atomics back both the Counters() snapshot API and the
// service's /metrics exposition, so the two views can never diverge.
type counters struct {
	received, decoded, decodeErrors     *obs.Counter
	evaluated, estimateFailures         *obs.Counter
	accepted, rejected, stored, aborted *obs.Counter
	walAppended, walFailed              *obs.Counter
}

// newCounters registers the pipeline's counters, preserving the metric
// names the service has always exposed.
func newCounters(reg *obs.Registry) counters {
	c := func(name, help string) *obs.Counter { return reg.Counter(name, help) }
	return counters{
		received:         c("received_total", "uploads admitted for ingest"),
		decoded:          c("decoded_total", "uploads that parsed and validated"),
		decodeErrors:     c("decode_errors_total", "malformed uploads dropped at decode"),
		evaluated:        c("evaluated_total", "submissions whose trace yielded an ambient estimate"),
		estimateFailures: c("estimate_failures_total", "submissions with an unusable cooldown trace"),
		accepted:         c("accepted_total", "submissions that survived the strict filters"),
		rejected:         c("rejected_total", "submissions filtered out"),
		stored:           c("stored_total", "records written to the store"),
		aborted:          c("aborted_total", "admitted submissions dropped before their commit by a hard shutdown or an expired deadline"),
		walAppended:      c("wal_appended_total", "records committed through the commit seam (the WAL, when configured)"),
		walFailed:        c("wal_failed_total", "records dropped because their commit failed"),
	}
}

func (c *counters) snapshot() Counters {
	return Counters{
		Received:         c.received.Value(),
		Decoded:          c.decoded.Value(),
		DecodeErrors:     c.decodeErrors.Value(),
		Evaluated:        c.evaluated.Value(),
		EstimateFailures: c.estimateFailures.Value(),
		Accepted:         c.accepted.Value(),
		Rejected:         c.rejected.Value(),
		Stored:           c.stored.Value(),
		Aborted:          c.aborted.Value(),
		WALAppended:      c.walAppended.Value(),
		WALFailed:        c.walFailed.Value(),
	}
}

// rawUpload, decodedSub and verdict are the inter-stage envelopes: the
// payload plus the submission's trace ID (empty when tracing is off).
type rawUpload struct {
	raw   []byte
	trace string
}

type decodedSub struct {
	sub   Submission
	trace string
}

type verdict struct {
	rec   store.Record
	trace string
}

// Pipeline is the ingest path: the staged worker pool plus the inline
// batch path. Create with New, launch with Start, feed with Submit,
// SubmitBatch or SubmitJSON, and stop with Close.
type Pipeline struct {
	cfg Config

	raw       chan rawUpload
	decoded   chan decodedSub
	evaluated chan verdict
	// inline holds one token per admitted inline call (SubmitBatch,
	// SubmitJSON); its capacity is the inline path's concurrency bound.
	inline chan struct{}

	ctr    counters
	tracer *obs.Tracer
	// Per-stage latency histograms (ingest_stage_seconds), resolved once
	// so workers skip the vec lookup.
	decodeDur, filterDur, walDur, storeDur *obs.Histogram

	// Intake gate: Submit registers in submitters under mu; Close flips
	// closed, waits for registered submitters to finish, then closes raw.
	mu         sync.Mutex
	closed     bool
	submitters sync.WaitGroup

	stop      chan struct{} // closed on hard abort (Start ctx cancelled)
	stopOnce  sync.Once
	drained   chan struct{} // closed when the store stage finishes
	closeOnce sync.Once
	started   atomic.Bool
}

// New creates a pipeline. Start must be called before Submit.
func New(cfg Config) (*Pipeline, error) {
	if cfg.Committer == nil {
		return nil, fmt.Errorf("ingest: config needs a committer")
	}
	if err := cfg.Policy.Validate(); err != nil {
		return nil, err
	}
	if cfg.Workers <= 0 {
		cfg.Workers = DefaultWorkers
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.NewRegistry("")
	}
	if cfg.Tracer == nil {
		cfg.Tracer = obs.NewTracer(nil) // disabled
	}
	stageDur := cfg.Obs.HistogramVec("ingest_stage_seconds",
		"per-stage submission latency", "stage", obs.DurationBuckets)
	return &Pipeline{
		cfg:       cfg,
		raw:       make(chan rawUpload, cfg.QueueDepth),
		decoded:   make(chan decodedSub, cfg.QueueDepth),
		evaluated: make(chan verdict, cfg.QueueDepth),
		inline:    make(chan struct{}, 3*(cfg.QueueDepth+cfg.Workers)),
		ctr:       newCounters(cfg.Obs),
		tracer:    cfg.Tracer,
		decodeDur: stageDur.With("decode"),
		filterDur: stageDur.With("filter"),
		walDur:    stageDur.With("wal_append"),
		storeDur:  stageDur.With("store"),
		stop:      make(chan struct{}),
		drained:   make(chan struct{}),
	}, nil
}

// Start launches the stage workers. Cancelling ctx hard-aborts the
// pipeline: intake closes, queued items are dropped (counted in Aborted)
// and workers exit. For a graceful drain use Close instead.
func (p *Pipeline) Start(ctx context.Context) {
	if !p.started.CompareAndSwap(false, true) {
		return
	}
	var decodeWG, evalWG, storeWG sync.WaitGroup
	for i := 0; i < p.cfg.Workers; i++ {
		decodeWG.Add(1)
		go func() { defer decodeWG.Done(); p.decodeWorker() }()
		evalWG.Add(1)
		go func() { defer evalWG.Done(); p.evaluateWorker() }()
		storeWG.Add(1)
		go func() { defer storeWG.Done(); p.storeWorker() }()
	}
	// Stage cascade: when a stage's intake closes and its workers finish,
	// close the next stage's intake.
	go func() { decodeWG.Wait(); close(p.decoded) }()
	go func() { evalWG.Wait(); close(p.evaluated) }()
	go func() { storeWG.Wait(); close(p.drained) }()
	// Hard abort on context cancellation.
	go func() {
		select {
		case <-ctx.Done():
			p.abort()
		case <-p.drained:
		}
	}()
}

// abort stops intake and signals workers to drop queued items.
func (p *Pipeline) abort() {
	p.stopOnce.Do(func() { close(p.stop) })
	p.closeIntake(false)
}

// closeIntake stops Submit and closes the raw channel once no Submit is
// mid-send. When wait is true it blocks until in-flight Submits return.
func (p *Pipeline) closeIntake(wait bool) {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	if wait {
		p.submitters.Wait()
		p.closeOnce.Do(func() { close(p.raw) })
		return
	}
	// Hard path: submitters unblock via p.stop; close raw after they
	// return, off the caller's goroutine.
	go func() {
		p.submitters.Wait()
		p.closeOnce.Do(func() { close(p.raw) })
	}()
}

// Submit feeds one raw upload into the pipeline. It blocks while the
// intake queue is full — backpressure — until ctx expires or the pipeline
// shuts down. The bytes are owned by the pipeline afterwards.
func (p *Pipeline) Submit(ctx context.Context, raw []byte) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrClosed
	}
	p.submitters.Add(1)
	p.mu.Unlock()
	defer p.submitters.Done()

	select {
	case p.raw <- rawUpload{raw: raw, trace: p.tracer.NewTrace()}:
		p.ctr.received.Inc()
		return nil
	case <-p.stop:
		return ErrClosed
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close gracefully shuts the pipeline down: intake stops (every Submit*
// returns ErrClosed), every enqueued submission drains through all
// stages and every admitted inline call finishes, then workers exit.
// Safe to call more than once.
func (p *Pipeline) Close() {
	p.closeIntake(true)
	if p.started.Load() {
		<-p.drained
	}
}

// Counters returns a snapshot of the per-stage counters.
func (p *Pipeline) Counters() Counters { return p.ctr.snapshot() }

// aborting reports whether a hard shutdown is in progress.
func (p *Pipeline) aborting() bool {
	select {
	case <-p.stop:
		return true
	default:
		return false
	}
}

func (p *Pipeline) decodeWorker() {
	for item := range p.raw {
		if p.aborting() {
			p.ctr.aborted.Inc()
			continue
		}
		t0 := time.Now()
		sub, err := Decode(item.raw)
		dur := time.Since(t0)
		p.decodeDur.Observe(dur.Seconds())
		if err != nil {
			p.ctr.decodeErrors.Inc()
			p.tracer.Emit(obs.Span{Trace: item.trace, Name: "decode", Err: err}, t0, dur)
			continue
		}
		p.ctr.decoded.Inc()
		p.tracer.Emit(obs.Span{Trace: item.trace, Name: "decode", Device: sub.Device, Model: sub.Model}, t0, dur)
		select {
		case p.decoded <- decodedSub{sub: sub, trace: item.trace}:
		case <-p.stop:
			p.ctr.aborted.Inc()
		}
	}
}

func (p *Pipeline) evaluateWorker() {
	for item := range p.decoded {
		if p.aborting() {
			p.ctr.aborted.Inc()
			continue
		}
		t0 := time.Now()
		rec := p.evaluate(item.sub)
		dur := time.Since(t0)
		p.filterDur.Observe(dur.Seconds())
		p.tracer.Emit(obs.Span{Trace: item.trace, Name: "filter", Device: rec.Device, Model: rec.Model}, t0, dur)
		select {
		case p.evaluated <- verdict{rec: rec, trace: item.trace}:
		case <-p.stop:
			p.ctr.aborted.Inc()
		}
	}
}

// evaluate runs the backend's per-submission pass: ambient estimation
// followed by the strict filters.
func (p *Pipeline) evaluate(sub Submission) store.Record {
	rec := store.Record{
		Device: sub.Device,
		Model:  sub.Model,
		Score:  sub.Score,
	}
	est, accepted, err := p.cfg.Policy.Evaluate(sub.Readings())
	if err != nil {
		p.ctr.estimateFailures.Inc()
		rec.RejectReason = err.Error()
		return rec
	}
	p.ctr.evaluated.Inc()
	rec.EstimatedAmbient = est
	if !accepted {
		rec.RejectReason = fmt.Sprintf("estimated ambient %v outside [%v, %v]",
			est, p.cfg.Policy.AcceptLo, p.cfg.Policy.AcceptHi)
		return rec
	}
	rec.Accepted = true
	return rec
}

func (p *Pipeline) storeWorker() {
	for item := range p.evaluated {
		if p.aborting() {
			p.ctr.aborted.Inc()
			continue
		}
		rec := item.rec
		// The upload was acknowledged on enqueue, so a failed commit has
		// no caller to report to; commit counts it under wal_failed.
		p.commit(item.trace, []*store.Record{&rec})
	}
}

// commit is the pipeline's one commit point, shared by the staged store
// stage and the inline path: the batch goes through the Committer —
// fsynced into the log before it becomes visible, on a durable node —
// and only then counts as stored. A failed commit drops the whole batch,
// counted under wal_failed and never stored: acceptance must not outrun
// durability. The wal_append span covers the commit itself (durable
// append plus the store insert it gates); the store span that follows
// is the verdict bookkeeping.
func (p *Pipeline) commit(trace string, recs []*store.Record) error {
	n := uint64(len(recs))
	t0 := time.Now()
	err := p.cfg.Committer.CommitBatch(recs)
	dur := time.Since(t0)
	p.walDur.Observe(dur.Seconds())
	p.tracer.Emit(batchSpan(trace, "wal_append", recs, err), t0, dur)
	if err != nil {
		p.ctr.walFailed.Add(n)
		return err
	}
	p.ctr.walAppended.Add(n)
	t0 = time.Now()
	for _, r := range recs {
		if r.Accepted {
			p.ctr.accepted.Inc()
		} else {
			p.ctr.rejected.Inc()
		}
	}
	p.ctr.stored.Add(n)
	dur = time.Since(t0)
	p.storeDur.Observe(dur.Seconds())
	p.tracer.Emit(batchSpan(trace, "store", recs, nil), t0, dur)
	return nil
}

// batchSpan is one step's span over a batch. A batch of one carries its
// record's device, model and (once committed) sequence number, exactly
// like a staged submission's span.
func batchSpan(trace, name string, recs []*store.Record, err error) obs.Span {
	s := obs.Span{Trace: trace, Name: name, Err: err}
	if len(recs) == 1 {
		s.Device, s.Model, s.Seq = recs[0].Device, recs[0].Model, recs[0].Seq
	}
	return s
}

// Submission is the crowd app's upload payload — the wire format of
// POST /v1/submissions.
type Submission struct {
	// Device is the unit's anonymous identifier.
	Device string `json:"device"`
	// Model is the handset model, e.g. "Nexus 5".
	Model string `json:"model"`
	// Score is the ACCUBENCH performance score.
	Score float64 `json:"score"`
	// Cooldown is the cooldown sensor trace, in poll order.
	Cooldown []CooldownPoint `json:"cooldown"`
}

// CooldownPoint is one cooldown sensor poll on the wire.
type CooldownPoint struct {
	// AtSeconds is the time since the cooldown began, in seconds.
	AtSeconds float64 `json:"at_s"`
	// TempC is the sensor reading in °C.
	TempC float64 `json:"temp_c"`
}

// Readings converts the wire trace to the estimator's sample type.
func (s Submission) Readings() []accubench.CooldownSample {
	out := make([]accubench.CooldownSample, len(s.Cooldown))
	for i, p := range s.Cooldown {
		out[i] = accubench.CooldownSample{
			At:      time.Duration(p.AtSeconds * float64(time.Second)),
			Reading: units.Celsius(p.TempC),
		}
	}
	return out
}

// Validate checks the wire payload.
func (s Submission) Validate() error {
	if s.Device == "" {
		return fmt.Errorf("ingest: submission without device")
	}
	if s.Model == "" {
		return fmt.Errorf("ingest: submission without model")
	}
	if math.IsNaN(s.Score) || math.IsInf(s.Score, 0) || s.Score <= 0 {
		return fmt.Errorf("ingest: implausible score %v", s.Score)
	}
	if len(s.Cooldown) == 0 {
		return fmt.Errorf("ingest: submission without cooldown trace")
	}
	for i, p := range s.Cooldown {
		if math.IsNaN(p.TempC) || math.IsInf(p.TempC, 0) || p.TempC < -50 || p.TempC > 150 {
			return fmt.Errorf("ingest: implausible cooldown reading %v at poll %d", p.TempC, i)
		}
		if i > 0 && p.AtSeconds <= s.Cooldown[i-1].AtSeconds {
			return fmt.Errorf("ingest: cooldown polls not increasing at %d", i)
		}
	}
	return nil
}

// Decode parses and validates one raw upload.
func Decode(raw []byte) (Submission, error) {
	var sub Submission
	if err := json.Unmarshal(raw, &sub); err != nil {
		return Submission{}, fmt.Errorf("ingest: %w", err)
	}
	if err := sub.Validate(); err != nil {
		return Submission{}, err
	}
	return sub, nil
}

// Marshal renders a benchmark result as the wire payload the app uploads.
func Marshal(device, model string, score float64, readings []accubench.CooldownSample) ([]byte, error) {
	sub := Submission{
		Device:   device,
		Model:    model,
		Score:    score,
		Cooldown: make([]CooldownPoint, len(readings)),
	}
	for i, r := range readings {
		sub.Cooldown[i] = CooldownPoint{
			AtSeconds: r.At.Seconds(),
			TempC:     float64(r.Reading),
		}
	}
	if err := sub.Validate(); err != nil {
		return nil, err
	}
	return json.Marshal(sub)
}
