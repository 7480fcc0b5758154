package ingest

import (
	"context"
	"fmt"
	"time"

	"accubench/internal/obs"
	"accubench/internal/store"
)

// BatchResult reports what one SubmitBatch call did with its
// submissions. Records + Invalid + Failed always accounts for every
// submission passed in.
type BatchResult struct {
	// Records are the committed records in submission order, sequence
	// numbers assigned. Both verdicts appear here — a rejected
	// submission is still stored (and durable), like the JSON path.
	Records []store.Record
	// Invalid counts submissions dropped at validation — malformed
	// payloads a retry can never fix.
	Invalid int
	// Failed counts submissions dropped because the batch's commit
	// failed — retryable.
	Failed int

	// commitErr is the commit error behind Failed.
	commitErr error
}

// SubmitBatch runs a whole batch of already-decoded submissions through
// validation, evaluation and one CommitBatch call inline on the caller's
// goroutine — the binary streaming ingest path. Unlike Submit, nothing
// is enqueued: the stream handler is its own backpressure (it reads the
// next frame only after this returns), so the batch skips the channel
// hops and, on a durable node, costs one WAL group append and one store
// lock pass per shard.
//
// The call is first admitted through the inline bound (see
// Config.QueueDepth); one that gets no slot before ctx expires returns
// ctx's error with nothing counted, like a Submit that finds the queue
// full. Once admitted, the per-stage counters advance exactly as if each
// submission had flowed through the staged pipeline, so the
// conservation laws (received = decode_errors + aborted + stored +
// wal_failed, stored = accepted + rejected = wal_appended) hold across
// both paths. A failed commit is reported in Failed, not as an error.
func (p *Pipeline) SubmitBatch(ctx context.Context, subs []Submission) (BatchResult, error) {
	return p.submitInline(ctx, len(subs), func(i int) (Submission, error) {
		return subs[i], subs[i].Validate()
	})
}

// SubmitJSON decodes one raw JSON upload and commits it inline as a
// batch of one — cluster JSON's front door, whose 202 waits for the
// commit. It returns the committed record, local sequence number
// assigned, or the error that dropped it: ErrBadPayload for a malformed
// upload, ctx's error when the upload was not admitted or its deadline
// passed before the commit, ErrClosed after shutdown, or the commit's
// own error.
func (p *Pipeline) SubmitJSON(ctx context.Context, raw []byte) (store.Record, error) {
	var derr error
	res, err := p.submitInline(ctx, 1, func(int) (Submission, error) {
		sub, err := Decode(raw)
		derr = err
		return sub, err
	})
	switch {
	case err != nil:
		return store.Record{}, err
	case derr != nil:
		return store.Record{}, fmt.Errorf("%w: %v", ErrBadPayload, derr)
	case res.Failed > 0:
		return store.Record{}, res.commitErr
	}
	return res.Records[0], nil
}

// submitInline is the inline path behind SubmitBatch and SubmitJSON:
// admission, then decode (entry i comes from decode(i)), evaluate and
// one commit for the batch, each step timed and traced once per batch
// under one trace ID.
func (p *Pipeline) submitInline(ctx context.Context, n int, decode func(i int) (Submission, error)) (BatchResult, error) {
	var res BatchResult
	if n == 0 {
		return res, nil
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return res, ErrClosed
	}
	p.submitters.Add(1)
	p.mu.Unlock()
	defer p.submitters.Done()

	select {
	case p.inline <- struct{}{}:
	case <-p.stop:
		return res, ErrClosed
	case <-ctx.Done():
		return res, ctx.Err()
	}
	defer func() { <-p.inline }()
	p.ctr.received.Add(uint64(n))
	trace := p.tracer.NewTrace()

	// Decode stage: malformed entries drop here, counted as decode
	// errors. The span carries the first entry's error.
	t0 := time.Now()
	subs := make([]Submission, 0, n)
	var derr error
	for i := 0; i < n; i++ {
		sub, err := decode(i)
		if err != nil {
			p.ctr.decodeErrors.Inc()
			res.Invalid++
			if derr == nil {
				derr = err
			}
			continue
		}
		p.ctr.decoded.Inc()
		subs = append(subs, sub)
	}
	dur := time.Since(t0)
	p.decodeDur.Observe(dur.Seconds())
	span := obs.Span{Trace: trace, Name: "decode", Err: derr}
	if n == 1 && len(subs) == 1 {
		span.Device, span.Model = subs[0].Device, subs[0].Model
	}
	p.tracer.Emit(span, t0, dur)
	if len(subs) == 0 {
		return res, nil
	}

	// Evaluate stage: ambient estimation + strict filters per entry.
	t0 = time.Now()
	recs := make([]store.Record, len(subs))
	ptrs := make([]*store.Record, len(subs))
	for i := range subs {
		recs[i] = p.evaluate(subs[i])
		ptrs[i] = &recs[i]
	}
	dur = time.Since(t0)
	p.filterDur.Observe(dur.Seconds())
	p.tracer.Emit(batchSpan(trace, "filter", ptrs, nil), t0, dur)

	// A hard shutdown or expired deadline before the commit drops the
	// batch's survivors, counted — never silently.
	if p.aborting() {
		p.ctr.aborted.Add(uint64(len(recs)))
		res.Failed = len(recs)
		return res, ErrClosed
	}
	if err := ctx.Err(); err != nil {
		p.ctr.aborted.Add(uint64(len(recs)))
		res.Failed = len(recs)
		return res, err
	}

	if err := p.commit(trace, ptrs); err != nil {
		res.Failed = len(recs)
		res.commitErr = err
		return res, nil
	}
	res.Records = recs
	return res, nil
}
