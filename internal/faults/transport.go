package faults

import (
	"io"
	"sync"
	"time"

	"jitomev/internal/jito"
	"jitomev/internal/obs"
	"jitomev/internal/solana"
)

// Inner is the transport surface the wrapper faults — structurally
// identical to collector.Transport (this package cannot import the
// collector, which imports it for the taxonomy; Go's structural
// interfaces make the two interchangeable).
type Inner interface {
	RecentBundles(limit int) ([]jito.BundleRecord, error)
	RecentBundlesBefore(beforeSeq uint64, limit int) ([]jito.BundleRecord, error)
	TxDetails(ids []solana.Signature) ([]jito.TxDetail, error)
}

// throttleRetryAfter is the base server-suggested delay attached to
// throttle faults (scaled 1–3× per fault).
const throttleRetryAfter = 20 * time.Millisecond

// Transport wraps an Inner transport and injects the failure taxonomy on
// the Injector's deterministic schedule. It satisfies collector.Transport.
//
// Fault semantics per class:
//
//	transport, timeout      — the call fails without reaching Inner
//	throttle, server        — the call fails as HTTP 429/5xx would surface
//	truncate, corrupt       — Inner is consulted but the "body" fails to
//	                          decode, exactly as a damaged payload surfaces
//	                          through a JSON decoder
//	partial (details only)  — a deterministic subset of details is dropped
//	duplicate, reorder      — page entries are repeated / permuted
type Transport struct {
	Inner    Inner
	Injector *Injector

	// traceMu guards the bound span context (see BindTrace).
	traceMu  sync.Mutex
	traceCtx obs.SpanCtx
}

// WrapTransport builds a fault-injecting transport over inner.
func WrapTransport(inner Inner, inj *Injector) *Transport {
	return &Transport{Inner: inner, Injector: inj}
}

// BindTrace accepts the collector's trace binding and forwards it to
// the inner transport when that one is itself a carrier. Faults this
// wrapper injects while a sampled context is bound are attributed to
// the trace (a fault:<class> child span, force-kept), so the chaos
// wrapper is transparent to latency attribution.
func (t *Transport) BindTrace(ctx obs.SpanCtx) {
	t.traceMu.Lock()
	t.traceCtx = ctx
	t.traceMu.Unlock()
	if tb, ok := t.Inner.(interface{ BindTrace(obs.SpanCtx) }); ok {
		tb.BindTrace(ctx)
	}
}

// attribute pins an injected fault to the bound trace, when sampled.
func (t *Transport) attribute(class Class) {
	if class == ClassNone {
		return
	}
	t.traceMu.Lock()
	ctx := t.traceCtx
	t.traceMu.Unlock()
	if !ctx.Sampled() {
		return
	}
	sp := ctx.StartChild("fault:" + class.String())
	sp.FlagKeep("fault")
	sp.MarkError()
	sp.End()
	t.Injector.Attribute(class)
}

// errorFor builds the typed error for an error-shaped fault class.
func (t *Transport) errorFor(class Class, idx uint64) error {
	switch class {
	case ClassTransport:
		return &Error{Class: ClassTransport}
	case ClassThrottle:
		scale := 1 + time.Duration(hash(t.Injector.Seed(), idx, 0x7e7a)%3)
		return &Error{Class: ClassThrottle, Status: 429, RetryAfter: scale * throttleRetryAfter}
	case ClassServer:
		statuses := [...]int{500, 502, 503}
		return &Error{Class: ClassServer, Status: statuses[hash(t.Injector.Seed(), idx, 0x5e4e)%3]}
	case ClassTimeout:
		return &Error{Class: ClassTimeout}
	case ClassTruncate:
		return &Error{Class: ClassTruncate, Err: io.ErrUnexpectedEOF}
	case ClassCorrupt:
		return &Error{Class: ClassCorrupt}
	}
	return nil
}

// page applies a page-level fault to a successful inner response.
func (t *Transport) page(recs []jito.BundleRecord, class Class, idx uint64) []jito.BundleRecord {
	switch class {
	case ClassDuplicate:
		return duplicateEntries(recs, t.Injector.Seed(), idx)
	case ClassReorder:
		return reorderEntries(recs, t.Injector.Seed(), idx)
	}
	return recs
}

// RecentBundles implements the transport contract with page faults.
func (t *Transport) RecentBundles(limit int) ([]jito.BundleRecord, error) {
	class, idx := t.Injector.Next(PageMask)
	t.attribute(class)
	if err := t.errorFor(class, idx); err != nil {
		return nil, err
	}
	recs, err := t.Inner.RecentBundles(limit)
	if err != nil {
		return nil, err
	}
	return t.page(recs, class, idx), nil
}

// RecentBundlesBefore implements the transport contract with page faults.
func (t *Transport) RecentBundlesBefore(beforeSeq uint64, limit int) ([]jito.BundleRecord, error) {
	class, idx := t.Injector.Next(PageMask)
	t.attribute(class)
	if err := t.errorFor(class, idx); err != nil {
		return nil, err
	}
	recs, err := t.Inner.RecentBundlesBefore(beforeSeq, limit)
	if err != nil {
		return nil, err
	}
	return t.page(recs, class, idx), nil
}

// TxDetails implements the transport contract with detail faults.
func (t *Transport) TxDetails(ids []solana.Signature) ([]jito.TxDetail, error) {
	class, idx := t.Injector.Next(DetailMask)
	t.attribute(class)
	if err := t.errorFor(class, idx); err != nil {
		return nil, err
	}
	details, err := t.Inner.TxDetails(ids)
	if err != nil {
		return nil, err
	}
	if class == ClassPartial {
		details = dropDetails(details, t.Injector.Seed(), idx)
	}
	return details, nil
}

// duplicateEntries repeats ~1/8 of the page's entries (at least one),
// deterministically in (seed, idx). The dedup window must absorb them.
func duplicateEntries(recs []jito.BundleRecord, seed int64, idx uint64) []jito.BundleRecord {
	if len(recs) == 0 {
		return recs
	}
	out := make([]jito.BundleRecord, 0, len(recs)+len(recs)/8+1)
	dups := 0
	for i, r := range recs {
		out = append(out, r)
		if hash(seed, idx, 0xd0b1e+uint64(i))%8 == 0 {
			out = append(out, r)
			dups++
		}
	}
	if dups == 0 {
		out = append(out, recs[len(recs)-1])
	}
	return out
}

// reorderEntries permutes the page with a deterministic Fisher–Yates
// shuffle keyed on (seed, idx).
func reorderEntries(recs []jito.BundleRecord, seed int64, idx uint64) []jito.BundleRecord {
	out := append([]jito.BundleRecord(nil), recs...)
	for i := len(out) - 1; i > 0; i-- {
		j := int(hash(seed, idx, 0x4e04de4+uint64(i)) % uint64(i+1))
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// dropDetails removes ~1/4 of the response's details (at least one when
// the response is non-empty), deterministically in (seed, idx) — a bulk
// endpoint silently omitting ids it failed to look up.
func dropDetails(details []jito.TxDetail, seed int64, idx uint64) []jito.TxDetail {
	if len(details) == 0 {
		return details
	}
	out := details[:0]
	dropped := 0
	for i := range details {
		if hash(seed, idx, 0x9a47a1+uint64(i))%4 == 0 {
			dropped++
			continue
		}
		out = append(out, details[i])
	}
	if dropped == 0 {
		out = out[:len(out)-1]
	}
	return out
}
