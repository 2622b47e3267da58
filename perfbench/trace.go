package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Spans are recorded by the benchmark's own code at each layer boundary it
// can see from outside the program: the client request, a wrapper around
// each server's Handler(), the coordinator's shard RoundTripper and direct
// library calls. They are kept in memory and written out when the run ends.

const (
	headerReq  = "X-Bench-Req"
	headerSpan = "X-Bench-Span"

	// Request ids of spans that no client request caused: in-memory
	// handler calls and direct library calls.
	reqInMemory = -1
	reqDirect   = -2
)

type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer collects spans. A nil *tracer records nothing, so untraced runs
// share every code path with traced ones.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span; the returned closure records it.
func (t *tracer) begin(name string, parent, req int64) (id int64, end func()) {
	if t == nil {
		return 0, func() {}
	}
	id = t.ids.Add(1)
	start := t.now()
	return id, func() {
		sp := span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: t.now()}
		t.mu.Lock()
		t.spans = append(t.spans, sp)
		t.mu.Unlock()
	}
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// write dumps every span as JSON to path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

type spanKey struct{}

type spanRef struct{ id, req int64 }

func withSpan(ctx context.Context, id, req int64) context.Context {
	return context.WithValue(ctx, spanKey{}, spanRef{id, req})
}

func spanFrom(ctx context.Context) (spanRef, bool) {
	ref, ok := ctx.Value(spanKey{}).(spanRef)
	return ref, ok
}

// wrapHandler records a span around every request that carries a request id
// header, parented to the caller's span header, and hands the span to the
// handler's context so outgoing shard requests can parent to it.
func (t *tracer) wrapHandler(name string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, err := strconv.ParseInt(r.Header.Get(headerReq), 10, 64)
		if err != nil {
			h.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseInt(r.Header.Get(headerSpan), 10, 64)
		id, end := t.begin(name, parent, req)
		defer end()
		h.ServeHTTP(w, r.WithContext(withSpan(r.Context(), id, req)))
	})
}

// tracedTransport records a span per shard request whose context carries a
// span; the span ends when the coordinator closes the response body.
type tracedTransport struct {
	t    *tracer
	name string
	base http.RoundTripper
}

func (tt tracedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	ref, ok := spanFrom(r.Context())
	if tt.t == nil || !ok {
		return tt.base.RoundTrip(r)
	}
	id, end := tt.t.begin(tt.name, ref.id, ref.req)
	r = r.Clone(r.Context())
	r.Header.Set(headerReq, strconv.FormatInt(ref.req, 10))
	r.Header.Set(headerSpan, strconv.FormatInt(id, 10))
	resp, err := tt.base.RoundTrip(r)
	if err != nil {
		end()
		return nil, err
	}
	resp.Body = &endOnClose{ReadCloser: resp.Body, end: end}
	return resp, nil
}

type endOnClose struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (e *endOnClose) Close() error {
	err := e.ReadCloser.Close()
	e.once.Do(e.end)
	return err
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its child spans (overlapping children count once).
func selfTimes(spans []span) map[int64]time.Duration {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	slices.SortFunc(iv, func(a, b [2]int64) int { return int(a[0] - b[0]) })
	var total, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	total += curHi - curLo
	return time.Duration(total)
}
