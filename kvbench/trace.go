package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// layer names the boundary a span was recorded at. Every span is recorded
// from this package, around a call into the layer's public API.
type layer uint8

const (
	layerOp         layer = iota // one driver op (root)
	layerClientPut               // client.Put
	layerClientGet               // client.GetLinearizable
	layerAttempt                 // one HTTP exchange on the client's transport
	layerHandlerPut              // kvserver handling a PUT
	layerHandlerGet              // kvserver handling a GET
	layerKVPut                   // ShardedKV.Put in process
	layerKVGet                   // ShardedKV.GetLinearizable in process
	numLayers
)

var layerNames = [numLayers]string{"op", "client.put", "client.get", "http.attempt",
	"kvserver.put", "kvserver.get", "kv.put", "kv.get"}

// spanHeader carries the attempt span's id to the server, which records the
// handler span as its child.
const spanHeader = "X-Kvbench-Span"

type span struct {
	id, parent uint64
	layer      layer
	start, end int64 // ns since the tracer's epoch
}

// maxSpans bounds the spans one run keeps; later spans are counted as
// dropped.
const maxSpans = 1 << 22

// tracer keeps spans in memory; they are written out when the run ends. A
// nil *tracer records nothing, which is how untraced runs call it.
//
// The spans live in an anonymous mapping outside the Go heap: a span buffer
// on the heap would raise the collector's heap goal, run fewer GC cycles and
// make the traced run faster than the untraced one.
type tracer struct {
	epoch   time.Time
	next    atomic.Uint64
	mu      sync.Mutex
	mapped  []byte
	spans   []span // backed by mapped
	dropped int64
}

func newTracer() (*tracer, error) {
	mapped, err := syscall.Mmap(-1, 0, maxSpans*int(unsafe.Sizeof(span{})),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map span buffer: %w", err)
	}
	spans := unsafe.Slice((*span)(unsafe.Pointer(&mapped[0])), maxSpans)[:0]
	return &tracer{epoch: time.Now(), mapped: mapped, spans: spans}, nil
}

// release unmaps the span buffer; the tracer is unusable afterwards.
func (t *tracer) release() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = nil
	_ = syscall.Munmap(t.mapped) // only fails for a mapping this tracer did not make
}

type spanKey struct{}

// begin opens a span of layer l under the span ctx carries and returns a
// ctx carrying the new one.
func (t *tracer) begin(ctx context.Context, l layer) (context.Context, span) {
	if t == nil {
		return ctx, span{}
	}
	parent, _ := ctx.Value(spanKey{}).(uint64)
	sp := span{id: t.next.Add(1), parent: parent, layer: l, start: int64(time.Since(t.epoch))}
	return context.WithValue(ctx, spanKey{}, sp.id), sp
}

func (t *tracer) end(sp span) {
	if t == nil {
		return
	}
	sp.end = int64(time.Since(t.epoch))
	t.mu.Lock()
	if len(t.spans) < cap(t.spans) {
		t.spans = append(t.spans, sp)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

type tracingTransport struct {
	t    *tracer
	next http.RoundTripper
}

// roundTripper records each data-path HTTP exchange as an attempt span and
// stamps its id on the request.
func (t *tracer) roundTripper(next http.RoundTripper) http.RoundTripper {
	return tracingTransport{t: t, next: next}
}

func (tt tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !strings.HasPrefix(req.URL.Path, "/v1/kv/") {
		return tt.next.RoundTrip(req)
	}
	_, sp := tt.t.begin(req.Context(), layerAttempt)
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatUint(sp.id, 10))
	resp, err := tt.next.RoundTrip(req)
	if err == nil {
		// The attempt ends when its body is read and closed.
		resp.Body = &attemptBody{ReadCloser: resp.Body, t: tt.t, sp: sp}
		return resp, nil
	}
	tt.t.end(sp)
	return resp, err
}

type attemptBody struct {
	io.ReadCloser
	t    *tracer
	sp   span
	once sync.Once
}

func (b *attemptBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.t.end(b.sp) })
	return err
}

// handler records kvserver's handling of each data-path request as a child
// of the attempt span named in its header.
func (t *tracer) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/v1/kv/") {
			next.ServeHTTP(w, r)
			return
		}
		l := layerHandlerGet
		if r.Method == http.MethodPut {
			l = layerHandlerPut
		}
		parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		_, sp := t.begin(context.WithValue(r.Context(), spanKey{}, parent), l)
		next.ServeHTTP(w, r)
		t.end(sp)
	})
}

// layerTimes is what the spans say about each layer.
type layerTimes struct {
	count [numLayers]int64
	mean  [numLayers]time.Duration
	// wireSelf is the mean attempt time not covered by its handler span:
	// HTTP/JSON encoding, loopback TCP and scheduling on both sides.
	wireSelf time.Duration
}

func (t *tracer) summarize() layerTimes {
	t.mu.Lock()
	defer t.mu.Unlock()
	var lt layerTimes
	var sum [numLayers]time.Duration
	handled := make(map[uint64]time.Duration)
	for _, sp := range t.spans {
		d := time.Duration(sp.end - sp.start)
		lt.count[sp.layer]++
		sum[sp.layer] += d
		if sp.layer == layerHandlerPut || sp.layer == layerHandlerGet {
			handled[sp.parent] += d
		}
	}
	for l := range sum {
		if lt.count[l] > 0 {
			lt.mean[l] = sum[l] / time.Duration(lt.count[l])
		}
	}
	var self time.Duration
	for _, sp := range t.spans {
		if sp.layer == layerAttempt {
			self += time.Duration(sp.end-sp.start) - handled[sp.id]
		}
	}
	if n := lt.count[layerAttempt]; n > 0 {
		lt.wireSelf = self / time.Duration(n)
	}
	return lt
}

// write saves the spans as CSV (id,parent,layer,start_ns,end_ns).
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "id,parent,layer,start_ns,end_ns")
	for _, sp := range t.spans {
		fmt.Fprintf(bw, "%d,%d,%s,%d,%d\n", sp.id, sp.parent, layerNames[sp.layer], sp.start, sp.end)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
