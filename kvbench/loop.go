package main

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// opSample is one successful op: when it completed, relative to the loop's
// start, and how long it took.
type opSample struct {
	end, lat time.Duration
}

// loopResult is what one closed loop did: an exact sample per successful
// op, by kind, and the ops attempted and failed.
type loopResult struct {
	ops        [2][]opSample // indexed by opKind
	attempted  int64
	failed     int64
	mismatched int64
	firstErr   error
	start      time.Time
	elapsed    time.Duration
}

func (r loopResult) completed() int64 { return r.attempted - r.failed }

func (r loopResult) rate() float64 { return float64(r.completed()) / r.elapsed.Seconds() }

// latencies are the latencies of the successful ops of one kind.
func (r loopResult) latencies(k opKind) []time.Duration {
	out := make([]time.Duration, len(r.ops[k]))
	for i, s := range r.ops[k] {
		out[i] = s.lat
	}
	return out
}

// sliceWidth is the length of the time slices a loop is cut into: long
// enough for a few hundred ops in each, short enough that the host's steal
// varies between them.
const sliceWidth = 250 * time.Millisecond

// slices cuts the loop into slices of about sliceWidth (at least one), each
// holding the successful ops that completed in it.
func (r loopResult) slices() []loopResult {
	n := max(1, int(r.elapsed/sliceWidth))
	out := make([]loopResult, n)
	width := r.elapsed / time.Duration(n)
	for i := range out {
		out[i].start = r.start.Add(time.Duration(i) * width)
		out[i].elapsed = width
	}
	for k := range r.ops {
		for _, s := range r.ops[k] {
			i := min(int(s.end/width), n-1)
			out[i].ops[k] = append(out[i].ops[k], s)
			out[i].attempted++
		}
	}
	return out
}

// closedLoop is the one op loop every phase runs: callers goroutines each
// issue op back to back, the next only after the previous returns, until
// budget ops have been claimed and deadline has passed (a zero budget or
// deadline is met at once). op gets
// the caller and the op's claim number, 1-based and unique across callers.
// Each op is a root span of tr (nil tr traces nothing).
func closedLoop(ctx context.Context, callers int, deadline time.Time, budget int64, tr *tracer,
	op func(ctx context.Context, caller int, n int64) (opKind, error)) loopResult {
	var claimed atomic.Int64
	per := make([]loopResult, callers)
	start := time.Now()
	var wg sync.WaitGroup
	for c := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := &per[c]
			for {
				n := claimed.Add(1)
				if n > budget && !time.Now().Before(deadline) {
					return
				}
				octx, sp := tr.begin(ctx, layerOp)
				t0 := time.Now()
				kind, err := op(octx, c, n)
				t1 := time.Now()
				tr.end(sp)
				r.attempted++
				if err != nil {
					r.failed++
					if errors.Is(err, errMismatch) {
						r.mismatched++
					}
					if r.firstErr == nil {
						r.firstErr = err
					}
					continue
				}
				r.ops[kind] = append(r.ops[kind], opSample{end: t1.Sub(start), lat: t1.Sub(t0)})
			}
		}()
	}
	wg.Wait()
	total := loopResult{start: start, elapsed: time.Since(start)}
	for _, r := range per {
		for k := range r.ops {
			total.ops[k] = append(total.ops[k], r.ops[k]...)
		}
		total.attempted += r.attempted
		total.failed += r.failed
		total.mismatched += r.mismatched
		if total.firstErr == nil {
			total.firstErr = r.firstErr
		}
	}
	return total
}
