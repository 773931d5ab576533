package netsim

import (
	"context"
	"strings"
	"sync"
)

// Router demultiplexes the messages arriving at an Endpoint to subscribers by
// message-kind prefix. Protocol stacks (for example Fast & Robust, which runs
// Cheap Quorum, Preferential Paxos and a failure detector over the same
// process endpoint) use a Router so that each layer only sees its own
// messages.
//
// A Router owns the endpoint's receive loop: once a Router is attached,
// callers must not call Receive on the endpoint directly.
type Router struct {
	ep *Endpoint

	mu       sync.Mutex
	subs     []subscription
	fallback chan Message

	cancel context.CancelFunc
	wg     sync.WaitGroup
	closed bool
}

type subscription struct {
	prefix string
	ch     chan Message
}

// NewRouter attaches a router to the endpoint and starts its dispatch loop.
func NewRouter(ep *Endpoint) *Router {
	ctx, cancel := context.WithCancel(context.Background())
	r := &Router{ep: ep, cancel: cancel}
	r.wg.Add(1)
	go r.loop(ctx)
	return r
}

// Endpoint returns the underlying endpoint (for sending).
func (r *Router) Endpoint() *Endpoint { return r.ep }

// Subscribe returns a channel that receives every message whose Kind starts
// with prefix. Longer prefixes win when several subscriptions match. The
// buffer parameter sizes the channel; zero means a reasonable default.
func (r *Router) Subscribe(prefix string, buffer int) <-chan Message {
	if buffer <= 0 {
		buffer = 1024
	}
	ch := make(chan Message, buffer)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.subs = append(r.subs, subscription{prefix: prefix, ch: ch})
	return ch
}

// SubscribeDefault returns a channel receiving messages that match no other
// subscription.
func (r *Router) SubscribeDefault(buffer int) <-chan Message {
	if buffer <= 0 {
		buffer = 1024
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.fallback == nil {
		r.fallback = make(chan Message, buffer)
	}
	return r.fallback
}

// Close stops the dispatch loop. Subscriber channels are not closed (late
// messages are simply no longer delivered), so receivers should select on
// their own contexts.
func (r *Router) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	r.mu.Unlock()
	r.cancel()
	r.wg.Wait()
}

func (r *Router) loop(ctx context.Context) {
	defer r.wg.Done()
	for {
		msg, err := r.ep.Receive(ctx)
		if err != nil {
			return
		}
		r.dispatch(ctx, msg)
	}
}

func (r *Router) dispatch(ctx context.Context, msg Message) {
	// Resolve the target channel while holding the lock: Subscribe appends
	// to r.subs concurrently, which may move the slice, so neither the slice
	// nor a pointer into it is read after unlocking.
	r.mu.Lock()
	var target chan Message
	bestLen := -1
	for i := range r.subs {
		s := &r.subs[i]
		if strings.HasPrefix(msg.Kind, s.prefix) && len(s.prefix) > bestLen {
			target = s.ch
			bestLen = len(s.prefix)
		}
	}
	if target == nil {
		target = r.fallback
	}
	r.mu.Unlock()

	if target == nil {
		return
	}
	select {
	case target <- msg:
	case <-ctx.Done():
	}
}
