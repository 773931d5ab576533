package netsim

import (
	"context"
	"fmt"
	"testing"
	"time"
)

func TestRouterDispatchByPrefix(t *testing.T) {
	n := newTestNetwork(t, Options{})
	a := n.Register(1)
	b := n.Register(2)
	router := NewRouter(b)
	t.Cleanup(router.Close)

	paxosCh := router.Subscribe("paxos/", 0)
	cheapCh := router.Subscribe("cheap/", 0)

	if err := a.Send(2, "paxos/prepare", []byte("p"), 0); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if err := a.Send(2, "cheap/panic", []byte("c"), 0); err != nil {
		t.Fatalf("Send: %v", err)
	}

	select {
	case msg := <-paxosCh:
		if msg.Kind != "paxos/prepare" {
			t.Fatalf("paxos channel got %q", msg.Kind)
		}
	case <-time.After(time.Second):
		t.Fatalf("paxos message not routed")
	}
	select {
	case msg := <-cheapCh:
		if msg.Kind != "cheap/panic" {
			t.Fatalf("cheap channel got %q", msg.Kind)
		}
	case <-time.After(time.Second):
		t.Fatalf("cheap message not routed")
	}
}

func TestRouterLongestPrefixWins(t *testing.T) {
	n := newTestNetwork(t, Options{})
	a := n.Register(1)
	b := n.Register(2)
	router := NewRouter(b)
	t.Cleanup(router.Close)

	generic := router.Subscribe("proto/", 0)
	specific := router.Subscribe("proto/special/", 0)

	if err := a.Send(2, "proto/special/x", nil, 0); err != nil {
		t.Fatalf("Send: %v", err)
	}
	select {
	case <-specific:
	case <-generic:
		t.Fatalf("message routed to generic subscription instead of the most specific one")
	case <-time.After(time.Second):
		t.Fatalf("message not routed at all")
	}
}

func TestRouterDefaultSubscription(t *testing.T) {
	n := newTestNetwork(t, Options{})
	a := n.Register(1)
	b := n.Register(2)
	router := NewRouter(b)
	t.Cleanup(router.Close)

	router.Subscribe("known/", 0)
	def := router.SubscribeDefault(0)

	if err := a.Send(2, "unknown/kind", nil, 0); err != nil {
		t.Fatalf("Send: %v", err)
	}
	select {
	case msg := <-def:
		if msg.Kind != "unknown/kind" {
			t.Fatalf("default channel got %q", msg.Kind)
		}
	case <-time.After(time.Second):
		t.Fatalf("unmatched message not delivered to default subscription")
	}
}

func TestRouterUnmatchedWithoutDefaultIsDropped(t *testing.T) {
	n := newTestNetwork(t, Options{})
	a := n.Register(1)
	b := n.Register(2)
	router := NewRouter(b)
	t.Cleanup(router.Close)

	known := router.Subscribe("known/", 0)
	if err := a.Send(2, "other/kind", nil, 0); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if err := a.Send(2, "known/kind", nil, 0); err != nil {
		t.Fatalf("Send: %v", err)
	}
	select {
	case msg := <-known:
		if msg.Kind != "known/kind" {
			t.Fatalf("known channel got %q", msg.Kind)
		}
	case <-time.After(time.Second):
		t.Fatalf("known message lost")
	}
}

func TestRouterCloseIdempotent(t *testing.T) {
	n := newTestNetwork(t, Options{})
	b := n.Register(2)
	router := NewRouter(b)
	router.Close()
	router.Close()
}

func TestRouterEndpointAccessor(t *testing.T) {
	n := newTestNetwork(t, Options{})
	b := n.Register(2)
	router := NewRouter(b)
	t.Cleanup(router.Close)
	if router.Endpoint() != b {
		t.Fatalf("Endpoint() should return the attached endpoint")
	}
	// Router must not interfere with sending through the endpoint.
	n.Register(3)
	if err := router.Endpoint().Send(3, "x", nil, 0); err != nil {
		t.Fatalf("Send through routed endpoint: %v", err)
	}
	// Receive on the other endpoint still works (no router attached there).
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := n.Register(3).Receive(ctx); err != nil {
		t.Fatalf("Receive: %v", err)
	}
}

// TestRouterUnsubscribeConcurrentDispatch adds subscriptions while traffic
// flows. It guards the dispatch path against reading subscription state
// outside the lock, where a concurrent Subscribe may move the slice (a
// misdelivery and a race-detector hit before dispatch resolved the target
// under the mutex).
func TestRouterUnsubscribeConcurrentDispatch(t *testing.T) {
	n := newTestNetwork(t, Options{})
	sender := n.Register(1)
	router := NewRouter(n.Register(2))
	t.Cleanup(router.Close)

	keep := router.Subscribe("keep/", 0)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2000; i++ {
			if err := sender.Send(2, "keep/msg", nil, 0); err != nil {
				t.Errorf("Send: %v", err)
				return
			}
		}
	}()

	// Grow the subscription list under the sender's feet.
	for i := 0; i < 500; i++ {
		router.Subscribe(fmt.Sprintf("slot/%d/", i), 1)
	}

	received := 0
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for received < 2000 {
		select {
		case msg := <-keep:
			if msg.Kind != "keep/msg" {
				t.Fatalf("misdelivered message of kind %q", msg.Kind)
			}
			received++
		case <-ctx.Done():
			t.Fatalf("received %d of 2000 messages: %v", received, ctx.Err())
		}
	}
	<-done
}
