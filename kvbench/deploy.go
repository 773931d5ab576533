package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"rdmaagreement"
	"rdmaagreement/client"
	"rdmaagreement/internal/wire"
	"rdmaagreement/kvserver"
)

const (
	// leaseDuration is cmd/kvserver's default.
	leaseDuration = 250 * time.Millisecond
	// clientConns caps the client's TCP connections.
	clientConns = 2
)

// deployment is the system under test: the library-default ShardedKV, a
// kvserver in front of it on loopback, and a client capped at clientConns
// connections. With a tracer, the client transport and the server handler
// are wrapped to record spans.
type deployment struct {
	kv        *rdmaagreement.ShardedKV
	srv       *kvserver.Server
	hs        *http.Server // serves the traced handler; nil when untraced
	served    chan error
	transport *http.Transport
	cl        *client.Client
	tr        *tracer
}

// deploy builds the deployment and returns once every shard's lease is held
// and the client has the ring.
func deploy(ctx context.Context, w workload, tr *tracer) (d *deployment, err error) {
	kv, err := rdmaagreement.NewShardedKV(rdmaagreement.ShardedKVOptions{
		Log: rdmaagreement.LogOptions{
			Cluster: rdmaagreement.Options{MemoryLatency: w.latency, LeaseDuration: leaseDuration},
		},
	})
	if err != nil {
		return nil, fmt.Errorf("build store: %w", err)
	}
	d = &deployment{kv: kv, tr: tr}
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	if err := waitLeases(ctx, kv); err != nil {
		return nil, err
	}
	d.srv, err = kvserver.New(kvserver.Options{Store: kv})
	if err != nil {
		return nil, fmt.Errorf("build server: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	d.served = make(chan error, 1)
	if tr == nil {
		go func() { d.served <- d.srv.Serve(ln) }()
	} else {
		d.hs = &http.Server{Handler: tr.handler(d.srv.Handler())}
		go func() { d.served <- d.hs.Serve(ln) }()
	}
	d.transport = &http.Transport{MaxConnsPerHost: clientConns, MaxIdleConnsPerHost: clientConns}
	var rt http.RoundTripper = d.transport
	if tr != nil {
		rt = tr.roundTripper(rt)
	}
	d.cl, err = client.New(client.Options{
		Endpoints:  []string{"http://" + ln.Addr().String()},
		HTTPClient: &http.Client{Transport: rt},
	})
	if err != nil {
		return nil, fmt.Errorf("build client: %w", err)
	}
	if err := d.cl.RefreshRing(ctx); err != nil {
		return nil, fmt.Errorf("fetch ring: %w", err)
	}
	return d, nil
}

// waitLeases returns once every shard's leader holds an unexpired lease.
func waitLeases(ctx context.Context, kv *rdmaagreement.ShardedKV) error {
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	for {
		held := true
		for _, name := range kv.Shards() {
			if !kv.ShardLog(name).Cluster().Lease().Valid(time.Now()) {
				held = false
			}
		}
		if held {
			return nil
		}
		select {
		case <-ctx.Done():
			return errors.New("shard leases not held within 10s")
		case <-time.After(time.Millisecond):
		}
	}
}

// close stops the client, the server and the store, in that order, and
// waits for the server's accept loop to return.
func (d *deployment) close() {
	if d.cl != nil {
		d.cl.Close()
	}
	if d.served != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if d.hs != nil {
			_ = d.hs.Shutdown(ctx) // best effort: the store closes next either way
		} else {
			_ = d.srv.Shutdown(ctx)
		}
		cancel()
		<-d.served
	}
	if d.transport != nil {
		d.transport.CloseIdleConnections()
	}
	d.kv.Close()
}

// storeKey is the key kvserver stores a client's key under, so in-process
// and served ops address the same entries.
func storeKey(key string) string { return wire.TenantKey("", key) }

func (d *deployment) kvPut(ctx context.Context, key, value string) error {
	ctx, sp := d.tr.begin(ctx, layerKVPut)
	_, _, err := d.kv.Put(ctx, storeKey(key), value)
	d.tr.end(sp)
	return err
}

func (d *deployment) kvGet(ctx context.Context, key string) (string, bool, error) {
	ctx, sp := d.tr.begin(ctx, layerKVGet)
	v, found, err := d.kv.GetLinearizable(ctx, storeKey(key))
	d.tr.end(sp)
	return v, found, err
}

func (d *deployment) clientPut(ctx context.Context, key, value string) error {
	ctx, sp := d.tr.begin(ctx, layerClientPut)
	_, _, err := d.cl.Put(ctx, key, value)
	d.tr.end(sp)
	return err
}

func (d *deployment) clientGet(ctx context.Context, key string) (string, bool, error) {
	ctx, sp := d.tr.begin(ctx, layerClientGet)
	v, found, err := d.cl.GetLinearizable(ctx, key)
	d.tr.end(sp)
	return v, found, err
}
