package rdmaagreement

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// TestEngineShardedKVCloseStopsGoroutines: closing a ShardedKV in the
// library-default deployment (four leased groups) stops every goroutine it
// started — each group's committer, lease runtime and slot-engine demux
// loops included — so the goroutine count returns to its value before
// construction within a bounded wait.
func TestEngineShardedKVCloseStopsGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	kv, err := NewShardedKV(ShardedKVOptions{
		Log: LogOptions{Cluster: Options{LeaseDuration: 250 * time.Millisecond}},
	})
	if err != nil {
		t.Fatalf("NewShardedKV: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for i := 0; i < 40; i++ {
		if _, _, err := kv.Put(ctx, fmt.Sprintf("k%d", i), "v"); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if _, _, err := kv.GetLinearizable(ctx, "k1"); err != nil {
		t.Fatalf("GetLinearizable: %v", err)
	}
	kv.Close()

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("%d goroutines after Close, want ≤ %d:\n%s", runtime.NumGoroutine(), before, buf[:n])
		}
		time.Sleep(5 * time.Millisecond)
	}
}
