package rdmaagreement

import (
	"bytes"
	"context"
	"fmt"
	"maps"
	"reflect"
	"testing"

	"rdmaagreement/internal/shard"
)

// kvWith builds a kvMachine holding n keys.
func kvWith(n int) *kvMachine {
	m := newKVMachine().(*kvMachine)
	for i := 0; i < n; i++ {
		m.state[fmt.Sprintf("key-%06d", i)] = fmt.Sprintf("value-%d", i)
	}
	return m
}

func everyKey(string) bool { return true }

// TestKVSnapshotRoundTrip pins the kvMachine payload: Restore(Snapshot())
// rebuilds the state, MigrateIn(MigrateOut()) moves exactly the moved keys,
// and MigrateOut's bytes do not depend on map iteration order.
func TestKVSnapshotRoundTrip(t *testing.T) {
	src := kvWith(500)
	src.state[""] = ""
	src.state["bin\x00\xff"] = string(bytes.Repeat([]byte{0xff}, 300))
	snap, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(snap, kvPayloadMagic) {
		t.Fatalf("snapshot lacks the payload magic: %q", snap[:8])
	}
	dst := newKVMachine().(*kvMachine)
	if err := dst.Restore(snap, 0); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if !maps.Equal(dst.state, src.state) {
		t.Fatal("Restore(Snapshot()) changed the state")
	}

	moved := func(k string) bool { return len(k)%2 == 0 }
	a, b := kvWith(500), kvWith(500)
	outA, nA, err := a.MigrateOut(moved)
	if err != nil {
		t.Fatal(err)
	}
	outB, _, _ := b.MigrateOut(moved)
	if !bytes.Equal(outA, outB) {
		t.Fatal("MigrateOut of equal states produced different bytes")
	}
	in := newKVMachine().(*kvMachine)
	nIn, err := in.MigrateIn(outA, everyKey)
	if err != nil || nIn != nA {
		t.Fatalf("MigrateIn = (%d, %v), want (%d, nil)", nIn, err, nA)
	}
	for k := range in.state {
		if !moved(k) {
			t.Fatalf("unmoved key %q was exported", k)
		}
		if _, left := a.state[k]; left {
			t.Fatalf("exported key %q stayed in the source", k)
		}
	}
	if len(in.state)+len(a.state) != 500 {
		t.Fatalf("keys lost in the handoff: %d + %d != 500", len(in.state), len(a.state))
	}
}

// FuzzKVSnapshot feeds arbitrary bytes to kvMachine's Restore and MigrateIn.
// Neither may panic. Whatever one rejects leaves the machine untouched;
// whatever one accepts must round-trip through Snapshot/Restore and
// MigrateOut/MigrateIn to the same state; and both accept exactly the same
// payloads, since a migration export is just a partial snapshot.
func FuzzKVSnapshot(f *testing.F) {
	snap, _ := kvWith(3).Snapshot()
	f.Add(snap)
	out, _, _ := kvWith(40).MigrateOut(func(k string) bool { return k[len(k)-1] == '7' })
	f.Add(out)
	empty, _ := kvWith(0).Snapshot()
	f.Add(empty)
	f.Add([]byte{})
	f.Add([]byte("rkvs\x00\x01"))                 // magic, no count
	f.Add([]byte("rkvs\x00\x01\xff\xff\xff\x7f")) // hostile count, no pairs
	f.Add([]byte("rkvs\x00\x01\x02\x01a\x01b\x01c"))
	f.Add([]byte("rkvs\x00\x01\x01\x01a\x01bz")) // trailing byte
	f.Add([]byte(`{"a":"b"}`))

	f.Fuzz(func(t *testing.T, raw []byte) {
		pre := kvWith(2)
		restored := kvWith(2)
		restoreErr := restored.Restore(raw, 0)
		if restoreErr != nil && !maps.Equal(restored.state, pre.state) {
			t.Fatal("rejected Restore changed the state")
		}
		merged := kvWith(2)
		_, mergeErr := merged.MigrateIn(raw, everyKey)
		if mergeErr != nil && !maps.Equal(merged.state, pre.state) {
			t.Fatal("rejected MigrateIn merged part of the payload")
		}
		if len(raw) > 0 && (restoreErr == nil) != (mergeErr == nil) {
			t.Fatalf("Restore and MigrateIn disagree: %v vs %v", restoreErr, mergeErr)
		}
		if restoreErr != nil {
			return
		}

		snap, err := restored.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		again := newKVMachine().(*kvMachine)
		if err := again.Restore(snap, 0); err != nil {
			t.Fatalf("re-Restore of a Snapshot: %v", err)
		}
		if !maps.Equal(again.state, restored.state) {
			t.Fatal("Snapshot/Restore round trip changed the state")
		}

		// Everything restored, moved out and merged into an empty machine:
		// the same state again.
		export, n, err := restored.MigrateOut(everyKey)
		if err != nil || n != len(again.state) || len(restored.state) != 0 {
			t.Fatalf("MigrateOut = (%d, %v), left %d keys; want %d moved", n, err, len(restored.state), len(again.state))
		}
		in := newKVMachine().(*kvMachine)
		if _, err := in.MigrateIn(export, everyKey); err != nil {
			t.Fatalf("MigrateIn of a MigrateOut export: %v", err)
		}
		if !maps.Equal(in.state, again.state) {
			t.Fatal("MigrateOut/MigrateIn round trip changed the state")
		}
	})
}

// groupWithGate builds a groupSM whose gate carries every field a snapshot
// writes: a committed ring, an import epoch and an export outbox.
func groupWithGate(t testing.TB) *groupSM {
	g := newGroupSM("s0", kvWith(20))
	ring := shard.New([]string{"s0", "s1", "s2"}, 16)
	apply := func(index uint64, m *migrateCmd) {
		t.Helper()
		if _, err := g.Apply(LogEntry{Index: index, Cmd: encodeMigrate(m)}); err != nil {
			t.Fatalf("apply migrate: %v", err)
		}
	}
	apply(1, &migrateCmd{Out: true, Epoch: 3, Shards: ring.Shards(), VNodes: ring.VirtualNodes(), Group: "s0"})
	imported, _, _ := kvWith(5).MigrateOut(everyKey)
	apply(2, &migrateCmd{Epoch: 4, Shards: ring.Shards(), VNodes: ring.VirtualNodes(), Group: "s0", Source: "s9", Data: imported})
	if g.ring == nil || g.outEpoch != 3 || len(g.outData) == 0 || g.inEpochs["s9"] != 4 {
		t.Fatalf("gate not set up: ring=%v out=%d/%d in=%v", g.ring != nil, g.outEpoch, len(g.outData), g.inEpochs)
	}
	return g
}

// sameGroupState compares everything a groupSM snapshot carries.
func sameGroupState(a, b *groupSM) bool {
	if (a.ring == nil) != (b.ring == nil) {
		return false
	}
	if a.ring != nil && (!reflect.DeepEqual(a.ring.Shards(), b.ring.Shards()) || a.ring.VirtualNodes() != b.ring.VirtualNodes()) {
		return false
	}
	return maps.Equal(a.inEpochs, b.inEpochs) && a.outEpoch == b.outEpoch && a.outKeys == b.outKeys &&
		bytes.Equal(a.outData, b.outData) && maps.Equal(a.inner.(*kvMachine).state, b.inner.(*kvMachine).state)
}

// TestGroupSnapshotRoundTrip pins the groupSM snapshot: gate and inner state
// survive Restore(Snapshot()), and the restored outbox does not alias the
// shared snapshot buffer.
func TestGroupSnapshotRoundTrip(t *testing.T) {
	g := groupWithGate(t)
	snap, err := g.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	r := newGroupSM("s0", newKVMachine())
	if err := r.Restore(snap, 2); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if !sameGroupState(g, r) {
		t.Fatal("Restore(Snapshot()) changed the gate or inner state")
	}
	for i := range snap {
		snap[i] = 0
	}
	if !bytes.Equal(r.outData, g.outData) {
		t.Fatal("restored outbox aliases the snapshot buffer")
	}
}

// FuzzGroupSnapshot feeds arbitrary bytes to groupSM.Restore. It must never
// panic; a rejected snapshot leaves the group untouched; an accepted one
// must round-trip through Snapshot/Restore to the same gate and inner state.
// Hostile counts (shards, virtual nodes, in-epochs, KV pairs) are rejected
// against the bytes left before anything is sized from them.
func FuzzGroupSnapshot(f *testing.F) {
	full, _ := groupWithGate(f).Snapshot()
	f.Add(full)
	bare, _ := newGroupSM("s0", kvWith(3)).Snapshot()
	f.Add(bare)
	f.Add([]byte{})
	f.Add([]byte("rshs\x00\x01"))
	f.Add([]byte("rshs\x00\x01\x01\x01a\xff\xff\xff\xff\x0f"))                    // one shard, hostile vnodes
	f.Add([]byte("rshs\x00\x01\x00\xff\xff\xff\x7f"))                             // hostile in-epoch count
	f.Add([]byte("rshs\x00\x01\x00\x00\x00\x00\x00rkvs\x00\x01\xff\xff\xff\x7f")) // hostile inner count
	f.Add([]byte("rshs\x00\x01\x00\x00\x00\x00\x05ab"))                           // out-data overrun
	f.Add([]byte(`{"shards":["s0"],"vnodes":4,"inner":"e30="}`))

	before := groupWithGate(f)
	f.Fuzz(func(t *testing.T, raw []byte) {
		g := groupWithGate(t)
		if err := g.Restore(raw, 7); err != nil {
			if !sameGroupState(g, before) {
				t.Fatal("rejected Restore changed the group")
			}
			return
		}
		snap, err := g.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		again := newGroupSM("s0", newKVMachine())
		if err := again.Restore(snap, 7); err != nil {
			t.Fatalf("re-Restore of a Snapshot: %v", err)
		}
		if !sameGroupState(g, again) {
			t.Fatal("Snapshot/Restore round trip changed the group")
		}
	})
}

// FuzzShardEnvelope feeds arbitrary bytes to the envelope and
// migration-result decoders. Neither may panic, and whatever they accept
// must re-encode to bytes that decode to the same value.
func FuzzShardEnvelope(f *testing.F) {
	env, _ := encodeEnvelope(shardEnvelope{Key: "k", Cmd: []byte("v")})
	f.Add(env)
	f.Add(encodeMigrate(&migrateCmd{Out: true, Epoch: 9, Shards: []string{"s0", "s1"}, VNodes: 160, Group: "s0"}))
	f.Add(encodeMigrate(&migrateCmd{Epoch: 9, Shards: []string{"s1"}, VNodes: 4, Group: "s1", Source: "s0", Data: []byte("rkvs\x00\x01\x00")}))
	f.Add(encodeMigrateResult(migrateResult{Data: []byte("x"), Keys: 1}))
	f.Add([]byte("rshd\x00\x02\x03"))                                  // unknown kind
	f.Add([]byte("rshd\x00\x02\x01\x01\x00\x00\x01\x01a\xff\xff\x7f")) // hostile vnodes
	f.Add([]byte("rshd\x00\x02\x00\x01\x00\x00\xff\xff\x7f"))          // hostile shard count
	f.Add([]byte("rshd\x00\x02\x01\x01\x02s0\x00\x00"))                // no ring
	f.Add([]byte(`rshd` + "\x00\x01" + `{"migrate":{"epoch":1}}`))

	f.Fuzz(func(t *testing.T, raw []byte) {
		if key, cmd, mig, ok := decodeEnvelopeParts(raw); ok {
			var again []byte
			if mig != nil {
				again = encodeMigrate(mig)
			} else {
				again, _ = encodeEnvelope(shardEnvelope{Key: string(key), Cmd: cmd})
			}
			key2, cmd2, mig2, ok := decodeEnvelopeParts(again)
			if !ok || !bytes.Equal(key, key2) || !bytes.Equal(cmd, cmd2) || !reflect.DeepEqual(mig, mig2) {
				t.Fatalf("envelope round trip changed the value: %q → %q", raw, again)
			}
			if mig != nil && (len(mig.Shards) == 0 || len(mig.Shards)*mig.VNodes > maxRingPoints) {
				t.Fatalf("accepted a ring of %d × %d points", len(mig.Shards), mig.VNodes)
			}
		}
		if r, err := decodeMigrateResult(raw); err == nil {
			r2, err := decodeMigrateResult(encodeMigrateResult(r))
			if err != nil || !reflect.DeepEqual(r, r2) {
				t.Fatalf("migration result round trip: %+v vs %+v (%v)", r, r2, err)
			}
		}
	})
}

// TestRingSizeLimit pins the construction side of maxRingPoints: a ring the
// snapshot and migration decoders would reject is refused up front, by
// NewShardedKV and by an AddShard that would grow past it.
func TestRingSizeLimit(t *testing.T) {
	if _, err := NewShardedKV(ShardedKVOptions{Shards: 2, VirtualNodes: maxRingPoints}); err == nil {
		t.Fatal("NewShardedKV accepted a ring over the point limit")
	}
	kv, err := NewShardedKV(ShardedKVOptions{Shards: 2, VirtualNodes: maxRingPoints / 2})
	if err != nil {
		t.Fatalf("NewShardedKV at the limit: %v", err)
	}
	defer kv.Close()
	if err := kv.AddShard(context.Background(), "extra"); err == nil {
		t.Fatal("AddShard grew the ring past the point limit")
	}
	if got := kv.Shards(); len(got) != 2 {
		t.Fatalf("refused AddShard left shards %v", got)
	}
}
