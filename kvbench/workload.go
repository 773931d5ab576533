package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// workload is one traffic mix against the library-default deployment. Only
// the simulated memory latency and the traffic differ between workloads; see
// README.md for why each exists and which layers it loads.
type workload struct {
	name string
	// latency is the simulated per-operation memory latency.
	latency time.Duration
	// callers is the number of closed-loop callers (goroutines).
	callers int
	// keySpace is the number of keys the callers overwrite, preloaded during
	// set-up. Zero means every put writes a fresh key.
	keySpace int
	// served sends the measured ops through client.Client and kvserver
	// instead of calling ShardedKV in process.
	served bool
	// getShare is the share of ops that are linearizable gets.
	getShare float64
	// putsPerSecond, when set, bounds the run by op count (putsPerSecond ×
	// seconds) instead of by time, so every commit ends the run at the same
	// state size.
	putsPerSecond int
}

var workloads = []workload{
	{name: "paper-2ms", latency: 2 * time.Millisecond, callers: 64, keySpace: 1000},
	{name: "floor-bigstate", callers: 64, putsPerSecond: 5000},
	{name: "served-mixed", callers: 2, keySpace: 1000, served: true, getShare: 0.5},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	valueBytes = 64
	// checkSample is the most keys the read-back check samples.
	checkSample = 2000
	// readBackShare is how long the read-back check keeps reading, cycling
	// through its sample, as a share of the window; on the in-process
	// workloads its reads are the get latency sample.
	readBackShare = 0.25
	// crossKeys is how many keys the cross-path check writes through the
	// path the workload does not use and reads back through the one it does.
	crossKeys = 64
	// checkCallers is the concurrency of the check phases: one caller per
	// client connection.
	checkCallers = 2
)

type opKind int

const (
	opPut opKind = iota
	opGet
)

var errMismatch = errors.New("read returned a value other than the last acknowledged write")

// keyspace derives every key and value the program sees from the seed.
// Caller c owns the keys whose index is c modulo the caller count, so each
// key has exactly one writer and its last acknowledged value is known.
type keyspace struct {
	seed   uint64
	filler string
}

func newKeyspace(seed int64) keyspace {
	const alnum = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, valueBytes)
	for i := range b {
		b[i] = alnum[rng.Intn(len(alnum))]
	}
	return keyspace{seed: uint64(seed), filler: string(b)}
}

// key names key index idx. splitmix64's finalizer is a bijection, so
// distinct indexes give distinct keys, spread over the ring by the seed.
func (k keyspace) key(idx int) string {
	z := k.seed*0x9e3779b97f4a7c15 + uint64(idx)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return fmt.Sprintf("k%016x", z^z>>31)
}

// value encodes (key, caller, seq) and pads it to valueBytes.
func (k keyspace) value(idx, caller int, seq int64) string {
	v := fmt.Sprintf("%s/%02d/%010d/", k.key(idx), caller, seq)
	return v + k.filler[len(v):]
}

// stripe is one caller's view of the keys it owns, by local index
// (key index = local×callers + caller).
type stripe struct {
	rng *rand.Rand
	seq int64
	// acked is the seq of each key's last acknowledged write; -1 for none.
	acked []int64
	// pending is the seq of a write that failed with an unknown outcome
	// after the last acknowledged one; -1 for none. Reads accept either.
	pending []int64
}

// state is the workload's generated inputs plus the expected contents of
// the store.
type state struct {
	w       workload
	keys    keyspace
	seed    int64
	stripes []stripe
	// corruptReadback alters the first value the read-back check reads, so
	// a test can show that the check catches a wrong value.
	corruptReadback bool
}

func newState(w workload, seed int64) *state {
	st := &state{w: w, keys: newKeyspace(seed), seed: seed, stripes: make([]stripe, w.callers)}
	for c := range st.stripes {
		n := 0
		if w.keySpace > 0 {
			n = (w.keySpace - c + w.callers - 1) / w.callers
		}
		s := &st.stripes[c]
		s.rng = rand.New(rand.NewSource(seed*1000003 + int64(c)))
		s.acked = make([]int64, n)
		s.pending = make([]int64, n)
		for i := range s.acked {
			s.acked[i], s.pending[i] = -1, -1
		}
	}
	return st
}

func (st *state) index(caller, local int) int { return local*st.w.callers + caller }

// accepts reports whether a read of key (caller, local) may return got.
func (st *state) accepts(caller, local int, got string, found bool) bool {
	s := &st.stripes[caller]
	idx := st.index(caller, local)
	if a := s.acked[local]; a < 0 && !found || a >= 0 && found && got == st.keys.value(idx, caller, a) {
		return true
	}
	p := s.pending[local]
	return p >= 0 && found && got == st.keys.value(idx, caller, p)
}

// preload writes seq 0 to every key of the key space, in process.
func (st *state) preload(ctx context.Context, d *deployment) error {
	if st.w.keySpace == 0 {
		return nil
	}
	r := closedLoop(ctx, st.w.callers, time.Time{}, int64(st.w.keySpace), nil, func(ctx context.Context, _ int, n int64) (opKind, error) {
		idx := int(n - 1)
		c, local := idx%st.w.callers, idx/st.w.callers
		if _, _, err := d.kv.Put(ctx, storeKey(st.keys.key(idx)), st.keys.value(idx, c, 0)); err != nil {
			return opPut, err
		}
		st.stripes[c].acked[local] = 0
		return opPut, nil
	})
	if r.failed > 0 {
		return fmt.Errorf("preload: %d of %d puts failed: %w", r.failed, r.attempted, r.firstErr)
	}
	return nil
}

// window runs the measured traffic: a closed loop of the workload's callers
// until the run's time or op budget is spent.
func (st *state) window(ctx context.Context, d *deployment, seconds int) loopResult {
	var deadline time.Time
	var budget int64
	if st.w.putsPerSecond > 0 {
		budget = int64(st.w.putsPerSecond) * int64(seconds)
	} else {
		deadline = time.Now().Add(time.Duration(seconds) * time.Second)
	}
	return closedLoop(ctx, st.w.callers, deadline, budget, d.tr, func(ctx context.Context, c int, _ int64) (opKind, error) {
		return st.op(ctx, d, c)
	})
}

// op is one measured operation of caller c.
func (st *state) op(ctx context.Context, d *deployment, c int) (opKind, error) {
	s := &st.stripes[c]
	var local int
	if st.w.keySpace == 0 {
		local = len(s.acked)
		s.acked = append(s.acked, -1)
		s.pending = append(s.pending, -1)
	} else {
		local = s.rng.Intn(len(s.acked))
		if st.w.getShare > 0 && s.rng.Float64() < st.w.getShare {
			return opGet, st.get(ctx, d, st.w.served, c, local)
		}
	}
	s.seq++
	return opPut, st.put(ctx, d, st.w.served, c, local, s.seq)
}

// put writes seq to key (caller, local) through the client when served is
// set, in process otherwise, and records the outcome as expected state.
func (st *state) put(ctx context.Context, d *deployment, served bool, c, local int, seq int64) error {
	idx := st.index(c, local)
	var err error
	if served {
		err = d.clientPut(ctx, st.keys.key(idx), st.keys.value(idx, c, seq))
	} else {
		err = d.kvPut(ctx, st.keys.key(idx), st.keys.value(idx, c, seq))
	}
	s := &st.stripes[c]
	if err != nil {
		s.pending[local] = seq
		return err
	}
	s.acked[local], s.pending[local] = seq, -1
	return nil
}

// get reads key (caller, local) linearizably and checks it against the last
// acknowledged write.
func (st *state) get(ctx context.Context, d *deployment, served bool, c, local int) error {
	key := st.keys.key(st.index(c, local))
	var got string
	var found bool
	var err error
	if served {
		got, found, err = d.clientGet(ctx, key)
	} else {
		got, found, err = d.kvGet(ctx, key)
	}
	if err != nil {
		return err
	}
	if !st.accepts(c, local, got, found) {
		return fmt.Errorf("get %s: got %q (found %v): %w", key, got, found, errMismatch)
	}
	return nil
}

// sample is the seeded sample of written keys the checks read: all of them
// up to checkSample, in a seeded order.
func (st *state) sample() []keyRef {
	var written []keyRef
	for c := range st.stripes {
		s := &st.stripes[c]
		for local := range s.acked {
			if s.acked[local] >= 0 || s.pending[local] >= 0 {
				written = append(written, keyRef{c, local})
			}
		}
	}
	rng := rand.New(rand.NewSource(st.seed ^ 0x5eed))
	rng.Shuffle(len(written), func(i, j int) { written[i], written[j] = written[j], written[i] })
	return written[:min(len(written), checkSample)]
}

type keyRef struct{ caller, local int }

// readBack reads the sample back through the client, linearizably, against
// the last acknowledged values.
func (st *state) readBack(ctx context.Context, d *deployment, seconds int) loopResult {
	sample := st.sample()
	if len(sample) == 0 {
		return loopResult{}
	}
	deadline := time.Now().Add(time.Duration(readBackShare * float64(seconds) * float64(time.Second)))
	return closedLoop(ctx, checkCallers, deadline, int64(len(sample)), d.tr, func(ctx context.Context, _ int, n int64) (opKind, error) {
		k := sample[(n-1)%int64(len(sample))]
		key := st.keys.key(st.index(k.caller, k.local))
		got, found, err := d.clientGet(ctx, key)
		if err != nil {
			return opGet, err
		}
		if st.corruptReadback && n == 1 {
			got += "!"
		}
		if !st.accepts(k.caller, k.local, got, found) {
			return opGet, fmt.Errorf("read-back %s: got %q (found %v): %w", key, got, found, errMismatch)
		}
		return opGet, nil
	})
}

// crossPath writes the first crossKeys keys of the sample through the path
// the workload does not use and reads them back through the one it does,
// showing that both paths serve one store.
func (st *state) crossPath(ctx context.Context, d *deployment) loopResult {
	keys := st.sample()
	keys = keys[:min(len(keys), crossKeys)]
	return closedLoop(ctx, checkCallers, time.Time{}, int64(len(keys)), d.tr, func(ctx context.Context, _ int, n int64) (opKind, error) {
		k := keys[n-1]
		// Seqs above any the window reaches; keys are distinct, so the two
		// check callers never share a slice element.
		seq := int64(1_000_000_000) + n
		if err := st.put(ctx, d, !st.w.served, k.caller, k.local, seq); err != nil {
			return opPut, err
		}
		return opPut, st.get(ctx, d, st.w.served, k.caller, k.local)
	})
}
