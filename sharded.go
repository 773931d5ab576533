package rdmaagreement

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rdmaagreement/internal/metrics"
	"rdmaagreement/internal/shard"
	"rdmaagreement/internal/smr"
	"rdmaagreement/internal/trace"
)

// ShardedOptions configure a Sharded replicated state machine.
type ShardedOptions struct {
	// Shards is the number of independent replicated-log groups. Zero means 4.
	Shards int
	// VirtualNodes is the ring's virtual-node count per shard. Zero means
	// shard.DefaultVirtualNodes.
	VirtualNodes int
	// Log configures each shard's replicated log (protocol, topology,
	// batching, snapshot interval). The zero value is a 3-process, 3-memory
	// Protected Memory Paxos group. Log.NewSM is overridden by the factory
	// passed to NewSharded.
	Log LogOptions
}

// Rebalancing errors, matchable with errors.Is.
var (
	// ErrKeyMoved is the application-level rejection a shard group commits
	// for a command or query whose key it no longer owns: a rebalance moved
	// the key's range away. The Sharded layer handles it internally by
	// retrying against the new owner (counted in ShardedStats.Forwarded);
	// only raw log-level clients, which bypass routing, observe it directly.
	ErrKeyMoved = errors.New("sharded: key is owned by another shard")
	// ErrNoMigrator is returned by AddShard/RemoveShard when the application
	// StateMachine does not implement Migrator (or the groups are plain logs
	// with no machine at all): there is no way to carve the moved key range
	// out of an opaque machine.
	ErrNoMigrator = errors.New("sharded: state machine does not implement Migrator; live rebalancing unavailable")
	// ErrRebalanceInProgress is returned by AddShard/RemoveShard while a
	// DIFFERENT rebalance is incomplete. Re-invoking the same operation
	// resumes it instead.
	ErrRebalanceInProgress = errors.New("sharded: another rebalance is still incomplete; retry it to completion first")
)

// KeyMovedError is the structured form of an ErrKeyMoved refusal: it names
// the group that refused the operation and the group its committed ring now
// routes the key to, so a routing layer that learns of the refusal — the
// network client in particular — can re-route directly instead of
// rediscovering the whole ring. It matches both errors.Is(err, ErrKeyMoved)
// and errors.As(err, &KeyMovedError{}).
type KeyMovedError struct {
	// Key is the routing key the refused operation carried.
	Key string
	// From is the group that committed the refusal (the key's old owner).
	From string
	// Owner is the group From's committed ring config routes the key to.
	Owner string
	// Index is the log index of the committed refusal; 0 for query-path
	// refusals, which commit nothing.
	Index uint64
}

func (e *KeyMovedError) Error() string {
	if e.Index > 0 {
		return fmt.Sprintf("%v: %q left %s for %s (index %d)", ErrKeyMoved, e.Key, e.From, e.Owner, e.Index)
	}
	return fmt.Sprintf("%v: %q is not served by %s (owner %s)", ErrKeyMoved, e.Key, e.From, e.Owner)
}

// Unwrap keeps the errors.Is(err, ErrKeyMoved) contract every existing
// retry loop relies on.
func (e *KeyMovedError) Unwrap() error { return ErrKeyMoved }

// Migrator is optionally implemented by application state machines that
// support live shard rebalancing (Sharded.AddShard / RemoveShard). Both
// methods run inside the apply of a committed migration command — on the
// authoritative machine and on every replica view, in log order — so they
// must be deterministic exactly like Apply: given the same machine state and
// the same predicate, every replica must remove (or merge) the same sub-state
// and MigrateOut must serialize it to the same bytes.
type Migrator interface {
	// MigrateOut removes from the machine the sub-state of every key for
	// which moved reports true and returns its serialization plus the number
	// of keys removed. It is the export half of a handoff: the returned bytes
	// are committed into the destination group via MigrateIn.
	MigrateOut(moved func(key string) bool) (data []byte, keys int, err error)
	// MigrateIn merges a MigrateOut export into the machine, keeping only the
	// keys for which owned reports true (a removed shard's export fans out to
	// every surviving group; each keeps its own share). It returns the number
	// of keys merged.
	MigrateIn(data []byte, owned func(key string) bool) (keys int, err error)
}

// ShardedStats aggregate the per-shard log counters (see LogStats for the
// embedded fields' semantics: sums across shards, except Epoch is the maximum
// and PipelineDepth the minimum over LIVE groups — a closed group reports
// depth 0 and is skipped, so it cannot masquerade as the most backed-off one)
// plus the rebalancing view.
type ShardedStats struct {
	LogStats
	// Shards is the current number of groups (AddShard/RemoveShard change it).
	Shards int
	// Rebalances counts completed AddShard/RemoveShard operations.
	Rebalances uint64
	// Migrated counts keys handed off between groups by those rebalances.
	Migrated uint64
	// Forwarded counts operations (Propose/Read/StaleRead) that were refused
	// by a key's old owner mid-rebalance and retried against the new owner.
	Forwarded uint64
}

// shardBinMagic tags every command and query the Sharded layer submits to its
// groups. The envelope carries the application payload plus the routing key,
// which is what lets each group's ownership gate check — at APPLY time, in
// log order — that the group still owns the key: the only point where the
// route-then-commit race of a live rebalance can be closed. Raw log-level
// traffic (no envelope) bypasses the gate exactly as it bypasses routing.
//
// Every layout here is binary, built from the same length-prefixed fields as
// the kvMachine payload, and tagged with a magic whose trailing byte versions
// it:
//
//   - shardBinMagic: key-bound application payloads, the hot path, one per
//     Propose/Read (magic | key field | payload), decoded without allocation;
//   - shardMagic: migration commands (see encodeMigrate);
//   - migrateResultMagic: the Apply response of a migration command
//     (magic | keys uvarint | data);
//   - groupSnapMagic: groupSM snapshots (see groupSM.Snapshot).
var (
	shardBinMagic      = []byte("rshb\x00\x01")
	shardMagic         = []byte("rshd\x00\x02")
	migrateResultMagic = []byte("rshr\x00\x01")
	groupSnapMagic     = []byte("rshs\x00\x01")
)

// maxRingPoints bounds a ring config's shards × virtual nodes. NewSharded and
// AddShard refuse larger rings, and the decoders reject them, so a few hostile
// bytes in a migration command or snapshot cannot ask for a huge ring.
const maxRingPoints = 1 << 16

// shardEnvelope is one sharded command or query: either an application
// payload bound to its routing key, or a migration command.
type shardEnvelope struct {
	Key     string
	Cmd     []byte
	Migrate *migrateCmd
}

// migrateCmd is a rebalance step committed through a group's own log —
// membership changes ride the logs they affect, the Chubby/ZooKeeper
// reconfiguration-via-log pattern. The ring after the change travels as
// (Shards, VNodes): every machine rebuilds it deterministically, so the
// ownership predicate needs no out-of-band state.
type migrateCmd struct {
	// Out marks the export half (committed in the ceding group); Ack marks
	// the post-import acknowledgement that lets the ceding group drop its
	// export outbox; otherwise this is an import (committed in a receiving
	// group).
	Out bool
	Ack bool
	// Epoch is the migration epoch: one per rebalance operation, strictly
	// increasing. It makes re-proposed migration commands idempotent — a
	// duplicate export replays its stored result, a duplicate import is a
	// no-op — which is what lets an interrupted rebalance be retried safely.
	Epoch uint64
	// Shards and VNodes describe the ring after the rebalance.
	Shards []string
	VNodes int
	// Group is the group this command is committed in.
	Group string
	// Source is the ceding group (imports only).
	Source string
	// Data is the ceded sub-state (imports only). Decoded, it aliases the
	// committed entry: it is consumed within the apply and never retained.
	Data []byte
}

// Migration command kinds, one byte on the wire.
const (
	migrateImport byte = iota
	migrateOut
	migrateAck
)

// migrateResult is the Apply response of a migration command: the export's
// bytes (out) and the number of keys exported or merged.
type migrateResult struct {
	Data []byte
	Keys int
}

func encodeEnvelope(env shardEnvelope) ([]byte, error) {
	if env.Migrate == nil {
		out := make([]byte, 0, len(shardBinMagic)+binary.MaxVarintLen64+len(env.Key)+len(env.Cmd))
		out = append(out, shardBinMagic...)
		out = appendField(out, env.Key)
		return append(out, env.Cmd...), nil
	}
	return encodeMigrate(env.Migrate), nil
}

// encodeMigrate writes a migration command:
//
//	magic | kind byte | epoch uvarint | group field | source field | ring | data
//
// where ring is appendRing's layout and data runs to the end.
func encodeMigrate(m *migrateCmd) []byte {
	kind := migrateImport
	switch {
	case m.Out:
		kind = migrateOut
	case m.Ack:
		kind = migrateAck
	}
	out := append([]byte(nil), shardMagic...)
	out = append(out, kind)
	out = binary.AppendUvarint(out, m.Epoch)
	out = appendField(out, m.Group)
	out = appendField(out, m.Source)
	out = appendRing(out, m.Shards, m.VNodes)
	return append(out, m.Data...)
}

func decodeMigrate(b []byte) (*migrateCmd, error) {
	b = b[len(shardMagic):]
	if len(b) == 0 || b[0] > migrateAck {
		return nil, fmt.Errorf("unknown migration command kind")
	}
	m := &migrateCmd{Out: b[0] == migrateOut, Ack: b[0] == migrateAck}
	b = b[1:]
	var w int
	if m.Epoch, w = binary.Uvarint(b); w <= 0 {
		return nil, fmt.Errorf("truncated migration epoch")
	}
	group, rest, ok := splitField(b[w:])
	if !ok {
		return nil, fmt.Errorf("truncated migration group")
	}
	source, rest, ok := splitField(rest)
	if !ok {
		return nil, fmt.Errorf("truncated migration source")
	}
	m.Group, m.Source = string(group), string(source)
	var err error
	if m.Shards, m.VNodes, rest, err = splitRing(rest); err != nil {
		return nil, err
	}
	if len(m.Shards) == 0 {
		// Every rebalance leaves at least one shard; an empty ring would
		// also snapshot as "no ring" and come back owning every key.
		return nil, fmt.Errorf("migration command names no ring")
	}
	if len(rest) > 0 {
		m.Data = rest
	}
	return m, nil
}

// appendRing writes a ring config: shard count uvarint, one field per name,
// then the virtual-node count uvarint. No ring is a lone zero count.
func appendRing(out []byte, shards []string, vnodes int) []byte {
	out = binary.AppendUvarint(out, uint64(len(shards)))
	if len(shards) == 0 {
		return out
	}
	for _, name := range shards {
		out = appendField(out, name)
	}
	return binary.AppendUvarint(out, uint64(vnodes))
}

// splitRing reads appendRing's layout off the front of b, rejecting rings
// larger than maxRingPoints before anything is allocated for them.
func splitRing(b []byte) (shards []string, vnodes int, rest []byte, err error) {
	n, w := binary.Uvarint(b)
	if w <= 0 {
		return nil, 0, nil, fmt.Errorf("truncated ring shard count")
	}
	rest = b[w:]
	if n == 0 {
		return nil, 0, rest, nil
	}
	if n > uint64(len(rest)) || n > maxRingPoints {
		return nil, 0, nil, fmt.Errorf("ring shard count %d overruns payload", n)
	}
	shards = make([]string, n)
	for i := range shards {
		name, next, ok := splitField(rest)
		if !ok {
			return nil, 0, nil, fmt.Errorf("truncated ring shard %d", i)
		}
		shards[i], rest = string(name), next
	}
	v, w := binary.Uvarint(rest)
	if w <= 0 || v == 0 || v > maxRingPoints/n {
		return nil, 0, nil, fmt.Errorf("ring of %d shards with bad virtual-node count", n)
	}
	return shards, int(v), rest[w:], nil
}

// checkRingSize is the construction-side half of maxRingPoints: a ring the
// decoders would reject is refused before it is ever committed.
func checkRingSize(shards, vnodes int) error {
	if vnodes <= 0 {
		vnodes = shard.DefaultVirtualNodes
	}
	if shards*vnodes > maxRingPoints {
		return fmt.Errorf("sharded: %d shards × %d virtual nodes exceeds the ring limit of %d points", shards, vnodes, maxRingPoints)
	}
	return nil
}

func encodeMigrateResult(r migrateResult) []byte {
	out := make([]byte, 0, len(migrateResultMagic)+binary.MaxVarintLen64+len(r.Data))
	out = append(out, migrateResultMagic...)
	out = binary.AppendUvarint(out, uint64(r.Keys))
	return append(out, r.Data...)
}

func decodeMigrateResult(resp []byte) (migrateResult, error) {
	if !bytes.HasPrefix(resp, migrateResultMagic) {
		return migrateResult{}, fmt.Errorf("not a migration result")
	}
	rest := resp[len(migrateResultMagic):]
	keys, w := binary.Uvarint(rest)
	if w <= 0 || keys > math.MaxInt32 {
		return migrateResult{}, fmt.Errorf("bad migration result key count")
	}
	r := migrateResult{Keys: int(keys)}
	if rest = rest[w:]; len(rest) > 0 {
		r.Data = rest
	}
	return r, nil
}

// decodeEnvelopeParts splits an enveloped payload into its routing key, the
// inner payload, and (migration envelopes only) a migration command. The
// returned key and cmd alias raw for the key-bound framing — callers on the
// apply path convert the key to a string only when they actually need one.
// ok=false means raw carries neither tag, or a malformed one: a raw
// log-level payload that bypasses the gate.
func decodeEnvelopeParts(raw []byte) (key, cmd []byte, mig *migrateCmd, ok bool) {
	if bytes.HasPrefix(raw, shardBinMagic) {
		key, cmd, ok := splitField(raw[len(shardBinMagic):])
		if !ok {
			return nil, nil, nil, false
		}
		return key[:len(key):len(key)], cmd, nil, true
	}
	if bytes.HasPrefix(raw, shardMagic) {
		m, err := decodeMigrate(raw)
		if err != nil {
			return nil, nil, nil, false
		}
		return nil, nil, m, true
	}
	return nil, nil, nil, false
}

// groupSM wraps the application's StateMachine in one shard group's
// ownership gate. It decodes the Sharded layer's envelopes, interprets
// migration commands (delegating the data movement to the inner machine's
// Migrator), and refuses application commands and queries for keys the
// group's latest committed ring config routes elsewhere — the refusal is
// itself a committed, deterministic log event, so a write that raced a
// handoff provably did not mutate the ceded range and can be retried at the
// new owner.
//
// All gate state (the committed ring config, the import dedupe epochs, the
// export outbox) is part of the machine state proper: every replica view
// derives the identical gate from the identical log, and snapshots carry it.
type groupSM struct {
	self  string
	inner StateMachine

	ring     *shard.Ring       // latest committed ownership config; nil = every routed key is ours
	inEpochs map[string]uint64 // per ceding source: epoch of the last applied import
	// Export outbox: the latest migrate-out's result, keyed by its epoch. A
	// re-proposed export (the rebalancer retried after losing the first
	// response) replays the stored result instead of exporting the — by then
	// empty — range again, which would silently drop the ceded state.
	outEpoch uint64
	outData  []byte
	outKeys  int
}

func newGroupSM(self string, inner StateMachine) *groupSM {
	return &groupSM{self: self, inner: inner, inEpochs: make(map[string]uint64)}
}

func (g *groupSM) Apply(e LogEntry) ([]byte, error) {
	key, cmd, mig, ok := decodeEnvelopeParts(e.Cmd)
	if !ok {
		// Raw log-level command: no key to gate on; it bypassed routing and
		// bypasses the gate, exactly like before rebalancing existed.
		return g.inner.Apply(e)
	}
	if mig != nil {
		return g.applyMigrate(mig)
	}
	// The ownership check materializes the key string only when a ring is
	// committed: until the first rebalance (the common case on the hot path)
	// every routed key is ours and the key bytes are never copied.
	if g.ring != nil {
		if k := string(key); g.ring.Shard(k) != g.self {
			return nil, &KeyMovedError{Key: k, From: g.self, Owner: g.ring.Shard(k), Index: e.Index}
		}
	}
	inner := e
	inner.Cmd = cmd
	return g.inner.Apply(inner)
}

func (g *groupSM) applyMigrate(m *migrateCmd) ([]byte, error) {
	if m.Group != g.self {
		// A migrate command built for another group (a replayed envelope, a
		// misdirected raw propose) must not carve up THIS group's state.
		return nil, fmt.Errorf("sharded: migrate command for %s committed in %s", m.Group, g.self)
	}
	if m.Ack {
		// The exported range has been imported everywhere: drop the outbox
		// copy so the ceded bytes stop living in this machine's state (and
		// its snapshots) forever. Replaying a stale ack is harmless.
		if m.Epoch == g.outEpoch {
			g.outData = nil
		}
		return encodeMigrateResult(migrateResult{}), nil
	}
	mig, ok := g.inner.(Migrator)
	if !ok {
		return nil, fmt.Errorf("sharded: migrate committed in %s: %w", g.self, ErrNoMigrator)
	}
	next := shard.New(m.Shards, m.VNodes)
	if m.Out {
		if m.Epoch <= g.outEpoch {
			if m.Epoch == g.outEpoch {
				// Duplicate export (a lost-response retry): replay the result.
				return encodeMigrateResult(migrateResult{Data: g.outData, Keys: g.outKeys}), nil
			}
			return encodeMigrateResult(migrateResult{}), nil // stale epoch: nothing left to say
		}
		data, keys, err := mig.MigrateOut(func(key string) bool { return next.Shard(key) != g.self })
		if err != nil {
			// Nothing recorded: the gate stays un-ceded and a retried
			// rebalance re-runs the export instead of replaying a failure.
			return nil, fmt.Errorf("sharded: migrate out of %s: %w", g.self, err)
		}
		// Gate and carve-out commit together, inside this one apply, so no
		// command can slip between the cede and the export. Deterministic:
		// every replica runs the identical branch on the identical state.
		g.ring = next
		g.outEpoch, g.outData, g.outKeys = m.Epoch, data, keys
		return encodeMigrateResult(migrateResult{Data: data, Keys: keys}), nil
	}
	if last, dup := g.inEpochs[m.Source]; dup && m.Epoch <= last {
		// Duplicate import (same handoff re-proposed): merging again could
		// overwrite writes accepted since the first merge.
		return encodeMigrateResult(migrateResult{}), nil
	}
	keys, err := mig.MigrateIn(m.Data, func(key string) bool { return next.Shard(key) == g.self })
	if err != nil {
		// Record nothing on failure: a retried handoff must re-propose this
		// import and have it actually merge, not hit the dedupe branch and
		// silently drop the exported range.
		return nil, fmt.Errorf("sharded: migrate into %s: %w", g.self, err)
	}
	g.inEpochs[m.Source] = m.Epoch
	g.ring = next
	return encodeMigrateResult(migrateResult{Keys: keys}), nil
}

func (g *groupSM) Query(query []byte) ([]byte, error) {
	key, cmd, _, ok := decodeEnvelopeParts(query)
	if !ok {
		return g.queryInner(query) // raw log-level query: no key, no gate
	}
	if g.ring != nil {
		if k := string(key); g.ring.Shard(k) != g.self {
			return nil, &KeyMovedError{Key: k, From: g.self, Owner: g.ring.Shard(k)}
		}
	}
	return g.queryInner(cmd)
}

func (g *groupSM) queryInner(query []byte) ([]byte, error) {
	qr, ok := g.inner.(Querier)
	if !ok {
		return nil, ErrNotQueryable
	}
	return qr.Query(query)
}

// Snapshot writes the gate state in binary, then the inner machine's
// snapshot bytes as they are (appended once, never re-encoded):
//
//	magic | ring | in-epoch count uvarint | (source field | epoch uvarint)*
//	      | out-epoch uvarint | out-keys uvarint | out-data field | inner
//
// where ring is appendRing's layout. The in-epochs are written in
// map-iteration order: like kvMachine's, the bytes are not canonical but the
// state they encode is.
func (g *groupSM) Snapshot() ([]byte, error) {
	inner, err := g.inner.Snapshot()
	if err != nil {
		return nil, err
	}
	var shards []string
	var vnodes int
	if g.ring != nil {
		shards, vnodes = g.ring.Shards(), g.ring.VirtualNodes()
	}
	gate := append([]byte(nil), groupSnapMagic...)
	gate = appendRing(gate, shards, vnodes)
	gate = binary.AppendUvarint(gate, uint64(len(g.inEpochs)))
	for src, epoch := range g.inEpochs {
		gate = appendField(gate, src)
		gate = binary.AppendUvarint(gate, epoch)
	}
	gate = binary.AppendUvarint(gate, g.outEpoch)
	gate = binary.AppendUvarint(gate, uint64(g.outKeys))
	gate = appendField(gate, g.outData)
	out := make([]byte, 0, len(gate)+len(inner))
	return append(append(out, gate...), inner...), nil
}

// Restore rebuilds the gate from a Snapshot and hands the inner bytes to the
// inner machine. A malformed snapshot restores nothing.
func (g *groupSM) Restore(snapshot []byte, lastIndex uint64) error {
	if !bytes.HasPrefix(snapshot, groupSnapMagic) {
		return fmt.Errorf("sharded: restore gate state: missing snapshot tag")
	}
	shards, vnodes, rest, err := splitRing(snapshot[len(groupSnapMagic):])
	if err != nil {
		return fmt.Errorf("sharded: restore gate state: %w", err)
	}
	n, w := binary.Uvarint(rest)
	if w <= 0 || n > uint64(len(rest)-w)/2 {
		return fmt.Errorf("sharded: restore gate state: bad in-epoch count")
	}
	rest = rest[w:]
	inEpochs := make(map[string]uint64, n)
	for i := uint64(0); i < n; i++ {
		src, next, ok := splitField(rest)
		if !ok {
			return fmt.Errorf("sharded: restore gate state: truncated in-epoch source")
		}
		epoch, w := binary.Uvarint(next)
		if w <= 0 {
			return fmt.Errorf("sharded: restore gate state: truncated in-epoch")
		}
		inEpochs[string(src)], rest = epoch, next[w:]
	}
	outEpoch, w := binary.Uvarint(rest)
	if w <= 0 {
		return fmt.Errorf("sharded: restore gate state: truncated out-epoch")
	}
	outKeys, w2 := binary.Uvarint(rest[w:])
	if w2 <= 0 || outKeys > math.MaxInt32 {
		return fmt.Errorf("sharded: restore gate state: bad out-keys")
	}
	outData, inner, ok := splitField(rest[w+w2:])
	if !ok {
		return fmt.Errorf("sharded: restore gate state: truncated out-data")
	}
	if err := g.inner.Restore(inner, lastIndex); err != nil {
		return err
	}
	g.ring = nil
	if len(shards) > 0 {
		g.ring = shard.New(shards, vnodes)
	}
	// The snapshot buffer is shared and read-only: the outbox keeps a copy.
	g.inEpochs, g.outEpoch, g.outKeys = inEpochs, outEpoch, int(outKeys)
	g.outData = bytes.Clone(outData)
	if len(g.outData) == 0 {
		g.outData = nil
	}
	return nil
}

// migration is one in-flight AddShard/RemoveShard: the ring it is moving to
// and the per-source handoff progress. done/ready are guarded by Sharded.mu
// (route reads them); exports is touched only under rebalanceMu.
type migration struct {
	epoch   uint64
	next    *shard.Ring
	target  string                   // shard being added ("" for a removal)
	removed string                   // shard being removed ("" for an addition)
	done    map[string]bool          // ceding source → its range's handoff has committed
	ready   map[string]chan struct{} // closed when the source's handoff commits
	exports map[string]migrateResult // exported but not yet fully imported ranges
}

func (m *migration) describe() string {
	if m.target != "" {
		return fmt.Sprintf("AddShard(%s)", m.target)
	}
	return fmt.Sprintf("RemoveShard(%s)", m.removed)
}

// Sharded runs one replicated state machine per shard of a consistent-hash
// ring: every group owns its own instances of the application's StateMachine
// (built by the factory given to NewSharded), so unrelated keys commit — and
// snapshot, and garbage-collect — in parallel while each key still enjoys the
// underlying protocol's resilience. It is the generic layer every workload
// plugs into; ShardedKV is its ~100-line reference client.
//
// Keys never span shards, so per-key ordering is exactly per-shard log
// ordering; cross-shard operations get no atomicity.
//
// The shard set is LIVE: AddShard and RemoveShard rebalance the ring under
// traffic, draining each moved key range through the logs it leaves and
// enters (a committed migrate-out in the ceding group, a committed migrate-in
// in the receiving one) while the ownership gate in every group's machine
// refuses writes and reads for keys the group has ceded — a refused operation
// is retried against the new owner (ShardedStats.Forwarded), so a moving key
// is never lost and never forked across groups. Requires the application
// machine to implement Migrator.
type Sharded struct {
	newSM   func() StateMachine
	logOpts LogOptions // per-group template; NewSM is set per group
	// envelope is set when an application machine exists: commands and
	// queries then travel wrapped with their routing key for the ownership
	// gate. Plain logs (nil newSM) stay raw — they cannot rebalance anyway.
	envelope bool

	// metrics is the registry every group records into — one per Sharded
	// deployment (or the caller's, via ShardedOptions.Log.Metrics), so the
	// slot-lifecycle instrumentation aggregates across shards for free.
	metrics *metrics.Registry

	mu       sync.RWMutex
	ring     *shard.Ring         // guarded by mu
	logs     map[string]*smr.Log // guarded by mu
	mig      *migration          // guarded by mu
	migEpoch uint64              // guarded by mu
	closed   bool                // guarded by mu

	// rebalanceMu serializes whole AddShard/RemoveShard operations.
	rebalanceMu sync.Mutex

	rebalances atomic.Uint64
	migrated   atomic.Uint64
	forwarded  atomic.Uint64
}

// NewSharded builds the ring and one replicated-log group per shard, each
// owning state machines built by newSM (one authoritative machine plus one
// learner view per replica, per shard). A nil newSM builds plain logs of
// opaque commands (which cannot rebalance).
func NewSharded(newSM func() StateMachine, opts ShardedOptions) (*Sharded, error) {
	if opts.Shards <= 0 {
		opts.Shards = 4
	}
	if err := checkRingSize(opts.Shards, opts.VirtualNodes); err != nil {
		return nil, err
	}
	if userHook := opts.Log.OnCommit; userHook != nil {
		// Application hooks see the application's commands: unwrap envelopes,
		// and skip both the migration plumbing and gate-refused commands
		// (committed entries that changed no state — a refused write is
		// retried and fires the hook once, at the owner that applied it).
		// Their indices appear to the hook as gaps. Raw log-level entries
		// pass through untouched, rejected or not: ShardedKV's foreign-entry
		// accounting depends on seeing them.
		opts.Log.OnCommit = func(e LogEntry) {
			if _, cmd, mig, ok := decodeEnvelopeParts(e.Cmd); ok {
				if mig != nil || e.Rejected {
					return
				}
				e.Cmd = cmd
			}
			userHook(e)
		}
	}
	if opts.Log.Metrics == nil {
		// One registry across every group (including those added by later
		// rebalances): counters, histogram buckets and delta-maintained
		// gauges then sum into a deployment-wide view (Sharded.Metrics).
		opts.Log.Metrics = metrics.NewRegistry()
	}
	names := shard.ShardNames(opts.Shards)
	s := &Sharded{
		newSM:    newSM,
		logOpts:  opts.Log,
		envelope: newSM != nil,
		metrics:  opts.Log.Metrics,
		ring:     shard.New(names, opts.VirtualNodes),
		logs:     make(map[string]*smr.Log, opts.Shards),
	}
	for _, name := range names {
		l, err := s.makeLog(name)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("sharded: shard %s: %w", name, err)
		}
		s.logs[name] = l
	}
	return s, nil
}

// makeLog builds one group's replicated log, its machines wrapped in the
// group's ownership gate.
func (s *Sharded) makeLog(name string) (*smr.Log, error) {
	logOpts := s.logOpts
	if s.newSM != nil {
		logOpts.NewSM = func() StateMachine { return newGroupSM(name, s.newSM()) }
	} else {
		logOpts.NewSM = nil
	}
	return smr.NewLog(logOpts)
}

// route resolves the group that currently serves key: by the authoritative
// ring, except that a key whose range has completed its handoff mid-rebalance
// already routes to its new owner. For a key whose range is still moving it
// returns the (refusing-soon) old owner plus the channel closed when the
// range's handoff commits — the forwarding loops wait on it before retrying.
func (s *Sharded) route(key string) (name string, l *smr.Log, handedOff <-chan struct{}, err error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return "", nil, nil, ErrLogClosed
	}
	name, handedOff = s.ownerLocked(key)
	l, ok := s.logs[name]
	if !ok {
		return "", nil, nil, fmt.Errorf("sharded: no shard for key %q", key)
	}
	return name, l, handedOff, nil
}

// forward handles one refused operation: count it, then wait for the moving
// range's handoff to commit before the caller re-routes — bounded by ctx
// and, when bound > 0, by that duration (the timer is created only here, on
// the rare actually-waiting path, never on a hot read). A nil channel means
// the routing view has already moved on — re-routing alone suffices.
func (s *Sharded) forward(ctx context.Context, handedOff <-chan struct{}, bound time.Duration) error {
	s.forwarded.Add(1)
	if handedOff == nil {
		return nil
	}
	if bound > 0 {
		t := time.NewTimer(bound)
		defer t.Stop()
		select {
		case <-handedOff:
			return nil
		case <-t.C:
			return fmt.Errorf("%w (handoff still in flight after %v)", ErrKeyMoved, bound)
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	select {
	case <-handedOff:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// withOwner is the shared routing-retry loop behind Propose, Read and
// StaleRead: run op against key's current owner; on a committed ownership
// refusal, wait for the moving range's handoff (bounded by ctx, and by
// waitBound if positive) and retry at the new owner; on a closed log that
// turns out to be a removed shard, just re-route. Any other error —
// including application-level rejections, whose op may have captured a valid
// index and response — is final and wrapped with the verb.
func (s *Sharded) withOwner(ctx context.Context, verb, key string, waitBound time.Duration, op func(l *smr.Log) error) (string, error) {
	for {
		name, l, handedOff, err := s.route(key)
		if err != nil {
			return "", err
		}
		err = op(l)
		switch {
		case err == nil:
			return name, nil
		case errors.Is(err, ErrKeyMoved):
			if werr := s.forward(ctx, handedOff, waitBound); werr != nil {
				return name, fmt.Errorf("sharded: %s %q: %w", verb, key, werr)
			}
		case errors.Is(err, ErrLogClosed) && s.rerouted(key, name):
			s.forwarded.Add(1)
		default:
			return name, fmt.Errorf("sharded: %s %q: %w", verb, key, err)
		}
	}
}

// envelopePayload wraps an application payload with its routing key when the
// groups run the ownership gate; plain logs stay raw.
func (s *Sharded) envelopePayload(key string, payload []byte) ([]byte, error) {
	if !s.envelope {
		return payload, nil
	}
	return encodeEnvelope(shardEnvelope{Key: key, Cmd: payload})
}

// Propose replicates cmd through the shard owning key and returns the shard's
// name, the command's index in that shard's log, and the state machine's
// response. When Propose returns without error, the command is committed and
// applied. If a rebalance moves the key's range mid-flight, the old owner
// commits a refusal instead of a write and Propose transparently retries
// against the new owner (counted in ShardedStats.Forwarded).
func (s *Sharded) Propose(ctx context.Context, key string, cmd []byte) (string, uint64, []byte, error) {
	payload, err := s.envelopePayload(key, cmd)
	if err != nil {
		return "", 0, nil, err
	}
	var index uint64
	var resp []byte
	name, err := s.withOwner(ctx, "propose", key, 0, func(l *smr.Log) error {
		var err error
		index, resp, err = l.Propose(ctx, payload)
		return err
	})
	return name, index, resp, err
}

// rerouted reports whether key now routes somewhere other than name — the
// retry test for operations that raced a shard removal.
func (s *Sharded) rerouted(key, name string) bool {
	newName, _, _, err := s.route(key)
	return err == nil && newName != name
}

// ownerLocked resolves the group that currently serves key — the
// authoritative ring, except that a key whose range has completed its
// mid-rebalance handoff already names its new owner. When the key's range is
// still moving it additionally returns the channel closed when the handoff
// commits. Callers must hold s.mu (read or write).
//
//smrlint:holds mu
func (s *Sharded) ownerLocked(key string) (name string, handedOff <-chan struct{}) {
	name = s.ring.Shard(key)
	if s.mig != nil {
		if next := s.mig.next.Shard(key); next != name {
			if s.mig.done[name] {
				name = next
			} else {
				handedOff = s.mig.ready[name]
			}
		}
	}
	return name, handedOff
}

// Read serves a linearizable query against the shard owning key: it is
// guaranteed to observe every Propose on that key that returned before the
// Read started — across rebalances too: once the key's new owner serves
// reads, it has imported every write its old owner committed. See Log.Read.
func (s *Sharded) Read(ctx context.Context, key string, query []byte) ([]byte, error) {
	payload, err := s.envelopePayload(key, query)
	if err != nil {
		return nil, err
	}
	var resp []byte
	_, err = s.withOwner(ctx, "read", key, 0, func(l *smr.Log) error {
		var err error
		resp, err = l.Read(ctx, payload)
		return err
	})
	return resp, err
}

// staleForwardWait bounds how long a StaleRead — which takes no context —
// waits for a moving range's handoff before giving up. Handoffs commit in a
// few slot round trips, so a generous bound only ever bites when a rebalance
// is stuck.
const staleForwardWait = 2 * time.Second

// StaleRead serves a local, possibly-stale query for key — no consensus
// round, no barrier — from the owning shard's freshest available replica
// view: the lease holder's while the lease is in force, otherwise the
// most-applied view (a deposed or crashed leader's frozen learner view must
// not shadow replicas that kept applying; see Log.LocalRead). During a
// rebalance the staleness window extends across the handoff: a key that just
// moved may briefly read as absent on a destination replica that has not
// applied the import yet.
func (s *Sharded) StaleRead(key string, query []byte) ([]byte, error) {
	return s.StaleReadContext(context.Background(), key, query)
}

// StaleReadContext is StaleRead bounded by ctx: the read itself is local and
// immediate, but a key whose range is mid-handoff waits for the handoff to
// commit before retrying at the new owner, and that wait now honors the
// caller's deadline — which is what lets a network server enforce request
// deadlines on the stale-read path. The staleForwardWait bound still applies
// on top, so a stuck rebalance degrades to an error even under a generous
// ctx (the timer exists only on the actually-waiting path; the hot local-read
// case pays nothing for it).
func (s *Sharded) StaleReadContext(ctx context.Context, key string, query []byte) ([]byte, error) {
	// The local read never blocks, so an already-dead ctx would otherwise
	// still succeed; callers handed a canceled request deserve a refusal.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	payload, err := s.envelopePayload(key, query)
	if err != nil {
		return nil, err
	}
	var resp []byte
	_, err = s.withOwner(ctx, "stale read", key, staleForwardWait, func(l *smr.Log) error {
		var err error
		resp, err = l.LocalRead(payload)
		return err
	})
	return resp, err
}

// AddShard grows the ring by one group under live traffic: it builds the new
// group, computes the key ranges that move to it (an expected 1/(S+1)
// fraction, per consistent hashing's minimal movement), and drains each
// ceding group through its own log — a committed migrate-out carves the moved
// sub-state out of the source (after a Barrier so the export covers every
// write routed there before the rebalance began) and a committed migrate-in
// merges it into the new group. From the moment a source's cede commits, its
// machine refuses operations on the moved keys; the Sharded layer retries
// them against the new owner once the range's import commits, so no write is
// lost, no key is served by two groups, and no downtime is taken.
//
// Adding an existing shard is a no-op. If AddShard fails partway (context
// expired, a group halted), the moved ranges whose cede committed stay
// unavailable until AddShard is called again with the same name — it resumes
// the interrupted handoffs idempotently (duplicate migration commands replay
// or no-op by epoch). A rebalance for a different shard cannot start until
// then (ErrRebalanceInProgress).
func (s *Sharded) AddShard(ctx context.Context, name string) error {
	return s.rebalanceShards(ctx, name, "")
}

// RemoveShard shrinks the ring by one group under live traffic: the removed
// group's whole key space is exported through its log and fanned out to every
// surviving group (each merges exactly the keys the new ring routes to it),
// after which the group's log is closed. Removing an unknown shard is a
// no-op; removing the last shard is an error. Failure and resume semantics
// match AddShard.
func (s *Sharded) RemoveShard(ctx context.Context, name string) error {
	return s.rebalanceShards(ctx, "", name)
}

func (s *Sharded) rebalanceShards(ctx context.Context, add, remove string) error {
	// Probe the factory here, on the rare rebalance path, rather than paying
	// a throwaway machine construction in every NewSharded.
	if s.newSM == nil {
		return ErrNoMigrator
	}
	if _, ok := s.newSM().(Migrator); !ok {
		return ErrNoMigrator
	}
	s.rebalanceMu.Lock()
	defer s.rebalanceMu.Unlock()

	s.mu.RLock()
	closed, mig := s.closed, s.mig
	_, addExists := s.logs[add]
	_, removeExists := s.logs[remove]
	size, vnodes := s.ring.Size(), s.ring.VirtualNodes()
	s.mu.RUnlock()
	if closed {
		return fmt.Errorf("sharded: rebalance: %w", ErrLogClosed)
	}
	if mig != nil && (mig.target != add || mig.removed != remove) {
		return fmt.Errorf("%w: %s", ErrRebalanceInProgress, mig.describe())
	}
	if mig == nil {
		switch {
		case add != "" && addExists:
			return nil // already a member
		case remove != "" && !removeExists:
			return nil // already gone
		case remove != "" && size <= 1:
			return fmt.Errorf("sharded: cannot remove the last shard %q", remove)
		}
		var addLog *smr.Log
		if add != "" {
			if err := checkRingSize(size+1, vnodes); err != nil {
				return err
			}
			var err error
			if addLog, err = s.makeLog(add); err != nil {
				return fmt.Errorf("sharded: shard %s: %w", add, err)
			}
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			if addLog != nil {
				addLog.Close()
			}
			return fmt.Errorf("sharded: rebalance: %w", ErrLogClosed)
		}
		next := s.ring.Clone()
		if add != "" {
			next.Add(add)
		} else {
			next.Remove(remove)
		}
		s.migEpoch++
		mig = &migration{
			epoch:   s.migEpoch,
			next:    next,
			target:  add,
			removed: remove,
			done:    make(map[string]bool),
			ready:   make(map[string]chan struct{}),
			exports: make(map[string]migrateResult),
		}
		for _, src := range shard.Ceders(s.ring, next) {
			mig.ready[src] = make(chan struct{})
		}
		if addLog != nil {
			s.logs[add] = addLog
		}
		s.mig = mig
		s.mu.Unlock()
	}

	// Drain each still-pending source, in stable order.
	sources := make([]string, 0, len(mig.ready))
	for src := range mig.ready {
		sources = append(sources, src)
	}
	sort.Strings(sources)
	for _, src := range sources {
		s.mu.RLock()
		done := mig.done[src]
		s.mu.RUnlock()
		if done {
			continue
		}
		if err := s.handoff(ctx, mig, src); err != nil {
			return err
		}
	}

	// Every range handed off: publish the new ring and retire the migration.
	s.mu.Lock()
	s.ring = mig.next
	s.mig = nil
	var closing *smr.Log
	if remove != "" {
		closing = s.logs[remove]
		delete(s.logs, remove)
	}
	s.mu.Unlock()
	s.rebalances.Add(1)
	if closing != nil {
		closing.Close()
	}
	return nil
}

// importTimeout bounds the import half of a handoff, which runs detached from
// the caller's context: once a source has committed its cede, cancelling the
// caller must not strand the exported range in limbo.
const importTimeout = 10 * time.Minute

// handoff drains one ceding group's moved ranges: barrier, committed export,
// committed import(s), then mark the range as handed off so routing moves and
// forwarded operations retry.
func (s *Sharded) handoff(ctx context.Context, mig *migration, src string) error {
	s.mu.RLock()
	srcLog := s.logs[src]
	s.mu.RUnlock()
	if srcLog == nil {
		return fmt.Errorf("sharded: ceding shard %s has no log", src)
	}

	res, exported := mig.exports[src]
	if !exported {
		// Flush the source's queue first so the export commits strictly after
		// every write routed there before the rebalance began.
		if _, err := srcLog.Barrier(ctx); err != nil {
			return fmt.Errorf("sharded: barrier before migrating out of %s: %w", src, err)
		}
		out, err := encodeEnvelope(shardEnvelope{Migrate: &migrateCmd{
			Out: true, Epoch: mig.epoch, Shards: mig.next.Shards(), VNodes: mig.next.VirtualNodes(), Group: src,
		}})
		if err != nil {
			return err
		}
		_, resp, err := proposeRetry(ctx, srcLog, out)
		if err != nil {
			return fmt.Errorf("sharded: migrate out of %s: %w", src, err)
		}
		if res, err = decodeMigrateResult(resp); err != nil {
			return fmt.Errorf("sharded: migrate out of %s: decode result: %w", src, err)
		}
		mig.exports[src] = res
		traceMigrate(srcLog, "migrate-out committed in %s: %d keys ceded (epoch %d)", src, res.Keys, mig.epoch)
	}

	// The cede is committed: the moved range exists only in res now. Run the
	// imports under a detached context so the caller's cancellation cannot
	// strand it.
	ictx, cancel := context.WithTimeout(context.Background(), importTimeout)
	defer cancel()
	dests := []string{mig.target}
	if mig.target == "" {
		dests = mig.next.Shards() // a removal fans out to every survivor
	}
	for _, dest := range dests {
		s.mu.RLock()
		destLog := s.logs[dest]
		s.mu.RUnlock()
		if destLog == nil {
			return fmt.Errorf("sharded: import destination %s has no log", dest)
		}
		in, err := encodeEnvelope(shardEnvelope{Migrate: &migrateCmd{
			Epoch: mig.epoch, Shards: mig.next.Shards(), VNodes: mig.next.VirtualNodes(),
			Group: dest, Source: src, Data: res.Data,
		}})
		if err != nil {
			return err
		}
		_, resp, err := proposeRetry(ictx, destLog, in)
		if err != nil {
			return fmt.Errorf("sharded: import %s's range into %s: %w (range unavailable until the rebalance is retried to completion)", src, dest, err)
		}
		ires, err := decodeMigrateResult(resp)
		if err != nil {
			return fmt.Errorf("sharded: import into %s: decode result: %w", dest, err)
		}
		s.migrated.Add(uint64(ires.Keys))
		traceMigrate(destLog, "migrate-in committed in %s: %d keys merged from %s (epoch %d)", dest, ires.Keys, src, mig.epoch)
	}

	// Every import is committed: tell the source it may drop its export
	// outbox (best-effort — the ack only bounds memory; a lost ack leaves
	// the outbox until the next rebalance). A group being removed skips it:
	// its log closes in a moment anyway.
	if src != mig.removed {
		if ack, err := encodeEnvelope(shardEnvelope{Migrate: &migrateCmd{
			Ack: true, Epoch: mig.epoch, Shards: mig.next.Shards(), VNodes: mig.next.VirtualNodes(), Group: src,
		}}); err == nil {
			_, _, _ = proposeRetry(ictx, srcLog, ack)
		}
	}

	delete(mig.exports, src)
	s.mu.Lock()
	mig.done[src] = true
	close(mig.ready[src])
	s.mu.Unlock()
	return nil
}

// traceMigrate records one leg of a shard handoff into the group's trace
// recorder (LogOptions.Cluster.Recorder). Nil-safe like every Recorder call.
func traceMigrate(l *smr.Log, format string, args ...any) {
	c := l.Cluster()
	c.Opts.Recorder.Record(c.LeaseHolder(), trace.KindShardMigrate, nil, 0, format, args...)
}

// proposeRetry re-proposes a migration command displaced by a lease takeover:
// ErrLeaseLost's contract is that the command provably did not commit, so
// re-proposing cannot double-apply (and migration commands are additionally
// idempotent by epoch).
func proposeRetry(ctx context.Context, l *smr.Log, cmd []byte) (uint64, []byte, error) {
	for {
		index, resp, err := l.Propose(ctx, cmd)
		if err == nil || !errors.Is(err, ErrLeaseLost) {
			return index, resp, err
		}
	}
}

// Shard returns the name of the shard that currently serves key (mid-
// rebalance, a key whose range has completed its handoff already names its
// new owner).
func (s *Sharded) Shard(key string) string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	name, _ := s.ownerLocked(key)
	return name
}

// ShardLog returns the replicated log behind the named shard (for fault
// injection and inspection), or nil if no such shard exists.
func (s *Sharded) ShardLog(name string) *smr.Log {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.logs[name]
}

// Shards returns the shard names in stable order (the authoritative ring: a
// shard being added appears once its rebalance completes, one being removed
// disappears then).
func (s *Sharded) Shards() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ring.Shards()
}

// RingConfig returns the authoritative ring's geometry — the shard names in
// stable order plus the virtual-node count per shard. A ring of identical
// routing built elsewhere from exactly these two values (NewRing) is how a
// remote client mirrors the router without sharing its memory.
func (s *Sharded) RingConfig() (shards []string, vnodes int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ring.Shards(), s.ring.VirtualNodes()
}

// Stats aggregates the per-shard counters (see ShardedStats): recovery,
// takeover and read counters are summed across shards; Epoch is the MAXIMUM
// shard epoch (the most-failed-over group) and PipelineDepth the MINIMUM
// adaptive depth over LIVE groups — a closed or removed group reports 0 and
// is skipped, so it cannot masquerade as the most-backed-off one.
func (s *Sharded) Stats() ShardedStats {
	s.mu.RLock()
	logs := make([]*smr.Log, 0, len(s.logs))
	for _, l := range s.logs {
		logs = append(logs, l)
	}
	// Shards is the authoritative ring's size, matching Shards(): a group
	// mid-join (or parked by an interrupted AddShard) is not a member yet,
	// even though its log already exists for the handoff.
	shards := s.ring.Size()
	s.mu.RUnlock()

	total := ShardedStats{
		Shards:     shards,
		Rebalances: s.rebalances.Load(),
		Migrated:   s.migrated.Load(),
		Forwarded:  s.forwarded.Load(),
	}
	for _, l := range logs {
		stats := l.Stats()
		total.Recovered += stats.Recovered
		total.Refused += stats.Refused
		total.Takeovers += stats.Takeovers
		total.LeaseReads += stats.LeaseReads
		total.BarrierReads += stats.BarrierReads
		total.PipelineBackoffs += stats.PipelineBackoffs
		if stats.Epoch > total.Epoch {
			total.Epoch = stats.Epoch
		}
		if stats.PipelineDepth > 0 && (total.PipelineDepth == 0 || stats.PipelineDepth < total.PipelineDepth) {
			total.PipelineDepth = stats.PipelineDepth
		}
	}
	return total
}

// Metrics snapshots the deployment-wide slot-lifecycle instrumentation:
// every shard group records into one shared registry, so the counters,
// per-stage latency histograms and queue gauges here aggregate all groups —
// including any added or removed by rebalances — with no merge step. Safe to
// call from any goroutine mid-workload; see Log.Metrics for the stage
// semantics.
func (s *Sharded) Metrics() LogMetrics { return smr.MetricsFrom(s.metrics) }

// Registry returns the shared metrics registry behind Metrics, for text
// exposition (WriteText) and expvar publication.
func (s *Sharded) Registry() *MetricsRegistry { return s.metrics }

// Len returns the total number of committed commands across all shards
// (migration commands included: they are log entries like any other).
func (s *Sharded) Len() uint64 {
	s.mu.RLock()
	logs := make([]*smr.Log, 0, len(s.logs))
	for _, l := range s.logs {
		logs = append(logs, l)
	}
	s.mu.RUnlock()
	var total uint64
	for _, l := range logs {
		total += l.Len()
	}
	return total
}

// Close shuts every shard's log down. Like Log.Close it is idempotent.
func (s *Sharded) Close() {
	s.mu.Lock()
	s.closed = true
	logs := make([]*smr.Log, 0, len(s.logs))
	for _, l := range s.logs {
		logs = append(logs, l)
	}
	s.mu.Unlock()

	var wg sync.WaitGroup
	for _, l := range logs {
		wg.Add(1)
		go func(l *smr.Log) {
			defer wg.Done()
			l.Close()
		}(l)
	}
	wg.Wait()
}
