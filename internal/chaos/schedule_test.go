package chaos

import (
	"strings"
	"testing"
	"time"
)

// TestScheduleReplayByteIdentical is the repro contract: the schedule is a
// pure function of the Config, so replaying a seed reproduces the fault plan
// byte for byte. This is what makes "go run ./cmd/agreementchaos -seed N" a
// complete one-line repro.
func TestScheduleReplayByteIdentical(t *testing.T) {
	cfg := Config{Seed: 7, Window: 2500 * time.Millisecond, Events: 6}
	first := Build(cfg).String()
	for i := 0; i < 3; i++ {
		if again := Build(cfg).String(); again != first {
			t.Fatalf("replay %d diverged:\n%s\nvs\n%s", i, first, again)
		}
	}
	// The exact text is part of the contract too: a committed failing seed
	// must replay the same plan on every machine and every run.
	want := strings.Join([]string{
		"schedule seed=7 window=2.5s events=6",
		"  03 t=+605ms   memcrash  shard=shard-0 n=1 dur=347ms",
		"  04 t=+689ms   jitter    shard=shard-0 n=7106 dur=507ms",
		"  05 t=+1.05s   transfer  shard=shard-1",
		"  01 t=+1.338s  jitter    shard=shard-0 n=6952 dur=719ms",
		"  02 t=+1.498s  stall     shard=shard-0 dur=432ms",
		"  00 t=+1.724s  stall     shard=shard-1 dur=692ms",
		"",
	}, "\n")
	if first != want {
		t.Fatalf("seed 7 schedule drifted from the committed plan:\n%s\nwant:\n%s", first, want)
	}
}

func TestScheduleSeedsDiffer(t *testing.T) {
	a := Build(Config{Seed: 1}).String()
	b := Build(Config{Seed: 2}).String()
	if a == b {
		t.Fatalf("different seeds built identical schedules:\n%s", a)
	}
}

func TestScheduleRespectsFaultFilter(t *testing.T) {
	s := Build(Config{Seed: 9, Events: 12, Faults: []string{KindJitter, KindTransfer}})
	for _, e := range s.Events {
		if e.Kind != KindJitter && e.Kind != KindTransfer {
			t.Fatalf("event %s escaped the fault filter", e)
		}
	}
}

func TestScheduleStallNeedsLease(t *testing.T) {
	s := Build(Config{Seed: 3, Events: 16, Lease: -1, Faults: []string{KindStall, KindMemCrash}})
	for _, e := range s.Events {
		if e.Kind == KindStall {
			t.Fatalf("stall scheduled without leases: %s", e)
		}
	}
}

func TestScheduleEventsInsideWindow(t *testing.T) {
	s := Build(Config{Seed: 5, Events: 32, Window: 4 * time.Second})
	for _, e := range s.Events {
		if e.At <= 0 || e.At+e.Dur >= s.Window {
			t.Fatalf("event escapes the window (audit would race the fault): %s", e)
		}
	}
}

func TestReproLineRoundTrips(t *testing.T) {
	cfg := Config{Seed: 1234, Served: true}
	line := cfg.ReproLine()
	if !strings.Contains(line, "-seed 1234") || !strings.Contains(line, "-net") {
		t.Fatalf("repro line incomplete: %s", line)
	}
	cfg = Config{Seed: 29, SnapshotInterval: 8, PutPercent: 90, Faults: []string{KindMemCrash, KindStall}}
	line = cfg.ReproLine()
	if !strings.Contains(line, "-snap-interval 8") || !strings.Contains(line, "-faults memcrash,stall") || !strings.Contains(line, "-put-percent 90") {
		t.Fatalf("repro line drops the snapshot interval, fault mix or write share: %s", line)
	}
}
