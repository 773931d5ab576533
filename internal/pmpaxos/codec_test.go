package pmpaxos

import (
	"bytes"
	"testing"

	"rdmaagreement/internal/types"
)

// FuzzDecodeSlot feeds arbitrary bytes to the register and decide-payload
// decoders, which read what other processes wrote: they must never panic,
// malformed input must decode as "no slot", and whatever decodes must
// re-encode to the identical bytes (every layout is canonical). The
// structured arguments check the round trip from the encoding side.
func FuzzDecodeSlot(f *testing.F) {
	f.Add([]byte(nil), uint64(0), uint64(0), uint32(0), []byte(nil))
	f.Add([]byte("garbage"), uint64(3), uint64(2), uint32(1), []byte("v"))
	f.Add([]byte(slot{MinProposal: types.ProposalNumber{Round: 9, Proposer: 2}}.encode()), uint64(1), uint64(9), uint32(2), []byte{})
	f.Add(encodeDecide(7, types.Value("batch")), uint64(1<<40), uint64(1<<63), uint32(1<<31), []byte("batch"))
	f.Add([]byte{decideTag, 0, 0}, uint64(0), uint64(1), uint32(3), []byte{0})
	f.Fuzz(func(t *testing.T, data []byte, slotIdx, round uint64, proposer uint32, value []byte) {
		if s, ok := decodeSlot(data); ok {
			if re := s.encode(); !bytes.Equal(re, data) {
				t.Fatalf("register %x decoded to %+v, re-encoded to %x", data, s, re)
			}
		} else if len(data) >= registerHeader && data[0] == registerTag {
			t.Fatalf("well-formed register %x rejected", data)
		}
		if idx, v, ok := decodeDecide(data); ok {
			if re := encodeDecide(idx, v); !bytes.Equal(re, data) {
				t.Fatalf("decide %x decoded to (%d, %x), re-encoded to %x", data, idx, v, re)
			}
		} else if len(data) >= decideHeader && data[0] == decideTag {
			t.Fatalf("well-formed decide %x rejected", data)
		}

		want := slot{
			MinProposal: types.ProposalNumber{Round: round, Proposer: types.ProcID(proposer)},
			AccProposal: types.ProposalNumber{Round: round / 2, Proposer: types.ProcID(proposer / 2)},
			Value:       value,
		}
		got, ok := decodeSlot(want.encode())
		if !ok || !got.MinProposal.Equal(want.MinProposal) || !got.AccProposal.Equal(want.AccProposal) || !got.Value.Equal(want.Value) {
			t.Fatalf("register round trip: %+v → %+v (ok=%v)", want, got, ok)
		}
		idx, v, ok := decodeDecide(encodeDecide(slotIdx, value))
		if !ok || idx != slotIdx || !v.Equal(value) {
			t.Fatalf("decide round trip: (%d, %x) → (%d, %x) ok=%v", slotIdx, value, idx, v, ok)
		}
	})
}
