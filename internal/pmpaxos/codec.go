package pmpaxos

import (
	"encoding/binary"

	"rdmaagreement/internal/types"
)

// Fixed-layout binary encodings of the protocol's two wire artifacts: the
// slot register a process writes into each memory, and the payload of a
// decide broadcast. Both start with a one-byte tag that doubles as a format
// version, so a future durability layer can evolve them; a value with the
// wrong tag or too few bytes decodes as "nothing there", never as a panic.
//
// Register layout (big-endian):
//
//	[0]      registerTag
//	[1:9]    MinProposal.Round
//	[9:13]   MinProposal.Proposer
//	[13:21]  AccProposal.Round
//	[21:25]  AccProposal.Proposer
//	[25:]    Value (empty: ⊥)
//
// Decide layout (big-endian):
//
//	[0]      decideTag
//	[1:9]    slot index
//	[9:]     decided value
const (
	registerTag    byte = 0xA1
	decideTag      byte = 0xD1
	registerHeader      = 25
	decideHeader        = 9
)

// slot is the content of slot[i, p]: the register process p owns in the
// region of consensus instance i on every memory.
type slot struct {
	MinProposal types.ProposalNumber
	AccProposal types.ProposalNumber
	Value       types.Value
}

// appendSlot appends the register encoding of s to dst.
//
//smrlint:noalloc
func appendSlot(dst []byte, s slot) []byte {
	dst = append(dst, registerTag)
	dst = appendProposal(dst, s.MinProposal)
	dst = appendProposal(dst, s.AccProposal)
	return append(dst, s.Value...)
}

//smrlint:noalloc
func appendProposal(dst []byte, n types.ProposalNumber) []byte {
	dst = binary.BigEndian.AppendUint64(dst, n.Round)
	return binary.BigEndian.AppendUint32(dst, uint32(n.Proposer))
}

// encode returns the register encoding of s in one right-sized allocation:
// the memory retains what it is handed, so the buffer is never pooled.
//
//smrlint:noalloc
func (s slot) encode() types.Value {
	return appendSlot(make([]byte, 0, registerHeader+len(s.Value)), s)
}

// decodeSlot decodes a register. A never-written register (⊥), a wrong tag
// or a short value reports false. The decoded Value aliases raw.
//
//smrlint:noalloc
func decodeSlot(raw types.Value) (slot, bool) {
	if len(raw) < registerHeader || raw[0] != registerTag {
		return slot{}, false
	}
	s := slot{
		MinProposal: decodeProposal(raw[1:13]),
		AccProposal: decodeProposal(raw[13:25]),
	}
	if len(raw) > registerHeader {
		s.Value = raw[registerHeader:]
	}
	return s, true
}

//smrlint:noalloc
func decodeProposal(b []byte) types.ProposalNumber {
	return types.ProposalNumber{
		Round:    binary.BigEndian.Uint64(b[:8]),
		Proposer: types.ProcID(binary.BigEndian.Uint32(b[8:12])),
	}
}

// encodeDecide builds the payload of a decide broadcast for slot.
//
//smrlint:noalloc
func encodeDecide(slot uint64, v types.Value) []byte {
	dst := make([]byte, 0, decideHeader+len(v))
	dst = append(dst, decideTag)
	dst = binary.BigEndian.AppendUint64(dst, slot)
	return append(dst, v...)
}

// decodeDecide splits a decide payload into its slot index and value. A
// malformed payload reports false: it names no slot and is dropped. The value
// aliases payload.
//
//smrlint:noalloc
func decodeDecide(payload []byte) (uint64, types.Value, bool) {
	if len(payload) < decideHeader || payload[0] != decideTag {
		return 0, nil, false
	}
	return binary.BigEndian.Uint64(payload[1:decideHeader]), payload[decideHeader:], true
}
