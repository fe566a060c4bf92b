package chdev

import (
	"encoding/binary"
	"fmt"
)

// PktType identifies the channel-device packets of the paper's protocols.
type PktType uint8

const (
	// PktEager carries a complete small message (Eager Data).
	PktEager PktType = iota + 1
	// PktRTS starts a rendezvous (Rendezvous Start).
	PktRTS
	// PktCTS is the rendezvous reply carrying the destination rkey.
	PktCTS
	// PktFin completes a rendezvous after the RDMA write.
	PktFin
	// PktCredit is an explicit credit message (ECM).
	PktCredit
	// Wire value 6 (the retired slot-announce packet) stays reserved:
	// renumbering PktRingSync would shift the Recv trace argument.
	_
	// PktRingSync carries the ring scheme's receiver head pointer when
	// the reverse path has been idle too long for piggybacking — the
	// ring channel's analogue of an ECM.
	PktRingSync
	pktEnd // one past the last packet type; the name test loops up to it
)

func (t PktType) String() string {
	switch t {
	case PktEager:
		return "EAGER"
	case PktRTS:
		return "RTS"
	case PktCTS:
		return "CTS"
	case PktFin:
		return "FIN"
	case PktCredit:
		return "CREDIT"
	case PktRingSync:
		return "RING_SYNC"
	}
	return fmt.Sprintf("PktType(%d)", uint8(t))
}

// Control reports whether the packet is a control message, which the
// optimistic deadlock-avoidance scheme sends without consuming credits.
func (t PktType) Control() bool { return t != PktEager }

// Header flag bits.
const (
	// FlagCredit marks a message that consumed a user-level credit; the
	// receiver owes a credit back when its buffer is re-posted.
	FlagCredit uint8 = 1 << iota
	// FlagStarved marks a message that was starved of credits at the
	// sender (demoted to rendezvous or delayed in the backlog) — the
	// feedback the dynamic scheme grows on.
	FlagStarved
)

// HeaderSize is the fixed wire header length in bytes.
const HeaderSize = 48

// Header is the channel-device packet header. It rides at the front of a
// pre-pinned buffer; every field is encoded little-endian.
type Header struct {
	Type      PktType
	Flags     uint8
	Comm      uint16 // communicator context id (eager and RTS)
	Src       int32  // sender rank
	Tag       int32  // MPI tag (eager and RTS)
	Len       uint32 // payload bytes (eager: in this packet; RTS: total)
	Piggyback uint32 // credits returned to the receiver of this packet
	MRID      uint32 // CTS: destination region id (simulated rkey)
	MROffset  uint32 // CTS: destination offset
	ReqID     uint64 // RTS: sender request; CTS: echo; FIN: receiver request
	PeerReqID uint64 // CTS: receiver request id for the later FIN
	RingHead  uint32 // ring scheme: receiver's absolute head pointer
}

// Encode writes the header into b[:HeaderSize].
func (h *Header) Encode(b []byte) {
	_ = b[HeaderSize-1]
	b[0] = byte(h.Type)
	b[1] = h.Flags
	binary.LittleEndian.PutUint16(b[2:], h.Comm)
	binary.LittleEndian.PutUint32(b[4:], uint32(h.Src))
	binary.LittleEndian.PutUint32(b[8:], uint32(h.Tag))
	binary.LittleEndian.PutUint32(b[12:], h.Len)
	stampPiggyback(b, h.Piggyback)
	binary.LittleEndian.PutUint32(b[20:], h.MRID)
	binary.LittleEndian.PutUint32(b[24:], h.MROffset)
	binary.LittleEndian.PutUint64(b[28:], h.ReqID)
	binary.LittleEndian.PutUint64(b[36:], h.PeerReqID)
	stampRingHead(b, h.RingHead)
}

// stampPiggyback overwrites the credits an encoded packet in b returns:
// a backlogged packet takes its piggyback when it drains.
func stampPiggyback(b []byte, credits uint32) { binary.LittleEndian.PutUint32(b[16:], credits) }

// stampRingHead overwrites the ring head an encoded packet in b carries:
// every packet takes the freshest head as it is posted.
func stampRingHead(b []byte, head uint32) { binary.LittleEndian.PutUint32(b[44:], head) }

// DecodeHeader reads a header from b[:HeaderSize].
func DecodeHeader(b []byte) Header {
	_ = b[HeaderSize-1]
	return Header{
		Type:      PktType(b[0]),
		Flags:     b[1],
		Comm:      binary.LittleEndian.Uint16(b[2:]),
		Src:       int32(binary.LittleEndian.Uint32(b[4:])),
		Tag:       int32(binary.LittleEndian.Uint32(b[8:])),
		Len:       binary.LittleEndian.Uint32(b[12:]),
		Piggyback: binary.LittleEndian.Uint32(b[16:]),
		MRID:      binary.LittleEndian.Uint32(b[20:]),
		MROffset:  binary.LittleEndian.Uint32(b[24:]),
		ReqID:     binary.LittleEndian.Uint64(b[28:]),
		PeerReqID: binary.LittleEndian.Uint64(b[36:]),
		RingHead:  binary.LittleEndian.Uint32(b[44:]),
	}
}
