package chdev

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func TestHeaderRoundTrip(t *testing.T) {
	h := Header{
		Type:      PktCTS,
		Flags:     FlagCredit | FlagStarved,
		Src:       5,
		Tag:       -7, // negative tags (wildcards never hit the wire, but sign must survive)
		Len:       123456,
		Piggyback: 42,
		MRID:      9,
		MROffset:  4096,
		Seq:       1<<31 + 77,
		RingHead:  3,
	}
	var b [HeaderSize]byte
	h.Encode(b[:])
	got := DecodeHeader(b[:])
	if got != h {
		t.Errorf("round trip\n got %+v\nwant %+v", got, h)
	}
}

func TestPacketTypeStringsAndControl(t *testing.T) {
	cases := []struct {
		ty   PktType
		want string
	}{
		{PktEager, "EAGER"},
		{PktRTS, "RTS"},
		{PktCTS, "CTS"},
		{PktFin, "FIN"},
		{PktCredit, "CREDIT"},
	}
	for _, tc := range cases {
		ty, want := tc.ty, tc.want
		if ty.String() != want {
			t.Errorf("%d.String() = %q", ty, ty.String())
		}
		if ty == PktEager && ty.Control() {
			t.Error("eager data is not a control message")
		}
		if ty != PktEager && !ty.Control() {
			t.Errorf("%v should be control", ty)
		}
	}
	const reserved = PktType(6) // retired wire value, see packet.go
	for ty := PktEager; ty < pktEnd; ty++ {
		named := !strings.HasPrefix(ty.String(), "PktType(")
		if want := ty != reserved; named != want {
			t.Errorf("packet type %d: String() = %q, named = %v, want %v", ty, ty.String(), named, want)
		}
	}
}

func TestPropertyHeaderRoundTrip(t *testing.T) {
	prop := func(ty, flags uint8, src, tag int32, ln, piggy, mrid, off, seq, head uint32) bool {
		h := Header{
			Type:      PktType(ty),
			Flags:     flags,
			Src:       src,
			Tag:       tag,
			Len:       ln,
			Piggyback: piggy,
			MRID:      mrid,
			MROffset:  off,
			Seq:       seq,
			RingHead:  head,
		}
		var b [HeaderSize]byte
		h.Encode(b[:])
		return DecodeHeader(b[:]) == h
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestConfigThresholdAndCopy(t *testing.T) {
	if bufSize != 2048 || eagerThreshold != bufSize-HeaderSize {
		t.Errorf("buffer %d B, eager threshold %d B: want the paper's 2 KB buffer behind the header", bufSize, eagerThreshold)
	}
	if copyTime(0) != 0 || copyTime(-1) != 0 {
		t.Error("zero/negative copy must be free")
	}
	if copyTime(1<<20) <= copyTime(1<<10) {
		t.Error("copy time must grow")
	}
}

// FuzzHeader checks the codec against a naive reference: a decoder that
// assembles each field byte by byte from its offset and reads nothing of
// the reserved bytes 32-43. For any 48 bytes, DecodeHeader agrees with
// the reference, and Encode, into a buffer of stale bytes, gives the same
// bytes back with the reserved ones zeroed; the reference decodes every
// possible header, so DecodeHeader(Encode(h)) == h for any header too.
// The two stamps the device makes in place on an encoded packet, the
// piggyback at 16 and the ring head at 44 (stampPiggyback, stampRingHead,
// which Encode uses too), change their field and no other, and packetSeq
// reads Seq. A shorter input is zero-padded. The seed corpus has a header
// of every packet type and of the reserved wire value 6.
func FuzzHeader(f *testing.F) {
	f.Add(make([]byte, HeaderSize))
	f.Fuzz(func(t *testing.T, in []byte) {
		b := make([]byte, HeaderSize)
		copy(b, in)
		le := func(off, n int) uint64 {
			var v uint64
			for i := n - 1; i >= 0; i-- {
				v = v<<8 | uint64(b[off+i])
			}
			return v
		}
		want := Header{
			Type:      PktType(b[0]),
			Flags:     b[1],
			Comm:      uint16(le(2, 2)),
			Src:       int32(le(4, 4)),
			Tag:       int32(le(8, 4)),
			Len:       uint32(le(12, 4)),
			Piggyback: uint32(le(16, 4)),
			MRID:      uint32(le(20, 4)),
			MROffset:  uint32(le(24, 4)),
			Seq:       uint32(le(28, 4)),
			RingHead:  uint32(le(44, 4)),
		}
		h := DecodeHeader(b)
		if h != want {
			t.Fatalf("DecodeHeader(% x)\n got %+v\nwant %+v", b, h, want)
		}
		out := bytes.Repeat([]byte{0xa5}, HeaderSize)
		want.Encode(out)
		wire := bytes.Clone(b)
		clear(wire[32:44])
		if !bytes.Equal(out, wire) {
			t.Fatalf("Encode(%+v)\n got % x\nwant % x", want, out, wire)
		}
		if got := packetSeq(out); got != want.Seq {
			t.Fatalf("packetSeq(% x) = %d, want %d", out, got, want.Seq)
		}
		if got := DecodeHeader(out); got != want {
			t.Fatalf("DecodeHeader(Encode(h))\n got %+v\nwant %+v", got, want)
		}
		stampPiggyback(out, ^want.Piggyback)
		stampRingHead(out, ^want.RingHead)
		want.Piggyback, want.RingHead = ^want.Piggyback, ^want.RingHead
		if got := DecodeHeader(out); got != want {
			t.Fatalf("DecodeHeader after both stamps\n got %+v\nwant %+v", got, want)
		}
	})
}
