package chdev

import (
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
		ReqID:     1 << 40,
		PeerReqID: 77,
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
	prop := func(ty, flags uint8, src, tag int32, ln, piggy, mrid, off uint32, req, peer uint64) bool {
		h := Header{
			Type:      PktType(ty),
			Flags:     flags,
			Src:       src,
			Tag:       tag,
			Len:       ln,
			Piggyback: piggy,
			MRID:      mrid,
			MROffset:  off,
			ReqID:     req,
			PeerReqID: peer,
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
	cfg := DefaultConfig()
	if cfg.EagerThreshold() != cfg.BufSize-HeaderSize {
		t.Errorf("eager threshold = %d", cfg.EagerThreshold())
	}
	if cfg.CopyTime(0) != 0 || cfg.CopyTime(-1) != 0 {
		t.Error("zero/negative copy must be free")
	}
	if cfg.CopyTime(1<<20) <= cfg.CopyTime(1<<10) {
		t.Error("copy time must grow")
	}
}
