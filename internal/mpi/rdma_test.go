package mpi

import (
	"fmt"
	"testing"

	"ibflow/internal/core"
	"ibflow/internal/sim"
)

// The RDMA-write eager channel as an MPI program sees it, at the
// 2048-byte slot size the ICS'03 extension table uses. The ring's own
// edge cases (wraparound and slot reuse under a flood, backpressure, head
// sync, the rendezvous read) live in ring_test.go.

func TestRDMAChannelPingPong(t *testing.T) {
	for _, slots := range []int{10, 2, 1} {
		t.Run(fmt.Sprintf("slots=%d", slots), func(t *testing.T) {
			runRing(t, 2, slots, 2048, func(c *Comm) {
				buf := make([]byte, 16)
				for i := 0; i < 20; i++ {
					if c.Rank() == 0 {
						c.Send(1, i, []byte(fmt.Sprintf("msg-%02d", i)))
						c.Recv(1, i, buf)
					} else {
						st := c.Recv(0, i, buf)
						if string(buf[:st.Len]) != fmt.Sprintf("msg-%02d", i) {
							c.Abort("payload corrupted on RDMA channel")
						}
						c.Send(0, i, buf[:st.Len])
					}
				}
			})
		})
	}
}

func TestRDMAChannelIsFasterForSmallMessages(t *testing.T) {
	lat := func(fc core.Params) sim.Time {
		w := NewWorld(2, DefaultOptions(fc))
		if err := w.Run(func(c *Comm) {
			buf := make([]byte, 4)
			for i := 0; i < 50; i++ {
				if c.Rank() == 0 {
					c.Send(1, 0, buf)
					c.Recv(1, 0, buf)
				} else {
					c.Recv(0, 0, buf)
					c.Send(0, 0, buf)
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
		return w.Time()
	}
	sendrecv, rdma := lat(core.Static(100)), lat(core.RDMA(100, 2048))
	if rdma >= sendrecv {
		t.Errorf("RDMA channel latency %v not below send/recv %v", rdma, sendrecv)
	}
	// The paper's companion design reports ~0.7us better; accept a band.
	gain := (sendrecv - rdma).Micros() / (2 * 50)
	if gain < 0.3 || gain > 1.5 {
		t.Errorf("per-message one-way gain = %.2f us, want 0.3-1.5", gain)
	}
}

func TestRDMAChannelMixedTraffic(t *testing.T) {
	big := make([]byte, 48*1024)
	runRing(t, 4, 2, 2048, func(c *Comm) {
		if c.Rank() == 0 {
			for i := 0; i < 12; i++ {
				dst := 1 + i%3
				if i%3 == 0 {
					big[0] = byte(i)
					c.Send(dst, 1, big)
				} else {
					c.Send(dst, 1, []byte{byte(i)})
				}
			}
		} else {
			buf := make([]byte, len(big))
			for i := c.Rank() - 1; i < 12; i += 3 {
				st := c.Recv(0, 1, buf)
				if buf[0] != byte(i) {
					c.Abort(fmt.Sprintf("mixed traffic mismatch at %d (len %d)", i, st.Len))
				}
			}
		}
	})
}
