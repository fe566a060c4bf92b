package bench

import (
	"fmt"

	"ibflow/internal/core"
	"ibflow/internal/mpi"
	"ibflow/internal/sim"
)

// ExtensionRDMAChannel compares the send/receive-based eager channel (the
// paper's baseline implementation) against the RDMA-write-based channel
// of the authors' companion ICS'03 design, which the paper's §7 says its
// results carry over to. The RDMA row is the ring scheme (core.RDMA):
// its geometry is fixed, so where the send/recv row's dynamic cells grow
// at run time the ring is given its slots up front — the whole window
// for the bandwidth cell, 8 for LU.
func ExtensionRDMAChannel(o Opts) Table {
	t := Table{
		Title:   "Extension: send/recv vs RDMA-based eager channel",
		Columns: []string{"channel", "lat 4B (us)", "bw 4B w=64 (MB/s)", "LU time (s)", "LU max posted"},
		Note:    "the companion ICS'03 design reports ~0.7us lower small-message latency",
	}
	const slotBytes = 2048
	for _, row := range []struct {
		name        string
		lat, bw, lu core.Params
	}{
		{"send/recv", core.Static(100), core.Dynamic(10, dynMax), core.Dynamic(1, dynMax)},
		{"rdma-write", core.RDMA(100, slotBytes), core.RDMA(64, slotBytes), core.RDMA(8, slotBytes)},
	} {
		lat := LatencyOpts(row.lat, 4, o.latIters(), o.Tune)
		bw := BandwidthOpts(row.bw, 4, 64, o.bwReps(), false, o.Tune)
		res, err := RunNASOpts("LU", o.class(), 8, row.lu, o.Tune)
		if err != nil {
			panic(err)
		}
		t.AddRow(row.name, f2(lat), f1(bw), fmt.Sprintf("%.3f", res.Time.Seconds()),
			fmt.Sprint(res.MaxPosted))
	}
	return t
}

// BandwidthOpts is Bandwidth with an options hook.
func BandwidthOpts(fc core.Params, size, window, reps int, blocking bool,
	tune func(*mpi.Options)) float64 {
	const warmup = 6
	var start sim.Time
	opts := mpi.DefaultOptions(fc)
	if tune != nil {
		tune(&opts)
	}
	w := mpi.NewWorld(2, opts)
	const tag, ackTag = 1, 2
	err := w.Run(func(c *mpi.Comm) {
		ack := make([]byte, 4)
		if c.Rank() == 0 {
			data := make([]byte, size)
			for r := 0; r < warmup+reps; r++ {
				if r == warmup {
					start = c.Time()
				}
				if blocking {
					for i := 0; i < window; i++ {
						c.Send(1, tag, data)
					}
				} else {
					reqs := make([]*mpi.Request, window)
					for i := 0; i < window; i++ {
						reqs[i] = c.Isend(1, tag, data)
					}
					c.Waitall(reqs...)
				}
				c.Recv(1, ackTag, ack)
			}
		} else {
			buf := make([]byte, size)
			bufs := make([][]byte, window)
			for i := range bufs {
				bufs[i] = make([]byte, size)
			}
			for r := 0; r < warmup+reps; r++ {
				if blocking {
					for i := 0; i < window; i++ {
						c.Recv(0, tag, buf)
					}
				} else {
					reqs := make([]*mpi.Request, window)
					for i := 0; i < window; i++ {
						reqs[i] = c.Irecv(0, tag, bufs[i])
					}
					c.Waitall(reqs...)
				}
				c.Send(0, ackTag, ack)
			}
		}
	})
	if err != nil {
		panic(fmt.Sprintf("bench: tuned bandwidth run failed: %v", err))
	}
	bytes := float64(size) * float64(window) * float64(reps)
	elapsed := w.Time() - start
	return bytes / elapsed.Seconds() / 1e6
}
