// Adaptive: a bursty producer/consumer workload that shows why the
// user-level dynamic scheme exists. A fast producer fires irregular
// bursts of small messages at a slow consumer; with one pre-posted
// buffer the hardware scheme drowns in RNR retries, the static scheme
// crawls through demoted handshakes, and the dynamic scheme measures the
// burst and provisions for it. Like the paper's, the dynamic scheme only
// grows: the buffers a burst earned stay posted after the bursts stop.
package main

import (
	"fmt"

	"ibflow"
)

const (
	bursts    = 12
	burstLen  = 48
	msgSize   = 256
	thinkTime = 150 // microseconds between bursts
)

func run(name string, scheme ibflow.Scheme) {
	cluster := ibflow.NewCluster(2, scheme)
	err := cluster.Run(func(c *ibflow.Comm) {
		if c.Rank() == 0 {
			for b := 0; b < bursts; b++ {
				var reqs []*ibflow.Request
				data := make([]byte, msgSize)
				for i := 0; i < burstLen; i++ {
					reqs = append(reqs, c.Isend(1, b, data))
				}
				c.Waitall(reqs...)
				c.Compute(thinkTime * 1000) // idle between bursts
			}
		} else {
			buf := make([]byte, msgSize)
			for b := 0; b < bursts; b++ {
				// The consumer is slow: it computes while the
				// burst piles up.
				c.Compute(80 * 1000)
				for i := 0; i < burstLen; i++ {
					c.Recv(0, b, buf)
					c.Compute(2 * 1000) // per-item processing
				}
			}
		}
	})
	if err != nil {
		panic(err)
	}
	st := cluster.Stats()
	fmt.Printf("%-16s time=%8v  RNR=%-5d retx=%-5d demoted=%-4d maxPosted=%-3d finalPosted=%-3d\n",
		name, cluster.Time(), st.RNRNaks, st.Retransmits, st.Demoted, st.MaxPosted, st.SumPosted)
}

func main() {
	fmt.Printf("bursty producer/consumer: %d bursts x %d msgs x %dB, pre-post 1\n",
		bursts, burstLen, msgSize)
	run("hardware", ibflow.Hardware(1))
	run("static", ibflow.Static(1))
	run("dynamic", ibflow.Dynamic(1, 128))
}
