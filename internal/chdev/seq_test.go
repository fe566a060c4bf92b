package chdev

import (
	"strings"
	"testing"

	"ibflow/internal/core"
	"ibflow/internal/sim"
)

// The in-order law (debugCheckSeq): a data packet whose number skips one
// panics at the end it reaches, naming the rank, the peer, the endpoint
// and both numbers. The sender's first message is numbered 1 and
// arrives; then its end skips a number, so its next packet, eager or RTS,
// carries 3 where 2 is due.
func TestSeqGapPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		size int
		want string
	}{
		{"eager", 8, "chdev: rank 1: peer 0 ep 0: EAGER numbered 3 arrived, want 2"},
		{"rts", 16 << 10, "chdev: rank 1: peer 0 ep 0: RTS numbered 3 arrived, want 2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Debug = true
			eng, d0, d1, _, h1 := devPair(t, cfg, core.Static(8))
			eng.Go("sender", func(p *sim.Proc) {
				d0.Send(p, 1, 0, 0, []byte("one"), nil, true)
				d0.epAt(1, 0).seqOut++
				d0.Send(p, 1, 0, 0, make([]byte, tc.size), nil, true)
				d0.WaitProgress(p, d0.Quiescent)
			})
			eng.Go("receiver", func(p *sim.Proc) {
				d1.WaitProgress(p, func() bool { return len(h1.eager)+h1.rndvDone == 2 })
			})
			msg := panicOf(func() { eng.Run(sim.MaxTime) })
			if !strings.Contains(msg, tc.want) {
				t.Errorf("a skipped number panicked with %q, want %q", msg, tc.want)
			}
			if len(h1.eager) != 1 {
				t.Errorf("%d messages delivered before the gap, want the first", len(h1.eager))
			}
		})
	}
}
