package chdev

import (
	"fmt"
	"testing"

	"ibflow/internal/core"
	"ibflow/internal/ib"
	"ibflow/internal/sim"
)

// BenchmarkProgressPass times one ProgressOnce on a device with n idle
// established connections — the channel device's own per-call cost,
// which every Send pays first.
func BenchmarkProgressPass(b *testing.B) {
	for _, n := range []int{1, 48, 1024} {
		b.Run(fmt.Sprintf("conns=%d", n), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.OnDemand = true
			eng := sim.NewEngine()
			f := ib.NewFabric(eng, ib.DefaultConfig(), n+1)
			devs := make([]*Device, n+1)
			for i := range devs {
				devs[i] = New(eng, f.HCA(i), cfg, core.Static(8), i, n+1, &fakeHandler{})
			}
			Wire(devs)
			for _, d := range devs[1:] {
				establish(devs[0], d)
			}
			eng.Go("rank0", func(p *sim.Proc) {
				b.ResetTimer()
				for range b.N {
					devs[0].ProgressOnce(p)
				}
				b.StopTimer()
			})
			if err := eng.Run(sim.MaxTime); err != nil {
				b.Fatal(err)
			}
		})
	}
}
