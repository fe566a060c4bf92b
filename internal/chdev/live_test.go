package chdev

import (
	"fmt"
	"testing"

	"ibflow/internal/core"
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
			devs := wiredWorld(n+1, cfg, core.Static(8))
			for _, d := range devs[1:] {
				establish(devs[0], d)
			}
			eng := devs[0].eng
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

// BenchmarkEstablish times establishing one rank pair — both endpoint
// sets' QPs, VCs and landing regions, their places in the live lists and
// their share of the world's end slab — so an op is a pair, at 1 and 4
// endpoints per set. Pairs are taken in order from on-demand worlds of
// establishRanks ranks, each built outside the timer and used up before
// the next.
func BenchmarkEstablish(b *testing.B) {
	const establishRanks = 32
	for _, params := range []core.Params{core.Static(8), core.RDMA(8, 1024)} {
		for _, eps := range []int{1, 4} {
			b.Run(fmt.Sprintf("%v/eps=%d", params.Kind, eps), func(b *testing.B) {
				cfg := DefaultConfig()
				cfg.OnDemand = true
				cfg.Endpoints = eps
				b.ReportAllocs()
				var devs []*Device
				i, j := establishRanks-1, 0 // the next pair; i at the last rank: the world is used up
				for range b.N {
					if i == establishRanks-1 {
						b.StopTimer()
						devs = wiredWorld(establishRanks, cfg, params)
						i, j = 0, 1
						b.StartTimer()
					}
					establish(devs[i], devs[j])
					if j++; j == establishRanks {
						i++
						j = i + 1
					}
				}
			})
		}
	}
}
