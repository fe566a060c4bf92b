package chdev

import (
	"fmt"
	"testing"
	"unsafe"

	"ibflow/internal/core"
	"ibflow/internal/debug"
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

// The live list is the connection table whatever order the connections
// appear in. Every pair of an on-demand world is established in shuffled
// order, at two endpoints per set: after each establishment every
// device's list is in (peer, ep) order, eps finds exactly the sets
// established so far, and the table slabs are what the test replays — a
// list that outgrows its run takes one twice as long from the world's
// table slab, each new slab as large as all before it, 4 to 4 096
// entries. The whole sequence allocates nothing but the world's slabs of
// ends and of tables: a device's k-th establishment allocates no table
// of its own.
func TestLiveListFromShuffledEstablishment(t *testing.T) {
	const n, epN = 12, 2
	cfg := DefaultConfig()
	cfg.OnDemand = true
	cfg.Endpoints = epN
	world := func() []*Device { return wiredWorld(n, cfg, core.Static(2)) }
	var pairs [][2]int
	for i := range n {
		for j := i + 1; j < n; j++ {
			pairs = append(pairs, [2]int{i, j})
		}
	}
	rng := sim.NewRand(5)
	for k := len(pairs) - 1; k > 0; k-- {
		l := rng.Intn(k + 1)
		pairs[k], pairs[l] = pairs[l], pairs[k]
	}
	for k := range pairs {
		if rng.Intn(2) == 0 {
			pairs[k][0], pairs[k][1] = pairs[k][1], pairs[k][0] // either side initiates
		}
	}
	establishAll := func(devs []*Device) {
		for _, p := range pairs {
			establish(devs[p[0]], devs[p[1]])
		}
	}

	// The replayed table slab: entries made, entries left in the current
	// slab, each device's list length and capacity, and the slabs made.
	// add enters one entry into d's list.
	var made, left, slabs int
	lens, caps := make([]int, n), make([]int, n)
	add := func(d int) {
		if lens[d]++; lens[d] <= caps[d] {
			return
		}
		need := max(1, 2*caps[d])
		if left < need {
			per := max(need, min(max(4, made), 4096))
			made, left = made+per, per
			slabs++
		}
		left -= need
		caps[d] = need
	}

	devs := world()
	s := devs[0].ends
	connected := make([][]bool, n)
	for i := range connected {
		connected[i] = make([]bool, n)
	}
	for _, p := range pairs {
		a, b := p[0], p[1]
		for range epN { // establish enters each endpoint into a's list, then b's
			add(a)
			add(b)
		}
		establish(devs[a], devs[b])
		if s.made != made || len(s.runs) != left || cap(devs[a].live) != caps[a] || cap(devs[b].live) != caps[b] {
			t.Fatalf("establishing (%d, %d): table slabs made %d entries, %d left, lists of capacity %d and %d; want %d, %d, %d and %d",
				a, b, s.made, len(s.runs), cap(devs[a].live), cap(devs[b].live), made, left, caps[a], caps[b])
		}
		connected[a][b], connected[b][a] = true, true
		for _, d := range devs {
			for k := 1; k < len(d.live); k++ {
				x, y := d.live[k-1], d.live[k]
				if x.peer > y.peer || x.peer == y.peer && x.ep >= y.ep {
					t.Fatalf("rank %d: live[%d] is (%d, %d) after (%d, %d)", d.rank, k, y.peer, y.ep, x.peer, x.ep)
				}
			}
			for peer := range n {
				set := d.eps(peer)
				if !connected[d.rank][peer] {
					if set != nil {
						t.Fatalf("rank %d finds a set toward unconnected rank %d", d.rank, peer)
					}
					continue
				}
				for ep, c := range set {
					if c.peer != int32(peer) || c.ep != int32(ep) || c.qp.Owner() != c {
						t.Fatalf("rank %d: eps(%d)[%d] is (%d, %d)", d.rank, peer, ep, c.peer, c.ep)
					}
				}
			}
		}
	}
	for _, d := range devs {
		if len(d.live) != (n-1)*epN {
			t.Errorf("rank %d has %d endpoints, want %d", d.rank, len(d.live), (n-1)*epN)
		}
	}

	if debug.Enabled {
		return // an ibdebug build's assertions box their arguments
	}
	// The slabs of ends, by endSlab.take's law: whole pair-sets, as many
	// as fit endSlabBytes, the last one what is left.
	per := int(endSlabBytes/unsafe.Sizeof(conn{})) / (2 * epN) * (2 * epN)
	for rest := n * (n - 1) * epN; rest > 0; rest -= min(per, rest) {
		slabs++
	}
	built := testing.AllocsPerRun(5, func() { world() })
	wired := testing.AllocsPerRun(5, func() { establishAll(world()) })
	if got := wired - built; got != float64(slabs) {
		t.Errorf("establishing every pair allocated %v objects, want %d (the world's slabs of ends and tables)", got, slabs)
	}
}
