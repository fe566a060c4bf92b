package coll

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"ibflow/internal/core"
	"ibflow/internal/enc"
	"ibflow/internal/mpi"
)

// sizes to exercise: 1 rank, powers of two, and awkward sizes.
var worldSizes = []int{1, 2, 3, 4, 5, 7, 8}

func runN(t *testing.T, n int, main func(c *mpi.Comm)) {
	t.Helper()
	w := mpi.NewWorld(n, mpi.DefaultOptions(core.Dynamic(2, 100)))
	if err := w.Run(main); err != nil {
		t.Fatalf("n=%d: %v", n, err)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	for _, n := range worldSizes {
		n := n
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			runN(t, n, func(c *mpi.Comm) {
				// Rank 0 delays; nobody may pass the barrier
				// before it reaches it.
				if c.Rank() == 0 {
					c.Compute(500000) // 0.5 ms
				}
				before := c.Time()
				Barrier(c)
				if c.Rank() != 0 && c.Time() < 500000 {
					c.Abort(fmt.Sprintf("escaped barrier at %v (entered %v)", c.Time(), before))
				}
			})
		})
	}
}

func TestBcastFromEveryRoot(t *testing.T) {
	for _, n := range worldSizes {
		for root := 0; root < n; root++ {
			n, root := n, root
			t.Run(fmt.Sprintf("n%d-root%d", n, root), func(t *testing.T) {
				runN(t, n, func(c *mpi.Comm) {
					data := make([]byte, 100)
					if c.Rank() == root {
						for i := range data {
							data[i] = byte(i + root)
						}
					}
					Bcast(c, root, data)
					for i := range data {
						if data[i] != byte(i+root) {
							c.Abort("bcast corrupted")
						}
					}
				})
			})
		}
	}
}

func TestBcastLargeMessage(t *testing.T) {
	runN(t, 8, func(c *mpi.Comm) {
		data := make([]byte, 96*1024)
		if c.Rank() == 3 {
			for i := range data {
				data[i] = byte(i * 13)
			}
		}
		Bcast(c, 3, data)
		for i := range data {
			if data[i] != byte(i*13) {
				c.Abort("large bcast corrupted")
			}
		}
	})
}

func TestReduceSum(t *testing.T) {
	for _, n := range worldSizes {
		n := n
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			runN(t, n, func(c *mpi.Comm) {
				vals := []float64{float64(c.Rank()), 1, float64(c.Rank() * c.Rank())}
				buf := enc.F64Bytes(vals)
				Reduce(c, 0, buf, SumF64)
				if c.Rank() == 0 {
					got := enc.F64s(buf)
					wantSum := 0.0
					wantSq := 0.0
					for r := 0; r < n; r++ {
						wantSum += float64(r)
						wantSq += float64(r * r)
					}
					if got[0] != wantSum || got[1] != float64(n) || got[2] != wantSq {
						c.Abort(fmt.Sprintf("reduce got %v", got))
					}
				}
			})
		})
	}
}

func TestAllreduceEveryRankSeesResult(t *testing.T) {
	for _, n := range worldSizes {
		n := n
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			runN(t, n, func(c *mpi.Comm) {
				buf := enc.F64Bytes([]float64{float64(1 + c.Rank())})
				Allreduce(c, buf, SumF64)
				want := float64(n * (n + 1) / 2)
				if got := enc.F64s(buf)[0]; got != want {
					c.Abort(fmt.Sprintf("allreduce got %v want %v", got, want))
				}
			})
		})
	}
}

func TestAllreduceMax(t *testing.T) {
	runN(t, 5, func(c *mpi.Comm) {
		buf := enc.F64Bytes([]float64{float64(c.Rank() * 7 % 5)})
		Allreduce(c, buf, MaxF64)
		if got := enc.F64s(buf)[0]; got != 4 {
			c.Abort(fmt.Sprintf("max got %v", got))
		}
	})
}

func TestAlltoallPermutation(t *testing.T) {
	for _, n := range worldSizes {
		n := n
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			runN(t, n, func(c *mpi.Comm) {
				const block = 8
				send := make([]byte, n*block)
				recv := make([]byte, n*block)
				for j := 0; j < n; j++ {
					for b := 0; b < block; b++ {
						send[j*block+b] = byte(c.Rank()*n + j)
					}
				}
				Alltoall(c, send, recv, block)
				for i := 0; i < n; i++ {
					want := byte(i*n + c.Rank())
					for b := 0; b < block; b++ {
						if recv[i*block+b] != want {
							c.Abort(fmt.Sprintf("block %d byte %d = %d want %d",
								i, b, recv[i*block+b], want))
						}
					}
				}
			})
		})
	}
}

func TestAlltoallvVariableBlocks(t *testing.T) {
	for _, n := range []int{2, 3, 4, 8} {
		n := n
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			runN(t, n, func(c *mpi.Comm) {
				me := c.Rank()
				// Rank i sends (i+j+1) bytes of value i*16+j to rank j.
				sc := make([]int, n)
				so := make([]int, n)
				rc := make([]int, n)
				ro := make([]int, n)
				total := 0
				for j := 0; j < n; j++ {
					sc[j] = me + j + 1
					so[j] = total
					total += sc[j]
				}
				send := make([]byte, total)
				for j := 0; j < n; j++ {
					for k := 0; k < sc[j]; k++ {
						send[so[j]+k] = byte(me*16 + j)
					}
				}
				rtotal := 0
				for i := 0; i < n; i++ {
					rc[i] = i + me + 1
					ro[i] = rtotal
					rtotal += rc[i]
				}
				recv := make([]byte, rtotal)
				Alltoallv(c, send, sc, so, recv, rc, ro)
				for i := 0; i < n; i++ {
					for k := 0; k < rc[i]; k++ {
						if recv[ro[i]+k] != byte(i*16+me) {
							c.Abort("alltoallv corrupted")
						}
					}
				}
			})
		})
	}
}

func TestAllgatherRing(t *testing.T) {
	for _, n := range worldSizes {
		n := n
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			runN(t, n, func(c *mpi.Comm) {
				const block = 16
				send := bytes.Repeat([]byte{byte(c.Rank() + 1)}, block)
				recv := make([]byte, n*block)
				Allgather(c, send, recv, block)
				for i := 0; i < n; i++ {
					for b := 0; b < block; b++ {
						if recv[i*block+b] != byte(i+1) {
							c.Abort("allgather corrupted")
						}
					}
				}
			})
		})
	}
}

func TestGatherScatterRoundTrip(t *testing.T) {
	runN(t, 6, func(c *mpi.Comm) {
		const block = 12
		n := c.Size()
		me := c.Rank()
		send := bytes.Repeat([]byte{byte(me * 3)}, block)
		var all []byte
		if me == 2 {
			all = make([]byte, n*block)
		}
		Gather(c, 2, send, all, block)
		if me == 2 {
			for i := 0; i < n; i++ {
				if all[i*block] != byte(i*3) {
					c.Abort("gather corrupted")
				}
			}
		}
		out := make([]byte, block)
		Scatter(c, 2, all, out, block)
		if out[0] != byte(me*3) {
			c.Abort("scatter corrupted")
		}
	})
}

func TestReduceScatter(t *testing.T) {
	runN(t, 4, func(c *mpi.Comm) {
		n := c.Size()
		const vals = 2 // float64s per block
		block := vals * 8
		data := make([]float64, n*vals)
		for i := range data {
			data[i] = float64(c.Rank() + i)
		}
		buf := enc.F64Bytes(data)
		out := make([]byte, block)
		ReduceScatter(c, buf, out, block, SumF64)
		got := enc.F64s(out)
		for v := 0; v < vals; v++ {
			idx := c.Rank()*vals + v
			want := 0.0
			for r := 0; r < n; r++ {
				want += float64(r + idx)
			}
			if got[v] != want {
				c.Abort(fmt.Sprintf("reduce_scatter got %v want %v", got[v], want))
			}
		}
	})
}

func TestCollectivesUnderEverySchemeAndPressure(t *testing.T) {
	schemes := []core.Params{core.Hardware(1), core.Static(1), core.Dynamic(1, 64)}
	for _, fc := range schemes {
		fc := fc
		t.Run(fc.Kind.String(), func(t *testing.T) {
			w := mpi.NewWorld(8, mpi.DefaultOptions(fc))
			err := w.Run(func(c *mpi.Comm) {
				n := c.Size()
				buf := enc.F64Bytes([]float64{float64(c.Rank())})
				Allreduce(c, buf, SumF64)
				if got := enc.F64s(buf)[0]; got != float64(n*(n-1)/2) {
					c.Abort("allreduce wrong under pressure")
				}
				const block = 64
				send := make([]byte, n*block)
				recv := make([]byte, n*block)
				Alltoall(c, send, recv, block)
				Barrier(c)
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// Property: Allreduce(SumI64) equals the local sum of inputs for random
// vectors, on a random world size.
func TestPropertyAllreduceMatchesSerialSum(t *testing.T) {
	prop := func(seed uint8, vals uint8) bool {
		n := int(seed%6) + 2
		k := int(vals%8) + 1
		inputs := make([][]int64, n)
		for r := range inputs {
			inputs[r] = make([]int64, k)
			for i := range inputs[r] {
				inputs[r][i] = int64(r*31+i*7) - 40
			}
		}
		want := make([]int64, k)
		for _, in := range inputs {
			for i, v := range in {
				want[i] += v
			}
		}
		okAll := true
		w := mpi.NewWorld(n, mpi.DefaultOptions(core.Static(8)))
		err := w.Run(func(c *mpi.Comm) {
			buf := enc.I64Bytes(inputs[c.Rank()])
			Allreduce(c, buf, SumI64)
			got := enc.I64s(buf)
			for i := range got {
				if got[i] != want[i] {
					okAll = false
				}
			}
		})
		return err == nil && okAll
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestCollectivesOnSubcommunicators(t *testing.T) {
	runN(t, 8, func(c *mpi.Comm) {
		row := c.Split(c.Rank()/4, c.Rank()) // two rows of 4
		buf := enc.F64Bytes([]float64{float64(c.Rank())})
		Allreduce(row, buf, SumF64)
		want := 0.0
		base := (c.Rank() / 4) * 4
		for i := 0; i < 4; i++ {
			want += float64(base + i)
		}
		if got := enc.F64s(buf)[0]; got != want {
			c.Abort(fmt.Sprintf("row allreduce got %v want %v", got, want))
		}
		// Broadcast within the row from row-rank 2.
		data := make([]byte, 32)
		if row.Rank() == 2 {
			for i := range data {
				data[i] = byte(base + i)
			}
		}
		Bcast(row, 2, data)
		if data[1] != byte(base+1) {
			c.Abort("row bcast wrong")
		}
	})
}
