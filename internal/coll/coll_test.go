package coll

import (
	"fmt"
	"testing"
	"testing/quick"

	"ibflow/internal/core"
	"ibflow/internal/enc"
	"ibflow/internal/mpi"
)

// sizes to exercise: 1 rank, powers of two, and awkward sizes.
var worldSizes = []int{1, 2, 3, 4, 5, 7, 8}

// getF64 decodes the first float64 of b.
func getF64(b []byte) float64 {
	v := make([]float64, 1)
	enc.GetF64(b, v)
	return v[0]
}

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
				buf := enc.PutF64(make([]byte, 8*len(vals)), vals)
				Reduce(c, 0, buf, SumF64)
				if c.Rank() == 0 {
					got := make([]float64, len(vals))
					enc.GetF64(buf, got)
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
				buf := enc.PutF64(make([]byte, 8), []float64{float64(1 + c.Rank())})
				Allreduce(c, buf, SumF64)
				want := float64(n * (n + 1) / 2)
				if got := getF64(buf); got != want {
					c.Abort(fmt.Sprintf("allreduce got %v want %v", got, want))
				}
			})
		})
	}
}

// maxF64 element-wise maximizes little-endian float64 payloads: a
// ReduceOp no kernel needs, so it lives here.
func maxF64(dst, src []byte) {
	for i := 0; i+8 <= len(dst); i += 8 {
		if getF64(src[i:]) > getF64(dst[i:]) {
			copy(dst[i:i+8], src[i:i+8])
		}
	}
}

func TestAllreduceMax(t *testing.T) {
	runN(t, 5, func(c *mpi.Comm) {
		buf := enc.PutF64(make([]byte, 8), []float64{float64(c.Rank() * 7 % 5)})
		Allreduce(c, buf, maxF64)
		if got := getF64(buf); got != 4 {
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

func TestCollectivesUnderEverySchemeAndPressure(t *testing.T) {
	schemes := []core.Params{core.Hardware(1), core.Static(1), core.Dynamic(1, 64)}
	for _, fc := range schemes {
		fc := fc
		t.Run(fc.Kind.String(), func(t *testing.T) {
			w := mpi.NewWorld(8, mpi.DefaultOptions(fc))
			err := w.Run(func(c *mpi.Comm) {
				n := c.Size()
				buf := enc.PutF64(make([]byte, 8), []float64{float64(c.Rank())})
				Allreduce(c, buf, SumF64)
				if got := getF64(buf); got != float64(n*(n-1)/2) {
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
			buf := enc.PutI64(make([]byte, 8*k), inputs[c.Rank()])
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
		buf := enc.PutF64(make([]byte, 8), []float64{float64(c.Rank())})
		Allreduce(row, buf, SumF64)
		want := 0.0
		base := (c.Rank() / 4) * 4
		for i := 0; i < 4; i++ {
			want += float64(base + i)
		}
		if got := getF64(buf); got != want {
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
