package nas

import (
	"testing"

	"ibflow/internal/core"
	"ibflow/internal/mpi"
)

// BenchmarkKernel runs each kernel at the repo benchmark's nas_mix
// geometry: class A under Static(1), 8 ranks, and 16 for BT/SP at two
// per node. One iteration is one whole world, set-up included, so ns/op
// and B/op are the host cost of one kernel run. make bench-nas runs it.
func BenchmarkKernel(b *testing.B) {
	for _, app := range Apps() {
		b.Run(app.Name, func(b *testing.B) {
			n := 8
			opts := mpi.DefaultOptions(core.Static(1))
			if app.Name == "BT" || app.Name == "SP" {
				n, opts.RanksPerNode = 16, 2
			}
			b.ReportAllocs()
			for range b.N {
				var failed error
				w := mpi.NewWorld(n, opts)
				if err := w.Run(func(c *mpi.Comm) {
					if err := app.Run(c, ClassA); err != nil {
						failed = err
					}
				}); err != nil {
					b.Fatal(err)
				}
				if failed != nil {
					b.Fatal(failed)
				}
			}
		})
	}
}
