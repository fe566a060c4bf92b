// Package ibflow is a simulation-backed reproduction of "Implementing
// Efficient and Scalable Flow Control Schemes in MPI over InfiniBand"
// (Liu and Panda, IPDPS 2004).
//
// It bundles a deterministic InfiniBand Reliable Connection fabric model,
// an MPICH-style MPI implementation (eager + zero-copy rendezvous over
// send/receive and RDMA write), the paper's three flow control schemes
// (hardware-based, user-level static, user-level dynamic) plus an
// SRQ-backed shared-pool fourth and a persistent RDMA-write ring
// channel fifth (with RDMA-read rendezvous), the NAS Parallel Benchmark
// communication kernels, and a harness that regenerates every figure
// and table of the paper's evaluation. A scheme is exactly its
// constructor's arguments (Hardware, Static, Dynamic, Shared, RDMA);
// like the paper's, the dynamic scheme and the shared pool only grow.
//
// Quick start:
//
//	cluster := ibflow.NewCluster(4, ibflow.Dynamic(1, 100))
//	err := cluster.Run(func(c *ibflow.Comm) {
//	    if c.Rank() == 0 {
//	        c.Send(1, 0, []byte("hello"))
//	    } else if c.Rank() == 1 {
//	        buf := make([]byte, 8)
//	        st := c.Recv(0, 0, buf)
//	        _ = st
//	    }
//	})
//
// The function passed to Run executes once per rank, exactly like an MPI
// program under mpirun; all communication happens in simulated virtual
// time, so results (including timings) are deterministic.
package ibflow

import (
	"ibflow/internal/bench"
	"ibflow/internal/chdev"
	"ibflow/internal/core"
	"ibflow/internal/mpi"
	"ibflow/internal/nas"
	"ibflow/internal/sim"
	"ibflow/internal/trace"
)

// Re-exported core types. The aliases are the public names; the internal
// packages carry the implementation.
type (
	// Comm is a rank's communicator (MPI_COMM_WORLD).
	Comm = mpi.Comm
	// Request is a non-blocking operation handle.
	Request = mpi.Request
	// Status describes a completed receive.
	Status = mpi.Status
	// Options configures the fabric, channel device and flow control.
	Options = mpi.Options
	// Scheme selects and parameterizes a flow control scheme; build one
	// with a constructor below.
	Scheme = core.Params
	// SchemeKind is the flow control scheme family.
	SchemeKind = core.Kind
	// Stats aggregates per-device flow control counters.
	Stats = chdev.Stats
	// Time is virtual time in nanoseconds.
	Time = sim.Time
	// Class scales a NAS kernel problem size.
	Class = nas.Class
	// NASResult is one NAS application run's outcome.
	NASResult = bench.NASResult
	// Table is a formatted experiment result.
	Table = bench.Table
	// TraceBuffer records protocol events on the virtual timeline.
	TraceBuffer = trace.Buffer
)

// NewTrace creates an event ring holding the most recent capacity protocol
// events. Attach it to a cluster with:
//
//	ibflow.NewCluster(n, scheme, func(o *ibflow.Options) {
//	    o.Chan.Tracer = buf
//	    o.IB.Tracer = buf
//	})
func NewTrace(capacity int) *TraceBuffer { return trace.NewBuffer(capacity) }

// Receive matching wildcards.
const (
	AnySource = mpi.AnySource
	AnyTag    = mpi.AnyTag
)

// NAS problem classes.
const (
	ClassS = nas.ClassS
	ClassW = nas.ClassW
	ClassA = nas.ClassA
)

// Hardware returns the hardware-based flow control scheme: no MPI-level
// bookkeeping; the HCA's RNR NAK retry machinery absorbs overload.
func Hardware(prepost int) Scheme { return core.Hardware(prepost) }

// Static returns the user-level static credit scheme with a fixed
// pre-post count per connection.
func Static(prepost int) Scheme { return core.Static(prepost) }

// Dynamic returns the user-level dynamic scheme: start at prepost buffers
// per connection and grow on starvation feedback up to max.
func Dynamic(prepost, max int) Scheme { return core.Dynamic(prepost, max) }

// Shared returns the shared-pool scheme: one SRQ-backed pool of prepost
// receive buffers per rank serves every connection, growing on SRQ
// low-watermark limit events up to max. Buffer memory is decoupled from
// the connection count — the scalable fourth scheme.
func Shared(prepost, max int) Scheme { return core.Shared(prepost, max) }

// RDMA returns the persistent RDMA-write eager channel — the fifth
// scheme. Each connection direction pins a ring of slots pre-registered
// buffers of slotBytes each; small messages are RDMA-written straight
// into the next slot (no receive descriptors, no RNR exposure), the
// receiver's ring head piggybacks on reverse traffic as the credit
// return, and an explicit credit-sync covers one-way streams. Messages
// too big for a slot move by RDMA-read rendezvous: the receiver pulls
// the payload from the sender's registered buffer, eliminating the CTS
// leg. Per-connection memory is fixed at provisioning time — the ring
// never grows.
func RDMA(slots, slotBytes int) Scheme { return core.RDMA(slots, slotBytes) }

// Cluster is a simulated InfiniBand cluster running one MPI job.
type Cluster struct {
	world *mpi.World
}

// NewCluster builds an n-node cluster (one rank per node) under the given
// flow control scheme, with the calibrated testbed defaults. Optional
// tweak functions may adjust fabric or channel device parameters.
func NewCluster(n int, scheme Scheme, tweaks ...func(*Options)) *Cluster {
	opts := mpi.DefaultOptions(scheme)
	for _, t := range tweaks {
		t(&opts)
	}
	return &Cluster{world: mpi.NewWorld(n, opts)}
}

// Run executes main once per rank and drives the simulation to
// completion, returning a deadlock or time-limit error if the job hangs.
func (cl *Cluster) Run(main func(c *Comm)) error { return cl.world.Run(main) }

// Time returns the job's virtual makespan after Run.
func (cl *Cluster) Time() Time { return cl.world.Time() }

// Stats aggregates flow control statistics across all ranks.
func (cl *Cluster) Stats() Stats { return cl.world.Stats() }

// RankStats returns rank i's flow control statistics.
func (cl *Cluster) RankStats(i int) Stats { return cl.world.RankStats(i) }

// Size returns the number of ranks.
func (cl *Cluster) Size() int { return cl.world.Size() }

// Latency measures one-way MPI latency (microseconds) for size-byte
// messages under a scheme — the paper's Figure 2 micro-benchmark.
func Latency(scheme Scheme, size, iters int) float64 {
	return bench.Latency(mpi.Spec{Ranks: 2, Scheme: scheme}, size, iters, nil)
}

// Bandwidth measures the paper's window-based bandwidth test in MB/s
// (Figures 3-8).
func Bandwidth(scheme Scheme, size, window, reps int, blocking bool) float64 {
	return bench.Bandwidth(mpi.Spec{Ranks: 2, Scheme: scheme}, size, window, reps, blocking, nil)
}

// RunNAS executes a NAS kernel (IS, FT, LU, CG, MG, BT, SP) on procs
// ranks, one per node, under a scheme and returns its virtual runtime and
// flow control statistics.
func RunNAS(app string, class Class, procs int, scheme Scheme) (NASResult, error) {
	return bench.RunNAS(app, class, mpi.Spec{Ranks: procs, Scheme: scheme}, nil)
}

// NASApps lists the available kernel names in the paper's order.
func NASApps() []string {
	var names []string
	for _, a := range nas.Apps() {
		names = append(names, a.Name)
	}
	return names
}
