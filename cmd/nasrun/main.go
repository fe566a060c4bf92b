// Command nasrun executes one NAS Parallel Benchmark kernel on the
// simulated cluster under a chosen flow control scheme and reports the
// virtual runtime and flow control statistics.
//
// Example:
//
//	nasrun -app LU -class A -np 8 -scheme dynamic -prepost 1
//
// -cpuprofile FILE and -memprofile FILE write runtime/pprof profiles of
// the kernel run (internal/prof; -memprofile records every allocation, so
// alloc_objects counts are exact).
package main

import (
	"flag"
	"fmt"
	"os"

	"ibflow/internal/bench"
	"ibflow/internal/mpi"
	"ibflow/internal/nas"
	"ibflow/internal/prof"
	"ibflow/internal/trace"
)

func main() {
	app := flag.String("app", "IS", "kernel: IS, FT, LU, CG, MG, BT, SP")
	classStr := flag.String("class", "W", "problem class: S, W, A")
	np := flag.Int("np", 0, "process count (0 = paper default: 8, or 16 for BT/SP)")
	scheme := flag.String("scheme", "static", "flow control scheme: hardware, static, dynamic, shared, rdma")
	prepost := flag.Int("prepost", 100, "pre-posted buffers per connection (shared pool start; ring slots for rdma)")
	dynmax := flag.Int("dynmax", 300, "dynamic/shared scheme growth cap")
	slotbytes := flag.Int("slotbytes", 0, "ring slot size in bytes (-scheme rdma only; default 1024)")
	traceN := flag.Int("trace", 0, "print the last N protocol trace events")
	profiles := prof.Register(flag.CommandLine)
	flag.Parse()

	class, err := nas.ParseClass(*classStr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	fc, err := bench.ParseScheme(*scheme, *prepost, *dynmax, *slotbytes)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nasrun:", err)
		os.Exit(2)
	}
	procs := *np
	if procs == 0 {
		procs = bench.ProcsFor(*app)
	}

	var buf *trace.Buffer
	tune := func(o *mpi.Options) {}
	if *traceN > 0 {
		buf = trace.NewBuffer(1 << 16)
		tune = func(o *mpi.Options) {
			o.Chan.Tracer = buf
			o.IB.Tracer = buf
		}
	}
	stopProfiles := profiles.Start("nasrun")
	res, err := bench.RunNASOpts(*app, class, procs, fc, tune)
	stopProfiles()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	st := res.Stats
	fmt.Printf("%s class %v on %d ranks, scheme=%v prepost=%d\n",
		res.App, res.Class, res.Procs, res.Scheme, res.Prepost)
	fmt.Printf("  verified:        %v\n", res.Verified)
	for _, e := range res.VerifyErrs {
		fmt.Printf("  verify error:    %s\n", e)
	}
	fmt.Printf("  virtual time:    %v\n", res.Time)
	fmt.Printf("  messages:        %d (eager %d, demoted %d, backlogged %d)\n",
		st.MsgsSent, st.EagerSent, st.Demoted, st.Backlogged)
	fmt.Printf("  explicit credit: %d (%.1f per connection)\n", st.ECMsSent, res.ECMPerConn)
	fmt.Printf("  max pre-posted:  %d buffers/connection (growth events %d)\n",
		st.MaxPosted, st.GrowthEvents)
	fmt.Printf("  transport:       %d RNR NAKs, %d retransmits, %d wasted bytes\n",
		st.RNRNaks, st.Retransmits, st.WastedBytes)
	fmt.Printf("  registration:    %d hits, %d misses\n", st.RegHits, st.RegMisses)
	fmt.Printf("  buffer memory:   %.1f KB posted across %d connection ends\n",
		float64(st.BufBytesInUse)/1024, st.Conns)
	if buf != nil {
		fmt.Printf("\nprotocol event summary (%d events total):\n", buf.Total())
		for _, s := range buf.Summary() {
			fmt.Printf("  %-14v %d\n", s.Kind, s.Count)
		}
		fmt.Printf("\nlast %d events:\n", *traceN)
		buf.Dump(os.Stdout, *traceN)
	}
	if !res.Verified {
		os.Exit(1)
	}
}
