// Command nasrun executes one NAS Parallel Benchmark kernel on the
// simulated cluster and reports the virtual runtime and flow control
// statistics.
//
// Example:
//
//	nasrun -app LU -class A -spec 'ranks=8 scheme=dynamic(1,300)'
//
// -cpuprofile FILE and -memprofile FILE write runtime/pprof profiles of
// the kernel run (internal/prof; -memprofile records every allocation, so
// alloc_objects counts are exact).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"ibflow/internal/bench"
	"ibflow/internal/core"
	"ibflow/internal/mpi"
	"ibflow/internal/nas"
	"ibflow/internal/prof"
	"ibflow/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is nasrun on its arguments and output streams; it returns the exit
// status: 0 for a verified run, 1 for a failed or unverified one, 2 for a
// usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nasrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	app := fs.String("app", "IS", "kernel: IS, FT, LU, CG, MG, BT, SP")
	classStr := fs.String("class", "W", "problem class: S, W, A")
	specText := fs.String("spec", "", "the world, e.g. 'ranks=8 scheme=dynamic(1,300)' (empty = the paper's world for -app under scheme=static(100))")
	traceN := fs.Int("trace", 0, "print the last N protocol trace events")
	profiles := prof.Register(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	class, err := nas.ParseClass(*classStr)
	spec := bench.PaperSpec(*app, core.Static(100))
	if err == nil && *specText != "" {
		spec, err = mpi.ParseSpec(*specText)
	}
	if err != nil {
		fmt.Fprintln(stderr, "nasrun:", err)
		return 2
	}

	var buf *trace.Buffer
	var tune func(o *mpi.Options)
	if *traceN > 0 {
		buf = trace.NewBuffer(1 << 16)
		tune = func(o *mpi.Options) {
			o.Chan.Tracer = buf
			o.IB.Tracer = buf
		}
	}
	stopProfiles := profiles.Start("nasrun")
	res, err := bench.RunNAS(*app, class, spec, tune)
	stopProfiles()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	st := res.Stats
	fmt.Fprintf(stdout, "%s class %v, %v\n", res.App, res.Class, res.Spec)
	fmt.Fprintf(stdout, "  verified:        %v\n", res.Verified)
	for _, e := range res.VerifyErrs {
		fmt.Fprintf(stdout, "  verify error:    %s\n", e)
	}
	fmt.Fprintf(stdout, "  virtual time:    %v\n", res.Time)
	fmt.Fprintf(stdout, "  messages:        %d (eager %d, demoted %d, backlogged %d)\n",
		st.MsgsSent, st.EagerSent, st.Demoted, st.Backlogged)
	fmt.Fprintf(stdout, "  explicit credit: %d (%.1f per connection)\n", st.ECMsSent, res.ECMPerConn)
	fmt.Fprintf(stdout, "  max pre-posted:  %d buffers/connection (growth events %d)\n",
		st.MaxPosted, st.GrowthEvents)
	fmt.Fprintf(stdout, "  transport:       %d RNR NAKs, %d retransmits, %d wasted bytes\n",
		st.RNRNaks, st.Retransmits, st.WastedBytes)
	fmt.Fprintf(stdout, "  registration:    %d hits, %d misses\n", st.RegHits, st.RegMisses)
	fmt.Fprintf(stdout, "  buffer memory:   %.1f KB posted across %d connection ends\n",
		float64(st.BufBytesInUse)/1024, st.Conns)
	if buf != nil {
		fmt.Fprintf(stdout, "\nprotocol event summary (%d events total):\n", buf.Total())
		for _, s := range buf.Summary() {
			fmt.Fprintf(stdout, "  %-14v %d\n", s.Kind, s.Count)
		}
		fmt.Fprintf(stdout, "\nlast %d events:\n", *traceN)
		buf.Dump(stdout, *traceN)
	}
	if !res.Verified {
		return 1
	}
	return 0
}
