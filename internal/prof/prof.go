// Package prof is the profiling seam of the command-line tools (fcbench,
// nasrun, experiments): the -cpuprofile and -memprofile flags and the
// measured region they cover.
package prof

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Flags holds the two profile paths once the command line is parsed.
type Flags struct {
	cpu, mem string
}

// Register adds -cpuprofile and -memprofile to fs.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.cpu, "cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	fs.StringVar(&f.mem, "memprofile", "", "write an allocation profile of the run to this file, every allocation sampled (go tool pprof -sample_index=alloc_objects)")
	return f
}

// Start begins the measured region — call it after usage errors have
// exited and before the first world is built — and returns the function
// that ends it: it stops the CPU profile and writes the allocation profile
// (every allocation since process start, after a GC so the in-use numbers
// are current). With -memprofile the runtime records every allocation
// from here on (MemProfileRate 1), so alloc_objects counts are exact and
// a site's count can be compared between two commits. An empty path turns
// that profile off; with both empty nothing is started and stop does
// nothing. A failure to write a profile ends the tool, named for the
// message. Read the files with `go tool pprof -top FILE`.
func (f *Flags) Start(tool string) (stop func()) {
	die := func(err error) {
		fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
		os.Exit(1)
	}
	var cpu *os.File
	if f.cpu != "" {
		var err error
		if cpu, err = os.Create(f.cpu); err != nil {
			die(err)
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			die(err)
		}
	}
	if f.mem != "" {
		runtime.MemProfileRate = 1
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				die(err)
			}
		}
		if f.mem == "" {
			return
		}
		out, err := os.Create(f.mem)
		if err != nil {
			die(err)
		}
		runtime.GC()
		err = pprof.Lookup("allocs").WriteTo(out, 0)
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			die(fmt.Errorf("writing %s: %w", f.mem, err))
		}
	}
}
