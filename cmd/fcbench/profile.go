package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// startProfiles starts a CPU profile into cpuPath and returns the function
// that ends the measured region: it stops the CPU profile and writes the
// allocation profile (every allocation since process start, after a GC so
// the in-use numbers are current) to memPath. An empty path turns that
// profile off; with both empty nothing is started and stop does nothing.
// Read the files with `go tool pprof -top FILE`.
func startProfiles(cpuPath, memPath string) (stop func()) {
	die := func(err error) {
		fmt.Fprintf(os.Stderr, "fcbench: %v\n", err)
		os.Exit(1)
	}
	var cpu *os.File
	if cpuPath != "" {
		var err error
		if cpu, err = os.Create(cpuPath); err != nil {
			die(err)
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			die(err)
		}
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				die(err)
			}
		}
		if memPath == "" {
			return
		}
		f, err := os.Create(memPath)
		if err != nil {
			die(err)
		}
		runtime.GC()
		err = pprof.Lookup("allocs").WriteTo(f, 0)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			die(fmt.Errorf("writing %s: %w", memPath, err))
		}
	}
}
