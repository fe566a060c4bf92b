package bench

import (
	"fmt"

	"ibflow/internal/chdev"
	"ibflow/internal/core"
	"ibflow/internal/mpi"
	"ibflow/internal/nas"
	"ibflow/internal/sim"
)

// NASResult is one application run under one scheme.
type NASResult struct {
	App        string
	Class      nas.Class
	Procs      int
	Scheme     core.Kind
	Prepost    int
	Time       sim.Time
	Verified   bool
	VerifyErrs []string
	Stats      chdev.Stats

	// Derived, matching the paper's tables.
	ECMPerConn float64 // Table 1: average ECMs per connection per process
	TotalMsgs  uint64  // Table 1: all messages (data + control)
	MaxPosted  int     // Table 2: max pre-posted buffers on any connection
}

// ProcsFor returns the paper's process count for an application: 8 for
// most, 16 for BT and SP (which need square counts).
func ProcsFor(app string) int {
	if app == "BT" || app == "SP" {
		return 16
	}
	return 8
}

// RunNAS executes one NAS kernel under the given scheme and returns its
// virtual makespan and flow control statistics.
func RunNAS(appName string, class nas.Class, procs int, fc core.Params) (NASResult, error) {
	return RunNASOpts(appName, class, procs, fc, nil)
}

// RunNASOpts is RunNAS with an options hook, through which the figures
// and cmd/nasrun attach metrics registries and tracers.
func RunNASOpts(appName string, class nas.Class, procs int, fc core.Params,
	tune func(*mpi.Options)) (NASResult, error) {
	app, err := nas.Get(appName)
	if err != nil {
		return NASResult{}, err
	}
	if !app.ProcsOK(procs) {
		return NASResult{}, fmt.Errorf("bench: %s cannot run on %d processes", appName, procs)
	}
	opts := mpi.DefaultOptions(fc)
	opts.TimeLimit = timeLimit
	if procs == 2*ProcsFor("IS") {
		// The paper's testbed has 8 nodes: BT and SP run 16 processes
		// as 2 per node, sharing each node's HCA via loopback.
		opts.RanksPerNode = 2
	}
	if tune != nil {
		tune(&opts)
	}
	w := mpi.NewWorld(procs, opts)
	var verrs []string
	if err := w.Run(func(c *mpi.Comm) {
		if verr := app.Run(c, class); verr != nil {
			verrs = append(verrs, verr.Error())
		}
	}); err != nil {
		return NASResult{}, fmt.Errorf("bench: %s/%v: %w", appName, fc.Kind, err)
	}
	st := w.Stats()
	res := NASResult{
		App:        appName,
		Class:      class,
		Procs:      procs,
		Scheme:     fc.Kind,
		Prepost:    fc.Prepost,
		Time:       w.Time(),
		Verified:   len(verrs) == 0,
		VerifyErrs: verrs,
		Stats:      st,
		TotalMsgs:  st.MsgsSent,
		MaxPosted:  st.MaxPosted,
	}
	if st.Conns > 0 {
		res.ECMPerConn = float64(st.ECMsSent) / float64(st.Conns)
	}
	return res, nil
}
