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
	Spec       mpi.Spec
	Time       sim.Time
	Verified   bool
	VerifyErrs []string
	Stats      chdev.Stats

	// ECMPerConn is Table 1's average ECMs per connection per process.
	ECMPerConn float64
}

// PaperSpec is the paper's world for a NAS application under fc: 8
// processes, one per node, or for BT and SP, which need square counts,
// 16 — two per node, as the paper's 8-node testbed ran them, sharing each
// node's HCA through loopback.
func PaperSpec(app string, fc core.Params) mpi.Spec {
	if app == "BT" || app == "SP" {
		return mpi.Spec{Ranks: 16, PerNode: 2, Scheme: fc}
	}
	return mpi.Spec{Ranks: 8, Scheme: fc}
}

// RunNAS executes one NAS kernel in the world s describes and returns its
// virtual makespan and flow control statistics. tune, when non-nil, edits
// the world's options before it is built: the figures and `fcbench -test
// nas` attach metrics registries and tracers through it.
func RunNAS(appName string, class nas.Class, s mpi.Spec, tune func(*mpi.Options)) (NASResult, error) {
	app, err := nas.Get(appName)
	if err != nil {
		return NASResult{}, err
	}
	if !app.ProcsOK(s.Ranks) {
		return NASResult{}, fmt.Errorf("bench: %s cannot run on %d processes", appName, s.Ranks)
	}
	w := newWorld(s, tune)
	var verrs []string
	if err := w.Run(func(c *mpi.Comm) {
		if verr := app.Run(c, class); verr != nil {
			verrs = append(verrs, verr.Error())
		}
	}); err != nil {
		return NASResult{}, fmt.Errorf("bench: %s in %v: %w", appName, s, err)
	}
	st := w.Stats()
	res := NASResult{
		App:        appName,
		Class:      class,
		Spec:       s,
		Time:       w.Time(),
		Verified:   len(verrs) == 0,
		VerifyErrs: verrs,
		Stats:      st,
	}
	if st.Conns > 0 {
		res.ECMPerConn = float64(st.ECMsSent) / float64(st.Conns)
	}
	return res, nil
}
