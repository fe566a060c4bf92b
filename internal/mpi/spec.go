package mpi

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"ibflow/internal/chdev"
	"ibflow/internal/core"
	"ibflow/internal/fault"
	"ibflow/internal/ib"
)

// Spec describes a world: its ranks, their placement and fabric, the
// scheme and connections they run, and the faults injected into it. Its
// one text form lists the keys in this order, each left out at its
// default (DESIGN.md, "World spec"):
//
//	ranks=1024 pernode=2 fabric=fattree(32,2) rails=2 scheme=rdma(8,1024) eps=2 ondemand faults=seed(7)+jitter(20)
//
// A zero PerNode, Rails or Endpoints means 1, a zero LeafRadix the
// crossbar, a zero Faults no fault plan. A harness sets what it attaches
// (time limit, settling, metrics, tracers, debug checks) on what Options
// returns.
type Spec struct {
	Ranks, PerNode     int
	LeafRadix, Oversub int // the fat tree; 0 = the crossbar
	Rails              int
	Scheme             core.Params // as a core constructor returns it
	Endpoints          int
	OnDemand           bool
	Faults             fault.Config
}

// maxSpecNum bounds every number of a spec, so that no product a world
// forms from them (a ring region's slots x slot size) overflows.
const maxSpecNum = 1 << 20

// schemeCtors are the scheme constructors by name, with their arities.
var schemeCtors = map[string]struct {
	arity int
	make  func(a []int) core.Params
}{
	"hardware": {1, func(a []int) core.Params { return core.Hardware(a[0]) }},
	"static":   {1, func(a []int) core.Params { return core.Static(a[0]) }},
	"dynamic":  {2, func(a []int) core.Params { return core.Dynamic(a[0], a[1]) }},
	"shared":   {2, func(a []int) core.Params { return core.Shared(a[0], a[1]) }},
	"rdma":     {2, func(a []int) core.Params { return core.RDMA(a[0], a[1]) }},
}

// ParseSpec parses a spec's text form. It accepts only the canonical
// form, so String prints back exactly what it parsed, and validates once:
// a spec it returns builds a world without a panic.
func ParseSpec(text string) (Spec, error) {
	s, err := parseSpec(text)
	if err != nil {
		return Spec{}, fmt.Errorf("mpi: spec %q: %v", text, err)
	}
	if c := s.String(); c != text {
		return Spec{}, fmt.Errorf("mpi: spec %q is not canonical (keys in order, defaults left out): write %q", text, c)
	}
	return s, nil
}

// parseSpec reads and validates text's keys in any order; a key given
// twice keeps its last value, which the round trip then rejects.
func parseSpec(text string) (s Spec, err error) {
	for _, field := range strings.Split(text, " ") {
		key, val, _ := strings.Cut(field, "=")
		var args []int
		switch key {
		case "ranks":
			s.Ranks, err = specNum(val)
		case "pernode":
			s.PerNode, err = specNum(val)
		case "fabric":
			if args, err = specCall(val, "fattree", 2); err == nil {
				s.LeafRadix, s.Oversub = args[0], args[1]
			}
		case "rails":
			s.Rails, err = specNum(val)
		case "scheme":
			name, _, _ := strings.Cut(val, "(")
			c, ok := schemeCtors[name]
			if !ok {
				return s, fmt.Errorf("unknown scheme %q (hardware, static, dynamic, shared, rdma)", name)
			}
			if args, err = specCall(val, name, c.arity); err == nil {
				s.Scheme = c.make(args)
			}
		case "eps":
			s.Endpoints, err = specNum(val)
		case "ondemand":
			s.OnDemand = true
		case "faults":
			s.Faults, err = parseFaults(val)
		default:
			err = fmt.Errorf("unknown key %q (ranks, pernode, fabric, rails, scheme, eps, ondemand, faults)", key)
		}
		if err != nil {
			return s, err
		}
	}
	if s.Ranks == 0 || s.Scheme.Prepost == 0 {
		return s, fmt.Errorf("ranks= and scheme= are required")
	}
	if err := s.Scheme.Validate(); err != nil || !s.Scheme.RingChannel() {
		return s, err
	}
	return s, chdev.CheckSlotBytes(s.Scheme.SlotBytes)
}

// specNum parses one number of a spec: a decimal in [1, maxSpecNum].
func specNum(val string) (int, error) {
	n, err := strconv.Atoi(val)
	if err != nil || n < 1 || n > maxSpecNum {
		return 0, fmt.Errorf("%q is not a number in [1, %d]", val, maxSpecNum)
	}
	return n, nil
}

// specCall parses the call name(a) or name(a,b) of the given arity.
func specCall(val, name string, arity int) ([]int, error) {
	inner, open := strings.CutPrefix(val, name+"(")
	inner, closed := strings.CutSuffix(inner, ")")
	if !open || !closed {
		return nil, fmt.Errorf("%q is not %s(...)", val, name)
	}
	parts := strings.Split(inner, ",")
	if len(parts) != arity {
		return nil, fmt.Errorf("%s takes %d arguments, %q has %d", name, arity, val, len(parts))
	}
	args := make([]int, arity)
	for i, p := range parts {
		var err error
		if args[i], err = specNum(p); err != nil {
			return nil, err
		}
	}
	return args, nil
}

// faultTerms name the faults= key's terms in their one order. Every term
// but seed and outages is a percent.
var faultTerms = [...]string{"seed", "jitter", "outages", "ecmdrop", "ecmdup", "rnr", "ack"}

// faultKnobs lists c's fields in faultTerms' order.
func faultKnobs(c fault.Config) [len(faultTerms)]int {
	return [...]int{int(c.Seed), c.JitterPct, c.OutageCount, c.ECMDropPct, c.ECMDupPct, c.RNRForcePct, c.AckDelayPct}
}

// parseFaults reads the faults= key's +-joined terms. A term given twice
// keeps its last value, and terms out of order still parse; the round
// trip rejects both.
func parseFaults(val string) (fault.Config, error) {
	var k [len(faultTerms)]int
	for _, term := range strings.Split(val, "+") {
		name, _, _ := strings.Cut(term, "(")
		i := slices.Index(faultTerms[:], name)
		if i < 0 {
			return fault.Config{}, fmt.Errorf("unknown fault term %q (%s)", name, strings.Join(faultTerms[:], ", "))
		}
		args, err := specCall(term, name, 1)
		if err != nil {
			return fault.Config{}, err
		}
		if k[i] = args[0]; k[i] > 100 && name != "seed" && name != "outages" {
			return fault.Config{}, fmt.Errorf("%q is not a percent in [1, 100]", term)
		}
	}
	return fault.Config{Seed: uint64(k[0]), JitterPct: k[1], OutageCount: k[2],
		ECMDropPct: k[3], ECMDupPct: k[4], RNRForcePct: k[5], AckDelayPct: k[6]}, nil
}

// String returns the spec's text form.
func (s Spec) String() string {
	b := fmt.Appendf(nil, "ranks=%d", s.Ranks)
	if s.PerNode > 1 {
		b = fmt.Appendf(b, " pernode=%d", s.PerNode)
	}
	if s.LeafRadix > 0 {
		b = fmt.Appendf(b, " fabric=fattree(%d,%d)", s.LeafRadix, s.Oversub)
	}
	if s.Rails > 1 {
		b = fmt.Appendf(b, " rails=%d", s.Rails)
	}
	p := s.Scheme
	switch p.Kind {
	case core.KindDynamic, core.KindShared:
		b = fmt.Appendf(b, " scheme=%v(%d,%d)", p.Kind, p.Prepost, p.Max)
	case core.KindRDMA:
		b = fmt.Appendf(b, " scheme=%v(%d,%d)", p.Kind, p.Prepost, p.SlotBytes)
	default:
		b = fmt.Appendf(b, " scheme=%v(%d)", p.Kind, p.Prepost)
	}
	if s.Endpoints > 1 {
		b = fmt.Appendf(b, " eps=%d", s.Endpoints)
	}
	if s.OnDemand {
		b = append(b, " ondemand"...)
	}
	sep := " faults="
	for i, k := range faultKnobs(s.Faults) {
		if k != 0 {
			b = fmt.Appendf(b, "%s%s(%d)", sep, faultTerms[i], k)
			sep = "+"
		}
	}
	return string(b)
}

// Options returns the calibrated testbed configuration of the world s
// describes: NewWorld(s.Ranks, s.Options()) builds it. Each call makes a
// fresh fault plan, because a plan serves one world.
func (s Spec) Options() Options {
	o := DefaultOptions(s.Scheme)
	o.RanksPerNode = s.PerNode
	if s.LeafRadix > 0 {
		o.IB.Topology = ib.TopoFatTree
		o.IB.LeafRadix, o.IB.Oversub = s.LeafRadix, s.Oversub
	}
	o.IB.Rails = s.Rails
	o.Chan.Endpoints = s.Endpoints
	o.Chan.OnDemand = s.OnDemand
	if s.Faults != (fault.Config{}) {
		o.IB.Faults = fault.New(s.Faults)
	}
	return o
}
