// Package creditmut exercises the creditmut analyzer: writes to
// credit-accounting fields are legal only inside the owning type's
// methods (and closures within them); everything else is flagged.
package creditmut

type vc struct {
	credits int
	owed    int
	posted  int
	backlog int
	limit   int // not a credit field
}

// Methods of the owning type are the audited accounting API.
func (v *vc) addCredits(n int) {
	v.credits += n
	v.owed++
}

func (v *vc) take() int {
	n := v.owed
	v.owed = 0
	return n
}

// closureInsideOwnerOK: a closure inside the manager's method is still
// the manager.
func (v *vc) closureInsideOwnerOK() {
	f := func() { v.credits++ }
	f()
	v.limit = 99 // not a credit field
}

type device struct {
	vc *vc
}

func (d *device) progress() {
	d.vc.credits--   // want `write to credit field vc\.credits outside vc's methods`
	d.vc.backlog = 0 // want `write to credit field vc\.backlog outside vc's methods`
}

func steal(v *vc) *int {
	v.posted++     // want `write to credit field vc\.posted outside vc's methods`
	return &v.owed // want `taking the address of credit field vc\.owed outside vc's methods`
}

func (d *device) closureInheritsReceiver() func() {
	return func() {
		d.vc.credits = 0 // want `write to credit field vc\.credits outside vc's methods`
	}
}

// readsOK: reading credit state from anywhere is fine; only mutation is
// confined to the manager.
func readsOK(v *vc) int {
	return v.credits + v.owed + v.posted
}

// pool mirrors core.Pool: the shared-scheme receive accounting whose
// posted/inUse pair carries the pooled conservation law.
type pool struct {
	posted int
	inUse  int
}

func (pl *pool) take() {
	pl.inUse++
}

func (pl *pool) processed() {
	pl.inUse--
}

func (pl *pool) grow(n int) {
	pl.posted += n
}

func (d *device) poolOutsideOwner(pl *pool) {
	pl.inUse--    // want `write to credit field pool\.inUse outside pool's methods`
	pl.posted = 0 // want `write to credit field pool\.posted outside pool's methods`
}

func poolReadsOK(pl *pool) int {
	return pl.posted - pl.inUse
}

// ring mirrors core.Ring: the RDMA eager channel whose head/tail
// counters are themselves the credit state (free slots =
// slots - (tail - headSeen)).
type ring struct {
	slots    uint32
	tail     uint32
	head     uint32
	headSeen uint32
	headSent uint32
}

// Methods of the ring are the audited slot-accounting API.
func (r *ring) reserve() uint32 {
	s := r.tail % r.slots
	r.tail++
	return s
}

func (r *ring) seenHead(h uint32) {
	r.headSeen = h
	r.head = h
}

func (r *ring) takeHead() uint32 {
	r.headSent = r.head
	return r.head
}

// closure inside a ring method is still the manager.
func (r *ring) consumeViaClosure() {
	f := func() { r.head++ }
	f()
}

func (d *device) ringOutsideOwner(r *ring) {
	r.tail++         // want `write to credit field ring\.tail outside ring's methods`
	r.head = 0       // want `write to credit field ring\.head outside ring's methods`
	r.headSeen += 1  // want `write to credit field ring\.headSeen outside ring's methods`
	r.headSent = 999 // want `write to credit field ring\.headSent outside ring's methods`
}

func ringSteal(r *ring) *uint32 {
	return &r.tail // want `taking the address of credit field ring\.tail outside ring's methods`
}

// ringReadsOK: reading the counters (occupancy, free-slot math) from
// anywhere is fine; only mutation is confined to the ring.
func ringReadsOK(r *ring) uint32 {
	return r.slots - (r.tail - r.headSeen)
}

// conn mirrors chdev.conn: one endpoint of a rank pair's endpoint set,
// whose occ/occHWM occupancy pair counts the work requests its QP holds.
type conn struct {
	occ    int
	occHWM int
	ep     int // not a credit field
}

// Methods of the endpoint are the audited occupancy API
// (noteOut/noteRetired in the real device).
func (c *conn) noteOut() {
	c.occ++
	if c.occ > c.occHWM {
		c.occHWM = c.occ
	}
}

func (c *conn) noteRetired() {
	c.occ--
}

func (d *device) connOutsideOwner(c *conn) {
	c.occ++      // want `write to credit field conn\.occ outside conn's methods`
	c.occHWM = 0 // want `write to credit field conn\.occHWM outside conn's methods`
	c.ep = 3     // not a credit field
}

func connSteal(c *conn) *int {
	return &c.occ // want `taking the address of credit field conn\.occ outside conn's methods`
}

func connReadsOK(c *conn) int {
	return c.occ + c.occHWM
}
