// Fixture for the guardedby rule: an annotated field accessed without a
// preceding lock of its mutex is a finding, as is an annotation naming a
// mutex the struct does not have. Locked-suffix methods are exempt.
package guardedby

import "sync"

type counter struct {
	mu sync.Mutex
	// n counts events. guarded by mu.
	n int
	// misannotated claims a guard that is not a field. guarded by lock.
	misannotated int
}

func (c *counter) inc() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}

func (c *counter) racy() int {
	return c.n // want: no preceding c.mu.Lock()
}

func (c *counter) readLocked() int {
	return c.n // caller holds the lock by convention
}

// owner shares peers, which have no mutex of their own: their counters are
// guarded by the owner's, whichever owner's <x>.mu the accessor locks.
type owner struct {
	mu sync.Mutex
}

type peer struct {
	// points counts users. guarded by owner.mu.
	points int
	// stray names an owner that does not exist. guarded by nobody.mu.
	stray int
}

func (o *owner) add(p *peer) {
	o.mu.Lock()
	p.points++
	o.mu.Unlock()
}

func bump(p *peer) {
	p.points++ // want: no preceding <x>.mu.Lock()
}
