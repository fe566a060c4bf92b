//go:build !ibdebug

package store

const tracking = false

// poolDebug is empty without the ibdebug build tag: the hooks compile to
// nothing, so Get and Put are the chunk and free-stack bookkeeping alone.
type poolDebug[T any] struct{}

func (poolDebug[T]) carve(*T) {}
func (poolDebug[T]) put(*T)   {}
func (poolDebug[T]) reuse(*T) {}

// Live is true without the tag: nothing tracks what is checked out.
func (p *Pool[T]) Live(*T) bool { return true }

// Gen is zero without the tag.
func (p *Pool[T]) Gen(*T) uint64 { return 0 }
