package analysis

import (
	"go/types"
	"sync"
)

// FactStore is the shared per-function summary cache of one Program. The
// interprocedural rules publish derived facts here ("this function may
// acquire these locks") keyed by the owning rule and function, so a
// summary is computed once per Run even when several rules need it. Facts
// are opaque to the framework; each rule defines its own value types.
type FactStore struct {
	mu sync.Mutex
	// m holds the published facts. guarded by mu.
	m map[factKey]any
}

type factKey struct {
	fn  *types.Func
	key string
}

// NewFactStore creates an empty store.
func NewFactStore() *FactStore {
	return &FactStore{m: make(map[factKey]any)}
}

// Publish stores a fact about fn under key, replacing any prior value.
func (s *FactStore) Publish(fn *types.Func, key string, value any) {
	s.mu.Lock()
	s.m[factKey{fn, key}] = value
	s.mu.Unlock()
}

// Fact returns the fact published about fn under key, if any.
func (s *FactStore) Fact(fn *types.Func, key string) (any, bool) {
	s.mu.Lock()
	v, ok := s.m[factKey{fn, key}]
	s.mu.Unlock()
	return v, ok
}
