// Package repo implements RPKI publication points: in-memory object stores
// controlled by their issuing authority, a TCP server and client speaking a
// minimal rsync-like synchronization protocol ("rsynclite"), and fault
// injection for modeling the delivery failures at the heart of the paper's
// Side Effects 6 and 7.
//
// Two design decisions of the real RPKI are preserved faithfully because the
// paper's attacks depend on them: (1) objects are stored at directories
// controlled by their *issuer*, not their subject, so an issuer can delete
// or overwrite any object it published ("stealthy revocation"); and (2)
// delivery runs over TCP/IP, whose availability can itself depend on the
// routes the RPKI validates (the circular dependency of Side Effect 7).
package repo

import (
	"crypto/sha256"
	"sync"
)

// Store is one publication point's object store: a flat namespace of files.
// It is safe for concurrent use. The publishing authority may overwrite or
// delete any object at any time — persistently named, mutable objects are an
// RPKI design decision (key rollover support) that enables stealthy
// revocation.
//
// One lock guards the namespace and its version together: every operation,
// Replace and Snapshot included, is atomic, and a listing is taken with the
// version that counts exactly what it shows.
type Store struct {
	mu sync.RWMutex
	// files maps object name to content and digest. guarded by mu.
	files map[string]object
	// version counts mutations, each bumped with the mutation it counts.
	// guarded by mu.
	version uint64
}

// object is one published file with the SHA-256 of its content, computed
// once when it is published so a listing never re-hashes what did not change.
type object struct {
	content []byte
	sum     [sha256.Size]byte
}

// newObject copies content (the caller keeps its slice) and digests it.
func newObject(content []byte) object {
	return object{content: append([]byte(nil), content...), sum: sha256.Sum256(content)}
}

// NewStore returns an empty publication point.
func NewStore() *Store {
	return &Store{files: make(map[string]object)}
}

// Put publishes (or overwrites) an object.
func (s *Store) Put(name string, content []byte) {
	obj := newObject(content)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.files[name] = obj
	s.version++
}

// Delete removes an object. Deleting a never-published name is a no-op.
func (s *Store) Delete(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.files[name]; ok {
		delete(s.files, name)
		s.version++
	}
}

// Get returns the content of an object.
func (s *Store) Get(name string) ([]byte, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	obj, ok := s.files[name]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), obj.content...), true
}

// Infos returns every published object's size and SHA-256, without copying
// or re-hashing contents.
func (s *Store) Infos() map[string]ObjectInfo {
	infos, _ := s.listing()
	return infos
}

// listing returns what Infos does together with the version that counts
// exactly those contents, both read under one lock: equal versions prove
// equal listings, which is the promise a LIST token makes.
func (s *Store) listing() (map[string]ObjectInfo, uint64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]ObjectInfo, len(s.files))
	for name, obj := range s.files {
		out[name] = ObjectInfo{Size: len(obj.content), Hash: obj.sum}
	}
	return out, s.version
}

// Len returns the number of published objects.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.files)
}

// Version returns a counter incremented on every mutation: what the
// server's VERSIONS tokens are built from, and cheap change detection for
// monitors.
func (s *Store) Version() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.version
}

// Snapshot returns a deep copy of the store contents, for diffing by
// monitors and for fetches.
func (s *Store) Snapshot() map[string][]byte {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string][]byte, len(s.files))
	for name, obj := range s.files {
		out[name] = append([]byte(nil), obj.content...)
	}
	return out
}

// Replace atomically replaces the entire contents of the store. The new
// namespace is copied and digested before the lock is taken, so the swap
// is all a reader waits for.
func (s *Store) Replace(files map[string][]byte) {
	next := make(map[string]object, len(files))
	for name, content := range files {
		next[name] = newObject(content)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.files = next
	s.version++
}
