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
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// storeShardCount is the number of lock shards per store. Sixteen keeps
// per-shard contention negligible even with tens of validation workers
// hammering one publication point, at a fixed 16-mutex cost per store.
const storeShardCount = 16

// Store is one publication point's object store: a flat namespace of files.
// It is safe for concurrent use. The publishing authority may overwrite or
// delete any object at any time — persistently named, mutable objects are an
// RPKI design decision (key rollover support) that enables stealthy
// revocation.
//
// The namespace is sharded across storeShardCount locks so that concurrent
// readers (parallel relying-party workers, monitors) do not serialize on one
// mutex. Single-object operations are atomic; Snapshot and Replace are
// atomic per shard, which preserves the pre-sharding guarantee observable by
// fetchers (a snapshot could always land between two Puts of a multi-object
// republish).
type Store struct {
	shards [storeShardCount]storeShard
	// version counts mutations. It is bumped after the mutation lands,
	// while the mutated shard's lock is still held: a reader that observes
	// version v before snapshotting therefore sees every mutation counted
	// by v, so version-equality proves snapshot-equality (never the
	// reverse order, which would let an unchanged version hide new data).
	version atomic.Uint64
}

type storeShard struct {
	mu sync.RWMutex
	// files maps object name to content and digest. guarded by mu.
	files map[string]object
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
	s := &Store{}
	for i := range s.shards {
		//lint:ignore guardedby the store is not yet published to any other goroutine
		s.shards[i].files = make(map[string]object)
	}
	return s
}

// shardIndex picks the lock shard for an object name (FNV-1a).
func shardIndex(name string) int {
	const offset, prime = 2166136261, 16777619
	h := uint32(offset)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint32(name[i])) * prime
	}
	return int(h % storeShardCount)
}

// Put publishes (or overwrites) an object.
func (s *Store) Put(name string, content []byte) {
	sh := &s.shards[shardIndex(name)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.files[name] = newObject(content)
	s.version.Add(1)
}

// Delete removes an object. Deleting a never-published name is a no-op.
func (s *Store) Delete(name string) {
	sh := &s.shards[shardIndex(name)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.files[name]; ok {
		delete(sh.files, name)
		s.version.Add(1)
	}
}

// Get returns the content of an object.
func (s *Store) Get(name string) ([]byte, bool) {
	sh := &s.shards[shardIndex(name)]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	obj, ok := sh.files[name]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), obj.content...), true
}

// Infos returns every published object's size and SHA-256, without copying
// or re-hashing contents.
func (s *Store) Infos() map[string]ObjectInfo {
	out := make(map[string]ObjectInfo, s.Len())
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for name, obj := range sh.files {
			out[name] = ObjectInfo{Size: len(obj.content), Hash: obj.sum}
		}
		sh.mu.RUnlock()
	}
	return out
}

// List returns the sorted names of all published objects.
func (s *Store) List() []string {
	var names []string
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for name := range sh.files {
			names = append(names, name)
		}
		sh.mu.RUnlock()
	}
	sort.Strings(names)
	return names
}

// Len returns the number of published objects.
func (s *Store) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += len(sh.files)
		sh.mu.RUnlock()
	}
	return n
}

// Version returns a counter incremented on every mutation: what the
// server's LIST and VERSIONS tokens are built from, and cheap change
// detection for monitors. A version read before a snapshot or a listing
// counts every mutation that snapshot or listing holds (see Store.version),
// so an unchanged token never stands for changed content.
func (s *Store) Version() uint64 {
	return s.version.Load()
}

// Snapshot returns a deep copy of the store contents, for diffing by
// monitors and for fetches.
func (s *Store) Snapshot() map[string][]byte {
	out := make(map[string][]byte, s.Len())
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for name, obj := range sh.files {
			out[name] = append([]byte(nil), obj.content...)
		}
		sh.mu.RUnlock()
	}
	return out
}

// Replace atomically replaces the entire contents of the store. The new
// namespace is copied and digested before any lock is taken; all shard locks
// are then held for the swap, so no reader observes a mix of old and new
// contents.
func (s *Store) Replace(files map[string][]byte) {
	var next [storeShardCount]map[string]object
	for i := range next {
		next[i] = make(map[string]object, len(files)/storeShardCount+1)
	}
	for name, content := range files {
		next[shardIndex(name)][name] = newObject(content)
	}
	for i := range s.shards {
		s.shards[i].mu.Lock()
	}
	for i := range s.shards {
		s.shards[i].files = next[i]
	}
	s.version.Add(1)
	for i := range s.shards {
		s.shards[i].mu.Unlock()
	}
}

// String summarizes the store.
func (s *Store) String() string {
	return fmt.Sprintf("store{%d objects, v%d}", s.Len(), s.Version())
}
