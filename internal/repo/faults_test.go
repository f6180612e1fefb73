package repo

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestFaultPlanIsOneDecision: a request reads its fault plan once, so no reply
// shows a state the plan never held. The plan below only ever corrupts a.roa
// before b.roa, so no LIST may list b.roa corrupted and a.roa clean; it only
// ever truncates x.roa while corrupting it, so no GET may serve x.roa torn but
// uncorrupted.
func TestFaultPlanIsOneDecision(t *testing.T) {
	const requests = 10000
	content := bytes.Repeat([]byte("route origin authorization "), 4)
	store := NewStore()
	for _, name := range []string{"a.roa", "b.roa", "x.roa"} {
		store.Put(name, content)
	}
	faults := NewFaults()
	srv := NewServer()
	srv.AddModule("m", store, faults)
	damaged := corruptBytes(content)

	// flip runs the fault loop until the returned stop is called.
	flip := func(steps ...func()) (stop func()) {
		quit, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			for {
				select {
				case <-quit:
					return
				default:
				}
				for _, step := range steps {
					step()
				}
			}
		}()
		return func() { close(quit); <-done }
	}
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)

	t.Run("LIST", func(t *testing.T) {
		corruptLine := func(name string) string {
			return string(appendListEntry(nil, name, ObjectInfo{Size: len(damaged), Hash: sha256.Sum256(damaged)}))
		}
		aBad, bBad := corruptLine("a.roa"), corruptLine("b.roa")
		stop := flip(func() { faults.Corrupt("a.roa") }, func() { faults.Corrupt("b.roa") }, func() { faults.Restore("") })
		mixed, both := 0, 0
		for i := 0; i < requests; i++ {
			buf.Reset()
			if !srv.serveList(w, "m") || w.Flush() != nil {
				stop()
				t.Fatalf("LIST %d failed", i)
			}
			reply := buf.String()
			a, b := strings.Contains(reply, aBad), strings.Contains(reply, bBad)
			if b && !a {
				mixed++
			}
			if a && b {
				both++
			}
		}
		stop()
		faults.Restore("")
		t.Logf("%d of %d LISTs listed both objects corrupted", both, requests)
		if mixed > 0 {
			t.Errorf("%d of %d LISTs listed b.roa corrupted and a.roa clean, a state the plan never held", mixed, requests)
		}
	})

	t.Run("GET", func(t *testing.T) {
		stop := flip(func() { faults.Corrupt("x.roa") }, func() { faults.Truncate("x.roa") }, func() { faults.Restore("") })
		tornClean, torn := 0, 0
		for i := 0; i < requests; i++ {
			buf.Reset()
			srv.serveGet(w, "m", "x.roa")
			_ = w.Flush()
			header, body, _ := bytes.Cut(buf.Bytes(), []byte("\n"))
			size, err := strconv.Atoi(strings.TrimPrefix(string(header), "OK "))
			if err != nil || size != len(content) || len(body) > size {
				stop()
				t.Fatalf("GET %d: reply %q", i, buf.Bytes())
			}
			if len(body) == size {
				continue
			}
			torn++
			if bytes.Equal(body, content[:len(body)]) {
				tornClean++
			}
		}
		stop()
		faults.Restore("")
		t.Logf("%d of %d GETs torn", torn, requests)
		if tornClean > 0 {
			t.Errorf("%d of %d GETs served x.roa torn but uncorrupted, a state the plan never held", tornClean, requests)
		}
	})
}

// TestRestoreNameClearsOnlyThatName: for each per-object setter, Restore(name)
// clears that name's fault and leaves another name's, and the module-level
// faults, in place.
func TestRestoreNameClearsOnlyThatName(t *testing.T) {
	store := NewStore()
	store.Put("x.roa", []byte("x"))
	store.Put("y.roa", []byte("y"))
	frozen := map[string]ObjectInfo{"old.roa": {Size: 1}}
	for _, tc := range []struct {
		setter  string
		set     func(f *Faults, name string)
		faulted func(v verdict) bool
	}{
		{"Drop", func(f *Faults, name string) { f.Drop(name) }, func(v verdict) bool { return v.hide }},
		{"Corrupt", func(f *Faults, name string) { f.Corrupt(name) }, func(v verdict) bool { return v.corrupt }},
		{"DelayObject", func(f *Faults, name string) { f.DelayObject(name, time.Minute) }, func(v verdict) bool { return v.wait == time.Minute }},
		{"FailRate", func(f *Faults, name string) { f.FailRate(name, 1, 1) }, func(v verdict) bool { return v.fail }},
		{"Truncate", func(f *Faults, name string) { f.Truncate(name) }, func(v verdict) bool { return v.truncate }},
		{"CorruptRate", func(f *Faults, name string) { f.CorruptRate(name, 1, 1) }, func(v verdict) bool { return v.corrupt }},
	} {
		t.Run(tc.setter, func(t *testing.T) {
			f := NewFaults()
			f.SetDelay(time.Minute)
			f.SetSlowLoris(time.Second)
			f.SetBandwidth(100)
			f.FreezeListing(frozen)
			f.FreezeVersion(7)
			f.EchoListing(time.Millisecond)
			for _, name := range []string{"x.roa", "y.roa"} {
				tc.set(f, name)
				if !tc.faulted(f.decide("GET", name, store)) {
					t.Fatalf("%s(%s) injected nothing", tc.setter, name)
				}
			}
			f.Restore("x.roa")
			if tc.faulted(f.decide("GET", "x.roa", store)) {
				t.Errorf("Restore(x.roa) left x.roa's %s", tc.setter)
			}
			if !tc.faulted(f.decide("GET", "y.roa", store)) {
				t.Errorf("Restore(x.roa) cleared y.roa's %s", tc.setter)
			}
			get, list := f.decide("GET", "x.roa", store), f.decide("LIST", "", store)
			if get.delay != time.Minute || get.slowLoris != time.Second || get.bandwidth != 100 ||
				len(list.listing) != 1 || list.listing["old.roa"].Size != 1 || !list.pinned || list.version != 7 || list.echo != time.Millisecond {
				t.Errorf("Restore(x.roa) touched the module-level faults: GET %+v, LIST %+v", get, list)
			}
		})
	}
}

// TestCorruptRateSkipsMissingObject: a GET of an object the store does not
// hold is answered "no such object" without advancing the object's
// CorruptRate cycle, so the first GET once it is published is the cycle's
// first, and corrupted.
func TestCorruptRateSkipsMissingObject(t *testing.T) {
	store := NewStore()
	f := NewFaults()
	f.CorruptRate("x.roa", 1, 2)
	for i := 0; i < 3; i++ {
		if v := f.decide("GET", "x.roa", store); v.stored || v.corrupt {
			t.Fatalf("GET %d of a missing object: %+v", i, v)
		}
	}
	store.Put("x.roa", []byte("x"))
	for i, want := range []bool{true, false, true} {
		if v := f.decide("GET", "x.roa", store); !v.stored || v.corrupt != want {
			t.Errorf("GET %d once published: corrupt = %v, want %v", i, v.corrupt, want)
		}
	}
}
