package obs

// Profiling comes in two flavors and this file is the single seam both go
// through:
//
//   - File profiles (StartCPUProfile / WriteHeapProfile) suit batch runs —
//     a one-shot `rpki-rp` sync — where the process exits and there is no
//     server to query. The daemon's -cpuprofile/-memprofile flags land
//     here.
//   - HTTP profiles (/debug/pprof on the ops server) suit the polling
//     daemon: attach `go tool pprof http://host/debug/pprof/profile` to a
//     live process without restarting it, sample exactly the window you
//     care about, and never leave files behind.
//
// Rule of thumb: if the process outlives your question, use HTTP; if the
// question outlives the process, use files.

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// StartCPUProfile begins writing a CPU profile to path and returns a stop
// function that ends the profile and closes the file. An empty path is a
// no-op (the returned stop is still non-nil).
func StartCPUProfile(path string) (stop func() error, err error) {
	if path == "" {
		return func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		closeErr := f.Close()
		if closeErr != nil {
			return nil, fmt.Errorf("cpu profile: %w (close: %v)", err, closeErr)
		}
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// WriteHeapProfile garbage-collects for up-to-date accounting and writes a
// heap profile to path. An empty path is a no-op.
func WriteHeapProfile(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("heap profile: %w", err)
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		closeErr := f.Close()
		if closeErr != nil {
			return fmt.Errorf("heap profile: %w (close: %v)", err, closeErr)
		}
		return fmt.Errorf("heap profile: %w", err)
	}
	return f.Close()
}
