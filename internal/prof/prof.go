// Package prof wires runtime/pprof CPU and heap profiling into the
// command-line tools, so production-shaped runs of diagnose/watch can
// be profiled with the same workflow the benchmarks use
// (`go tool pprof` on the written files).
package prof

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins CPU profiling into cpuPath (when non-empty) and returns
// a stop function that ends the CPU profile and snapshots the heap into
// memPath (when non-empty, after a forced GC so the profile reflects
// live memory). Call stop exactly once, on every exit path that should
// produce profiles. Empty paths make Start and stop no-ops.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpuF *os.File
	if cpuPath != "" {
		cpuF, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("create cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuF); err != nil {
			cpuF.Close()
			return nil, fmt.Errorf("start cpu profile: %w", err)
		}
	}
	return func() error {
		if cpuF != nil {
			pprof.StopCPUProfile()
			if err := cpuF.Close(); err != nil {
				return fmt.Errorf("close cpu profile: %w", err)
			}
		}
		return WriteHeap(memPath)
	}, nil
}

// WriteHeap snapshots the heap into path (when non-empty) after a forced
// GC, so the profile's inuse_space is what the caller can still reach:
// call it while the structures worth asking about are live, not after
// the function that built them has returned.
func WriteHeap(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create mem profile: %w", err)
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("write mem profile: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close mem profile: %w", err)
	}
	return nil
}
