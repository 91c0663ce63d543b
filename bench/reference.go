package main

import (
	"container/heap"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// refSlicer times a fixed reference kernel in short slices between the
// run's intervals, and its mean slice time is the unit of the gated
// host-time metrics. The kernel mixes the simulator's kinds of work — a
// floating-point loop, dependent loads from a 32 MiB table, and
// binary-heap event scheduling — and imports nothing from the
// simulator, so no change to the simulator moves it. The shared host's
// speed drifts by tens of percent from minute to minute and jitters
// from one tenth of a second to the next; sampling it through the run,
// rather than around it, cancels most of both from the ratio (README.md
// has the measurements).
//
// A slice runs the kernel on every CPU at once, one lane each, since the
// run uses them all; its unit is a lane's mean time, taken twice: on the
// wall clock, the unit of wall time, and on the lane thread's CPU clock,
// the unit of CPU time, which a stolen or descheduled processor does not
// advance. A slice takes 1-2 ms, at most one every sliceEvery, and the
// time and CPU it uses are taken out of the run's and out of the
// interval it follows.
type refSlicer struct {
	// table is the load chain: one full-period LCG cycle over its 2^23
	// four-byte slots, in an order no prefetcher follows. It is mapped
	// outside the Go heap, so it changes neither the garbage collector's
	// pacing nor the run's memory metrics. Lanes only read it.
	table []byte
	lanes []*refLane

	wallUnit, cpuUnit time.Duration // summed over the slices
	n                 int
	last              time.Time     // end of the last slice
	wallUsed, cpuUsed time.Duration // by all slices, on every lane
}

// refLane is one CPU's share of a slice, with its own kernel state.
type refLane struct {
	j         uint32
	h         refHeap
	busy      []float64
	rng       *rand.Rand
	x         float64
	wall, cpu time.Duration // of the last slice
}

const (
	sliceEvery  = 50 * time.Millisecond
	refSlots    = 1 << 23
	refHeapSize = 1 << 14
	refNodes    = 1 << 16
)

func newRefSlicer() (*refSlicer, error) {
	table, err := syscall.Mmap(-1, 0, 4*refSlots, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("reference table: %w", err)
	}
	for i := 0; i < refSlots; i++ {
		binary.LittleEndian.PutUint32(table[4*i:], uint32((1664525*i+1013904223)&(refSlots-1)))
	}
	s := &refSlicer{table: table}
	for c := 0; c < runtime.NumCPU(); c++ {
		l := &refLane{j: uint32(c) * (refSlots / 16), h: make(refHeap, refHeapSize), busy: make([]float64, refNodes), rng: rand.New(rand.NewSource(int64(c) + 1)), x: 1}
		for i := range l.h {
			l.h[i] = refEvent{t: l.rng.ExpFloat64(), node: int32(l.rng.Intn(refNodes))}
		}
		heap.Init(&l.h)
		s.lanes = append(s.lanes, l)
	}
	return s, nil
}

// slice runs one slice if sliceEvery has passed since the last one, and
// reports whether it did.
func (s *refSlicer) slice() bool {
	t0 := time.Now()
	if s.n > 0 && t0.Sub(s.last) < sliceEvery {
		return false
	}
	var wg sync.WaitGroup
	for _, l := range s.lanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.run(s.table)
		}()
	}
	wg.Wait()
	lanes := time.Duration(len(s.lanes))
	for _, l := range s.lanes {
		s.wallUnit += l.wall / lanes
		s.cpuUnit += l.cpu / lanes
		s.cpuUsed += l.cpu
	}
	s.last = time.Now()
	s.wallUsed += s.last.Sub(t0)
	s.n++
	return true
}

// run is one lane's kernel, locked to its thread so that the thread's
// CPU clock is the lane's.
func (l *refLane) run(table []byte) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0, c0 := time.Now(), threadCPU()
	for i := 0; i < 100_000; i++ {
		l.x = l.x*1.0000001 + 1e-9
	}
	for i := 0; i < 1000; i++ {
		l.j = binary.LittleEndian.Uint32(table[4*l.j:])
	}
	for i := 0; i < 1000; i++ {
		e := l.h[0]
		l.busy[e.node] += e.t
		l.h[0] = refEvent{t: e.t + l.rng.ExpFloat64(), node: int32(l.rng.Intn(refNodes))}
		heap.Fix(&l.h, 0)
	}
	l.cpu = threadCPU() - c0
	l.wall = time.Since(t0)
}

// meanWall and meanCPU are the wall and CPU reference units in seconds.
func (s *refSlicer) meanWall() float64 { return s.wallUnit.Seconds() / float64(max(s.n, 1)) }
func (s *refSlicer) meanCPU() float64  { return s.cpuUnit.Seconds() / float64(max(s.n, 1)) }

// threadCPU is the calling thread's CPU time, to the nanosecond.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0) // cannot fail for this clock
	return time.Duration(ts.Nano())
}

// close unmaps the table.
func (s *refSlicer) close() error {
	if err := syscall.Munmap(s.table); err != nil {
		return fmt.Errorf("reference table: %w", err)
	}
	return nil
}

type refEvent struct {
	t    float64
	node int32
}

type refHeap []refEvent

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].t < h[j].t }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}
