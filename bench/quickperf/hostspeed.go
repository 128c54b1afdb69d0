package main

import (
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark runs on shares its CPUs, caches and memory with
// other tenants. Its speed drifts by 20% or more within minutes, in CPU
// time as much as in wall time, and wanders by several percent from one
// second to the next. A run therefore measures the host's speed as it
// goes: between rounds of the timed loop, every probeEvery, both CPUs run
// a short fixed probe. Host-time metrics are reported in reference-host
// units, the raw time scaled by the host speed the probes saw, so a slow
// phase of the host does not read as a slower program. The probe is the
// benchmark's own code, so a change to the program never changes it.
//
// The probe has two parts, timed apart: random reads over a table twice
// the size of a core's L2, which land in the L3 the host's tenants share,
// and cache-resident ALU work, a sort and map lookups. The first slows
// more than the pipeline when the host is contended, the second less;
// the geometric mean of their speeds tracks the pipeline on every
// workload (see bench/README.md). The parts and nominal times below are
// as calibrated: changing them moves every normalised metric.

const (
	// probeEvery spaces the probes finely: the host's speed varies within
	// a second, and many short probes average over that. The probes take
	// 4-14% of the loop, and are left out of its measurements.
	probeEvery  = 25 * time.Millisecond
	probeRounds = 9
	// Each part's CPU time per goroutine on the reference host (2 vCPUs
	// of an Intel Xeon under KVM, Go 1.24), where host speed reads about 1.
	nominalMemorySeconds  = 1.5e-3
	nominalComputeSeconds = 1.0e-3
	probeTableLen         = 1 << 20 // 4 MiB of uint32
)

// The probe's fixed inputs, built once and never written: the table and a
// map with string keys. Each probe reads them once, untimed, before it
// starts, so what the pipeline left in the caches does not change the
// probe's time.
var (
	probeTable = func() []uint32 {
		t := make([]uint32, probeTableLen)
		x := uint32(2463534242)
		for i := range t {
			x ^= x << 13
			x ^= x >> 17
			x ^= x << 5
			t[i] = x
		}
		return t
	}()
	probeKeys = func() []string {
		k := make([]string, 1024)
		for i := range k {
			k[i] = "key-" + strconv.Itoa(i*7919)
		}
		return k
	}()
	probeMap = func() map[string]int {
		m := make(map[string]int, len(probeKeys))
		for i, k := range probeKeys {
			m[k] = i
		}
		return m
	}()
)

// probeMemory is the probe's memory-bound part: random reads over the
// table with data-dependent branches, then a sort and map lookups. The
// same work on every call, with no allocation.
func probeMemory(rounds int) uint64 {
	x := uint64(88172645463325252)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	var acc uint64
	var buf [256]int
	for r := 0; r < rounds; r++ {
		for i := 0; i < 8192; i++ {
			v := probeTable[next()&(probeTableLen-1)]
			if v&1 == 0 {
				acc += uint64(v) ^ x
			} else {
				acc -= uint64(v >> 3)
			}
		}
		for i := range buf {
			buf[i] = int(next() & 0xffff)
		}
		sort.Ints(buf[:])
		for i := 0; i < 1024; i++ {
			acc += uint64(probeMap[probeKeys[next()&1023]]) + uint64(buf[i&255])
		}
	}
	return acc
}

// probeCompute is the probe's cache-resident part: ALU work over a 4 KiB
// table it updates, with data-dependent branches, then a sort and map
// lookups.
func probeCompute(rounds int) uint64 {
	var tab [512]uint64
	for i := range tab {
		tab[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	x := uint64(88172645463325252)
	var acc uint64
	var buf [256]int
	for r := 0; r < rounds; r++ {
		for i := 0; i < 8192; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			v := tab[x&511]
			if v&1 == 0 {
				acc += v ^ x
			} else {
				acc -= v >> 3
			}
			tab[(x>>9)&511] = v + acc
		}
		for i := range buf {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			buf[i] = int(x & 0xffff)
		}
		sort.Ints(buf[:])
		for i := 0; i < 1024; i++ {
			acc += uint64(probeMap[probeKeys[(x>>uint(i&7))&1023]]) + uint64(buf[i&255])
		}
	}
	return acc
}

// probeWarm reads the probe's table and map once.
func probeWarm() uint64 {
	var acc uint64
	for _, v := range probeTable {
		acc += uint64(v)
	}
	for _, k := range probeKeys {
		acc += uint64(probeMap[k])
	}
	return acc
}

// probeSink keeps the compiler from discarding the probe's work.
var probeSink uint64

// clockThreadCPUTime is Linux's CLOCK_THREAD_CPUTIME_ID, which the
// syscall package does not name.
const clockThreadCPUTime = 3

// threadCPU returns the calling OS thread's CPU time, to the nanosecond
// (getrusage's per-thread figure only advances at scheduler ticks).
func threadCPU() time.Duration {
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// hostSpeed accumulates probe measurements; probes run one at a time.
type hostSpeed struct {
	probes          int
	memory, compute time.Duration // summed CPU time of each part, per goroutine
}

// probe runs both parts on one goroutine per client at once, each locked
// to its OS thread and timed by its thread's CPU clock: the time the
// probe executed, whatever else the process's goroutines did. It first
// waits out any garbage collection in progress and holds off the next
// one; that wait counts as the program's time. It returns the wall and
// process CPU time the probe took after the wait.
func (h *hostSpeed) probe() (wall, cpu time.Duration) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	begun := time.Now()
	cpu0, _ := cpuTime()
	var warm, done sync.WaitGroup
	begin := make(chan struct{})
	sums := make([]uint64, clients)
	memory := make([]time.Duration, clients)
	compute := make([]time.Duration, clients)
	for i := range sums {
		warm.Add(1)
		done.Add(1)
		go func(i int) {
			defer done.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			sums[i] = probeWarm()
			warm.Done()
			<-begin
			t0 := threadCPU()
			sums[i] += probeMemory(probeRounds)
			t1 := threadCPU()
			sums[i] += probeCompute(probeRounds)
			memory[i], compute[i] = t1-t0, threadCPU()-t1
		}(i)
	}
	warm.Wait()
	close(begin)
	done.Wait()
	for i := range sums {
		probeSink += sums[i]
		h.memory += memory[i] / clients
		h.compute += compute[i] / clients
	}
	h.probes++
	cpu1, _ := cpuTime()
	return time.Since(begun), cpu1 - cpu0
}

// factor is the host's speed relative to the reference host over every
// probe so far, the geometric mean of the two parts' speeds: above 1
// when the host ran faster.
func (h *hostSpeed) factor() float64 {
	n := float64(h.probes)
	return math.Sqrt(n * nominalMemorySeconds / h.memory.Seconds() * n * nominalComputeSeconds / h.compute.Seconds())
}

// rssMB returns the process's resident set size in MB, from
// /proc/self/statm, or 0 where that is unavailable.
func rssMB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / 1e6
}
