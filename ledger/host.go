package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; it is
// 100 on every Linux architecture Go supports.
const clockTick = 100

// cpuSeconds returns the user+system CPU time pid has consumed, summed
// over its threads. Steal is never charged to a process, which is why
// CPU per operation repeats where throughput does not.
func cpuSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th fields overall.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("parse /proc/%d/stat", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("parse /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc/%d/stat", pid)
	}
	return float64(ut+st) / clockTick, nil
}

// peakRSSMB returns VmHWM, the peak resident set of pid, in MiB.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// liveHeapMB collects garbage in this process and returns the heap still
// in use, in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// cpuTimes is the aggregate "cpu" line of /proc/stat.
type cpuTimes struct{ total, steal uint64 }

func readCPUTimes() cpuTimes {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	var t cpuTimes
	for i, s := range f[1:] {
		v, _ := strconv.ParseUint(s, 10, 64)
		t.total += v
		if i == 7 { // user nice system idle iowait irq softirq steal
			t.steal = v
		}
	}
	return t
}

// stealShare is the fraction of the host's CPU time between a and b that
// the hypervisor gave to other guests.
func stealShare(a, b cpuTimes) float64 {
	return ratio(float64(b.steal-a.steal), float64(b.total-a.total))
}

// refLoopNs times a fixed pointer chase over an 8 MiB permutation mixed
// with integer work, in ns per step. It depends only on the host, so a
// slow run with a slow reference loop was a slow host, not slow code.
func refLoopNs() float64 {
	const n, steps = 1 << 21, 1 << 18
	next := make([]int32, n)
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for i := range perm {
		next[perm[i]] = int32(perm[(i+1)%n])
	}
	start := time.Now()
	var p int32
	var h uint64 = 1
	for i := 0; i < steps; i++ {
		p = next[p]
		h = h*6364136223846793005 + uint64(p)
	}
	el := time.Since(start)
	if h == 0 {
		fmt.Fprintln(os.Stderr, "unreachable")
	}
	return float64(el.Nanoseconds()) / steps
}
