package main

import (
	"bufio"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"syscall"
)

// clampNs stores a duration as uint32 nanoseconds (4.29 s at most), which
// halves the memory of the latency samples.
func clampNs(ns int64) uint32 {
	if ns < 0 {
		return 0
	}
	if ns > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(ns)
}

// percentile returns the exact q-quantile (nearest rank) of samples, sorting
// them in place. It returns 0 for an empty set.
func percentile(samples []uint32, q float64) uint32 {
	if len(samples) == 0 {
		return 0
	}
	slices.Sort(samples) // cheap when a caller already asked for another quantile
	return samples[rankOf(len(samples), q)]
}

// rankOf is the nearest-rank index of the q-quantile among n sorted samples.
func rankOf(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

func percentileUs(samples []uint32, q float64) float64 {
	return float64(percentile(samples, q)) / 1e3
}

// cpuSeconds is the process's user+system CPU time so far. It counts the
// background compaction the wall clock hides.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// resetPeakRSS restarts the kernel's resident-set high-water mark, so the
// peak that is reported belongs to the timed phase and not to trace
// generation. It reports whether the kernel allowed it.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMiB reads the resident-set high-water mark (VmHWM).
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(fields[1], 64)
			return kb / 1024
		}
	}
	return 0
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
