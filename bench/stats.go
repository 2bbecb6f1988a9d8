package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// percentile is the nearest-rank q-quantile (0 < q <= 1) of xs; 0 for
// no samples.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	k = max(0, min(k, len(s)-1))
	return s[k]
}

// quartiles are the three cut points of statistics.quantiles(xs, n=4)
// in Python's default "exclusive" method, the spread a sweep reports.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	m := n + 1
	cut := func(i int) float64 {
		j := max(1, min(i*m/4, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// peakRSSMB is a process's resident-set high-water mark (VmHWM) in MB;
// pid "self" is this process.
func peakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM of %s: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// userHZ is the unit of the CPU times in /proc/<pid>/stat; it is 100 on
// every Linux platform Go supports.
const userHZ = 100

// cpuSeconds is a process's user plus system CPU time.
func cpuSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields after it are
	// counted from the closing parenthesis.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	// utime and stime are fields 14 and 15 of the full line.
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed CPU times in /proc/%d/stat", pid)
	}
	return (ut + st) / userHZ, nil
}

// goGC is a snapshot of this process's garbage-collector totals.
type goGC struct {
	cycles uint32
	pause  time.Duration
}

func readGoGC() goGC {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return goGC{cycles: ms.NumGC, pause: time.Duration(ms.PauseTotalNs)}
}

// settle collects the previous instance's garbage between instances, so
// an instance does not pay for it. It is never timed. It does not return
// the freed heap to the operating system: the next instance would fault
// those pages in again, which made a depth-8 filter instance about a
// quarter slower on a 2-vCPU virtual machine, a cost of the benchmark's
// own making rather than the engine's.
func settle() {
	runtime.GC()
}
