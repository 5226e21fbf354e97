package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// sample is a set of measurements of one quantity.
type sample []float64

// quantile returns the p-quantile by the nearest-rank rule, or 0 for an
// empty sample.
func (s sample) quantile(p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append(sample(nil), s...)
	sort.Float64s(c)
	i := int(math.Ceil(p*float64(len(c)))) - 1
	return c[min(max(i, 0), len(c)-1)]
}

func (s sample) median() float64 { return s.quantile(0.5) }

func (s sample) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t / float64(len(s))
}

// series groups measurements into consecutive windows of the measured
// phase. The plain percentiles (decide_p99_ms) are taken over all
// measurements; the windowed ones (decide_p99_win_ms) are the median
// across windows of each window's figure, so a burst of noise from
// outside the system moves one window rather than the figure.
type series struct {
	win []sample
}

// add records v in window w.
func (s *series) add(w int, v float64) {
	for len(s.win) <= w {
		s.win = append(s.win, nil)
	}
	s.win[w] = append(s.win[w], v)
}

// n is the number of measurements.
func (s *series) n() int {
	t := 0
	for _, w := range s.win {
		t += len(w)
	}
	return t
}

// all returns every measurement in one sample.
func (s *series) all() sample {
	var out sample
	for _, w := range s.win {
		out = append(out, w...)
	}
	return out
}

// quantile is the median over windows of each window's p-quantile.
// Windows too small to hold a sample beyond the p-quantile are skipped;
// if none is large enough, it is the p-quantile of all measurements.
func (s *series) quantile(p float64) float64 {
	var per sample
	for _, w := range s.win {
		if float64(len(w))*(1-p) >= 1 {
			per = append(per, w.quantile(p))
		}
	}
	if len(per) == 0 {
		return s.all().quantile(p)
	}
	return per.median()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// metric is one reported figure.
type metric struct {
	Name  string
	Value float64
	Unit  string
	N     int // samples behind the figure, 0 when not a sample statistic
}

// report collects a run's figures and prints them: one human-readable
// line per figure, then the result object as the last line.
type report struct {
	workload string
	lines    []metric
	keys     map[string]bool // names that go into the result object
}

func newReport(workload string) *report { return &report{workload: workload, keys: map[string]bool{}} }

// add records a figure; result selects it for the result object.
func (r *report) add(name string, value float64, unit string, n int, result bool) {
	r.lines = append(r.lines, metric{name, value, unit, n})
	if result {
		r.keys[name] = true
	}
}

func (r *report) print(correct bool, attempted, failed int) {
	metrics := map[string]any{}
	for _, m := range r.lines {
		n := ""
		if m.N > 0 {
			n = fmt.Sprintf("  (n=%d)", m.N)
		}
		fmt.Printf("%-12s %-34s %14s %-6s%s\n", r.workload, m.Name, strconv.FormatFloat(m.Value, 'f', -1, 64), m.Unit, n)
		if r.keys[m.Name] {
			metrics[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
		}
	}
	out, err := json.Marshal(map[string]any{"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// cpuSeconds reads the user plus system CPU time a process has used
// from /proc/<pid>/stat ("self" for this process).
func cpuSeconds(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; the fields after it are fixed.
	f := strings.Fields(string(b[strings.LastIndexByte(string(b), ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%s/stat", pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%s/stat", pid)
	}
	return (utime + stime) / clockTicks, nil
}

// selfCPU reads the user plus system CPU time this process has used, at
// microsecond resolution.
func selfCPU() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9, nil
}

// resetPeakRSS resets this process's VmHWM to its current RSS.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat times; it is 100
// on every Linux architecture Go supports.
const clockTicks = 100

// peakRSSMB reads VmHWM of a process from /proc.
func peakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}
