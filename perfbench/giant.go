package main

// The giant workload calls the library in process, the way `cqa batch
// -db` and `cqa solve -db` do: the instance is written as CSV, bulk-loaded
// with instance.ReadCSVParallel and served from a cqa.Registry.

import (
	"bufio"
	"context"
	"encoding/csv"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"cqa"
	"cqa/internal/instance"
)

// writeCSV writes the instance's facts, in generation order, as
// rel,key,val rows.
func writeCSV(path string, facts []cqa.Fact) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	cw := csv.NewWriter(w)
	for _, ft := range facts {
		if err := cw.Write([]string{ft.Rel, ft.Key, ft.Val}); err != nil {
			f.Close()
			return err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// loadGiant bulk-loads the CSV file.
func loadGiant(path string) (*cqa.Instance, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return instance.ReadCSVParallel(f, runtime.GOMAXPROCS(0))
}

// giantRun is what one giant run measured.
type giantRun struct {
	setup, cold, load sample // seconds, one per set-up repetition
	// One window: a giant segment's decisions are not spread evenly in
	// time, so windows of equal length would hold different mixes.
	decide             series  // ms
	firstAfter, mutate sample  // ms
	dps                float64 // decisions per second
	executed           int     // ops of the stream run before the time ran out
	attempted, failed  int
	firstFailure       string
	rssMB              float64
	cpuPerOp           float64 // us of process CPU per timed op
	reg                *cqa.Registry
	// coldAnswers are the set-up decisions of every repetition, checked
	// once the reference is known.
	coldAnswers []answer
}

// answer is one decision of a word.
type answer struct {
	word    int
	certain bool
}

func (r *giantRun) fail(err error) {
	r.failed++
	if r.firstFailure == "" {
		r.firstFailure = err.Error()
	}
}

// setupGiant loads the CSV into a fresh registry and decides every word
// once: the cold pass.
func setupGiant(path string, wl *Workload, run *giantRun) (*cqa.Registry, error) {
	t0 := time.Now()
	db, err := loadGiant(path)
	if err != nil {
		return nil, err
	}
	run.load = append(run.load, time.Since(t0).Seconds())
	reg := cqa.NewRegistry(cqa.NewEngine(cqa.EngineConfig{}))
	name := wl.Instances[0].Name
	if err := reg.Register(name, db); err != nil {
		return nil, err
	}
	tc := time.Now()
	for _, p := range wl.Warm {
		run.attempted++
		res, err := reg.Query(context.Background(), name, cqa.MustParseQuery(wl.Words[p[1]]), cqa.Options{})
		if err != nil {
			run.fail(err)
			continue
		}
		run.coldAnswers = append(run.coldAnswers, answer{p[1], res.Certain})
	}
	run.cold = append(run.cold, time.Since(tc).Seconds())
	run.setup = append(run.setup, time.Since(t0).Seconds())
	return reg, nil
}

// runGiant runs reps set-ups, then the closed-loop stream for d, then
// checks every decision against the reference. The peak RSS covers the
// last set-up and the stream, as a serve daemon's covers its own; the
// reference is computed only after it has been read, so that its cold
// decisions on a copy of the instance do not count in the figure.
func runGiant(outDir string, wl *Workload, reps int, d time.Duration) (*giantRun, *checker, error) {
	path := filepath.Join(outDir, "giant-"+strconv.FormatInt(wl.Seed, 10)+".csv")
	if err := writeCSV(path, wl.Instances[0].Facts); err != nil {
		return nil, nil, err
	}
	defer os.Remove(path)
	run := &giantRun{}
	for rep := 0; rep < reps; rep++ {
		run.reg = nil
		runtime.GC() // the previous repetition's instance must not inflate this one
		if rep == reps-1 {
			if err := resetPeakRSS(); err != nil {
				return nil, nil, err
			}
		}
		reg, err := setupGiant(path, wl, run)
		if err != nil {
			return nil, nil, err
		}
		run.reg = reg
	}
	name := wl.Instances[0].Name
	queries := make([]cqa.Query, len(wl.Words))
	for i, w := range wl.Words {
		queries[i] = cqa.MustParseQuery(w)
	}
	got := make([]bool, len(wl.Ops))
	ok := make([]bool, len(wl.Ops))
	seen := map[int]bool{}
	mutated := false
	ctx := context.Background()
	// CPU is charged to the whole timed phase. Segments have the same op
	// mix but not the same cost: some rebuild artifacts cold and cost ten
	// times others, so a median over segments jumps between those modes,
	// while the total over the run's many segments averages them.
	cpu0, err := selfCPU()
	if err != nil {
		return nil, nil, err
	}
	start := time.Now()
	deadline := start.Add(d)
	for i, op := range wl.Ops {
		if !time.Now().Before(deadline) {
			break
		}
		run.executed = i + 1
		run.attempted++
		t := time.Now()
		if op.Kind == OpMutate {
			_, err := run.reg.Mutate(name, cqa.Mutation{Add: op.Add, Remove: op.Del})
			if err != nil {
				run.fail(err)
				continue
			}
			run.mutate = append(run.mutate, ms(time.Since(t)))
			mutated, seen = true, map[int]bool{}
			continue
		}
		res, err := run.reg.Query(ctx, name, queries[op.Word], cqa.Options{})
		lat := ms(time.Since(t))
		if err != nil {
			run.fail(err)
			continue
		}
		run.decide.add(0, lat)
		if mutated && !seen[op.Word] {
			run.firstAfter = append(run.firstAfter, lat)
		}
		seen[op.Word] = true
		got[i], ok[i] = res.Certain, true
	}
	run.dps = float64(run.decide.n()) / time.Since(start).Seconds()
	cpu1, err := selfCPU()
	if err != nil {
		return nil, nil, err
	}
	if run.executed == 0 {
		return nil, nil, errors.New("giant: no op ran in the timed phase")
	}
	run.cpuPerOp = (cpu1 - cpu0) * 1e6 / float64(run.executed)
	if run.rssMB, err = peakRSSMB("self"); err != nil {
		return nil, nil, err
	}

	// Reference answers for the set-up and the executed prefix, outside
	// the timed window.
	at, _ := opVersions(wl, run.executed)
	keys := warmKeys(wl)
	for i := 0; i < run.executed; i++ {
		if wl.Ops[i].Kind == OpQuery {
			keys = append(keys, refKey{0, at[i], wl.Ops[i].Word})
		}
	}
	ref, err := References(wl, run.executed, keys)
	if err != nil {
		return nil, nil, err
	}
	if err := assertMixed(wl, ref, warmKeys(wl)); err != nil {
		return nil, nil, err
	}
	chk := newChecker(wl, ref)
	for _, a := range run.coldAnswers {
		chk.check(refKey{0, 0, a.word}, a.certain)
	}
	for i := 0; i < run.executed; i++ {
		if ok[i] {
			chk.check(refKey{0, at[i], wl.Ops[i].Word}, got[i])
		}
	}
	return run, chk, nil
}
