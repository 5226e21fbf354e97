package main

// Reference answers and the checker. Every decision the benchmark
// observes is compared with an answer computed outside the timed window
// on a separate cqa.Engine that shares no plan or memo with the measured
// path: FO, NL and PTIME words are forced onto the fixpoint tier, coNP
// words onto the SAT tier, single-core, and always as a cold build.

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"

	"cqa"
)

// refKey names one expected answer: a word on an instance version, where
// version v is the instance after the first v mutations of the stream
// that touch it.
type refKey struct{ Inst, Version, Word int }

// refOptions forces the independent tier for a class.
func refOptions(c cqa.Class) cqa.Options {
	m := cqa.MethodFixpoint
	if c == cqa.CoNP {
		m = cqa.MethodSAT
	}
	return cqa.Options{Force: m, SolveWorkers: 1}
}

// refDecide is the reference decision of word on db, on engine eng.
func refDecide(eng *cqa.Engine, word string, db *cqa.Instance) (bool, error) {
	q := cqa.MustParseQuery(word)
	res, err := eng.CertainOptCtx(context.Background(), q, db, refOptions(cqa.Classify(q)))
	if err != nil {
		return false, fmt.Errorf("reference %s: %w", word, err)
	}
	return res.Certain, nil
}

// newRefEngine returns an engine configured for reference decisions:
// every decision single-core, a plan cache large enough for a whole
// vocabulary.
func newRefEngine() *cqa.Engine {
	return cqa.NewEngine(cqa.EngineConfig{PlanCacheSize: 4096, Workers: 1, SolveWorkers: 1})
}

// materialize builds an instance from facts through plain Add calls: an
// ingest path other than the daemon's parser and the parallel CSV loader.
func materialize(facts []cqa.Fact) *cqa.Instance {
	db := cqa.NewInstance()
	for _, f := range facts {
		db.Add(f)
	}
	return db
}

// opVersions returns, for each op of the first n ops, the version of its
// instance the op observes (queries) or produces (mutations), plus each
// instance's version after those n ops. The stream keeps every mutation
// a per-instance barrier in both directions, so a query observes
// exactly the mutations before it in stream order.
func opVersions(wl *Workload, n int) (at []int, final []int) {
	final = make([]int, len(wl.Instances))
	at = make([]int, n)
	for i, op := range wl.Ops[:n] {
		if op.Kind == OpMutate {
			final[op.Inst]++
		}
		at[i] = final[op.Inst]
	}
	return at, final
}

// References computes the expected answer of every key, replaying the
// first nOps ops' mutations on reference copies of the instances. A
// mutation that leaves the facts as they were (the serve-warm writes)
// makes a version with the same answers as the one before it, so only
// the words not yet decided on those facts are decided again.
func References(wl *Workload, nOps int, keys []refKey) (map[refKey]bool, error) {
	need := map[int]map[int][]int{} // inst -> version -> words
	for _, k := range keys {
		if need[k.Inst] == nil {
			need[k.Inst] = map[int][]int{}
		}
		need[k.Inst][k.Version] = append(need[k.Inst][k.Version], k.Word)
	}
	muts := make([][]Op, len(wl.Instances))
	for _, op := range wl.Ops[:nOps] {
		if op.Kind == OpMutate {
			muts[op.Inst] = append(muts[op.Inst], op)
		}
	}
	out := map[refKey]bool{}
	insts := make([]int, 0, len(need))
	for i := range need {
		insts = append(insts, i)
	}
	sort.Ints(insts)
	for _, i := range insts {
		db := materialize(wl.Instances[i].Facts)
		maxV := 0
		for v := range need[i] {
			maxV = max(maxV, v)
		}
		cur := map[int]bool{} // word -> answer on db's current facts
		for v := 0; v <= maxV; v++ {
			if v > 0 && applyMutation(db, muts[i][v-1]) {
				cur = map[int]bool{}
			}
			var todo []int
			for _, w := range need[i][v] {
				if _, ok := cur[w]; !ok && !slices.Contains(todo, w) {
					todo = append(todo, w)
				}
			}
			// The words are decided on a fresh copy (a root build with no
			// lineage, so no delta snapshot is involved) by a fresh engine
			// (so no plan or memo outlives the version).
			if len(todo) > 0 {
				if err := refVersion(newRefEngine(), wl, db.Clone(), todo, cur); err != nil {
					return nil, err
				}
			}
			for _, w := range need[i][v] {
				out[refKey{i, v, w}] = cur[w]
			}
		}
	}
	return out, nil
}

// refVersion decides the distinct words ws on one instance version,
// nproc at a time, and stores the answers in out.
func refVersion(eng *cqa.Engine, wl *Workload, snap *cqa.Instance, ws []int, out map[int]bool) error {
	var (
		mu    sync.Mutex
		first error
		wg    sync.WaitGroup
	)
	sem := make(chan struct{}, nproc())
	snap.Interned() // publish once, before the readers start
	for _, w := range ws {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			certain, err := refDecide(eng, wl.Words[w], snap)
			mu.Lock()
			defer mu.Unlock()
			if err != nil && first == nil {
				first = err
			}
			out[w] = certain
		}()
	}
	wg.Wait()
	return first
}

// applyMutation applies op to db and reports whether it may have changed
// the facts.
func applyMutation(db *cqa.Instance, op Op) (changed bool) {
	for _, f := range op.Del {
		changed = changed || db.Contains(f)
		db.Remove(f)
	}
	for _, f := range op.Add {
		changed = changed || !db.Contains(f)
		db.Add(f)
	}
	return changed
}

// checker compares observed decisions with the reference. Mismatches are
// kept apart from failures: a refused op is a failure, a wrong answer is
// a mismatch.
type checker struct {
	ref        map[refKey]bool
	wl         *Workload
	checked    int
	mismatches int
	first      []string // the first few mismatches, for the report
	failed     int      // decisions the replay could not obtain
	firstFail  string
}

// fail records a decision that could not be obtained.
func (c *checker) fail(err error) {
	c.failed++
	if c.firstFail == "" {
		c.firstFail = err.Error()
	}
}

func newChecker(wl *Workload, ref map[refKey]bool) *checker {
	return &checker{ref: ref, wl: wl}
}

// check records one observed decision.
func (c *checker) check(k refKey, got bool) {
	c.checked++
	want, ok := c.ref[k]
	if ok && want == got {
		return
	}
	c.mismatches++
	if len(c.first) < 5 {
		if !ok {
			c.first = append(c.first, fmt.Sprintf("%s on %s v%d: no reference", c.wl.Words[k.Word], c.wl.Instances[k.Inst].Name, k.Version))
		} else {
			c.first = append(c.first, fmt.Sprintf("%s on %s v%d: got certain=%v, reference %v", c.wl.Words[k.Word], c.wl.Instances[k.Inst].Name, k.Version, got, want))
		}
	}
}

// assertMixed fails unless every tier has both a certain and a
// not-certain expected answer among keys: if a tier's answers were all
// equal, checking it would prove nothing.
func assertMixed(wl *Workload, ref map[refKey]bool, keys []refKey) error {
	var yes, no [4]int
	for _, k := range keys {
		t := tierIndex(wl.Classes[k.Word])
		if ref[k] {
			yes[t]++
		} else {
			no[t]++
		}
	}
	for t, c := range tierOrder {
		if yes[t] == 0 || no[t] == 0 {
			return fmt.Errorf("%s: tier %v has %d certain and %d not-certain expected answers; its check would prove nothing", wl.Name, c, yes[t], no[t])
		}
	}
	return nil
}
