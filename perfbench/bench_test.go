package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"cqa"
	"cqa/internal/repairs"
	"cqa/internal/workload"
)

// smallInstances returns seeded instances small enough for exhaustive
// repair enumeration: workload.Random draws, and the benchmark's own
// construction (dead ends plus planted paths) at a tiny size.
func smallInstances(t *testing.T, wl *Workload) []*cqa.Instance {
	t.Helper()
	var out []*cqa.Instance
	for seed := int64(0); seed < 4; seed++ {
		out = append(out, workload.Random(workload.Config{
			Relations: relations, Constants: 5, Facts: 9, ConflictRate: 0.5, Seed: seed,
		}))
		rng := rand.New(rand.NewSource(seed))
		plant := []int{rng.Intn(len(wl.Words))}
		in, _ := buildInstance(rng, wl, 0, 4, 1, plant)
		out = append(out, materialize(in.Facts))
	}
	return out
}

func generate(t *testing.T, name string, seed int64) *Workload {
	t.Helper()
	wl, err := Generate(name, seed, 2)
	if err != nil {
		t.Fatal(err)
	}
	return wl
}

// The reference decision agrees with exhaustive repair enumeration for
// every word of every workload.
func TestReferenceMatchesRepairOracle(t *testing.T) {
	for _, name := range workloadNames {
		wl := generate(t, name, 1)
		eng := newRefEngine()
		for _, db := range smallInstances(t, wl) {
			for _, w := range wl.Words {
				got, err := refDecide(eng, w, db)
				if err != nil {
					t.Fatal(err)
				}
				if want := repairs.IsCertain(db, cqa.MustParseQuery(w).Word()); got != want {
					t.Fatalf("%s: reference says %v for %s on %v, repairs say %v", name, got, w, db, want)
				}
			}
		}
	}
}

// References decides each key on the version its key names: the facts
// after that many of the instance's mutations, a mutation that changes
// nothing included.
func TestReferencesFollowMutations(t *testing.T) {
	gen := generate(t, serveWarm, 1)
	words := gen.Words
	changed := 0 // answers that differ from the version before
	for n, base := range smallInstances(t, gen) {
		db := base.Clone()
		wl := &Workload{Words: words, Instances: []Inst{{Name: "t", Facts: db.Facts()}}}
		rng := rand.New(rand.NewSource(int64(n)))
		adom := db.Adom()
		for m := 0; m < 9; m++ {
			facts := db.Facts()
			op := Op{Kind: OpMutate}
			switch m % 3 {
			case 0: // remove a fact
				op.Del = []cqa.Fact{facts[rng.Intn(len(facts))]}
			case 1: // re-add a stored fact: the facts stay as they were
				op.Add = []cqa.Fact{facts[rng.Intn(len(facts))]}
			case 2: // add a fact
				op.Add = []cqa.Fact{{Rel: relations[rng.Intn(len(relations))], Key: adom[rng.Intn(len(adom))], Val: adom[rng.Intn(len(adom))]}}
			}
			applyMutation(db, op)
			wl.Ops = append(wl.Ops, op)
		}
		var keys []refKey
		for v := 0; v <= len(wl.Ops); v++ {
			for w := range words {
				keys = append(keys, refKey{0, v, w})
			}
		}
		ref, err := References(wl, len(wl.Ops), keys)
		if err != nil {
			t.Fatal(err)
		}
		db = materialize(wl.Instances[0].Facts)
		for v := 0; v <= len(wl.Ops); v++ {
			if v > 0 {
				applyMutation(db, wl.Ops[v-1])
			}
			for w, word := range words {
				got := ref[refKey{0, v, w}]
				if want := repairs.IsCertain(db, cqa.MustParseQuery(word).Word()); got != want {
					t.Fatalf("instance %d: %s on version %d: reference %v, repairs say %v", n, word, v, got, want)
				}
				if v > 0 && got != ref[refKey{0, v - 1, w}] {
					changed++
				}
			}
		}
	}
	if changed == 0 {
		t.Fatal("no mutation changed an answer, so the test checks nothing")
	}
}

// On a generated instance a word is certain exactly when it is a factor
// of a planted word: the dead ends make the random part answer no.
func TestFactorRule(t *testing.T) {
	wl := generate(t, serveWarm, 3)
	eng := newRefEngine()
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		plant := []int{rng.Intn(len(wl.Words)), rng.Intn(len(wl.Words))}
		in, _ := buildInstance(rng, wl, 0, 40, 2, plant)
		db := materialize(in.Facts)
		for w, word := range wl.Words {
			want := false
			for _, p := range plant {
				want = want || factorOf(word, wl.Words[p])
			}
			got, err := refDecide(eng, word, db)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("seed %d: %s (word %d) certain=%v, factor rule says %v", seed, word, w, got, want)
			}
		}
	}
}

// The checker counts a single flipped answer, and counts it apart from
// failures.
func TestCheckerCatchesFlippedAnswer(t *testing.T) {
	wl := generate(t, serveChurn, 2)
	keys := warmKeys(wl)
	ref, err := References(wl, 0, keys)
	if err != nil {
		t.Fatal(err)
	}
	for _, flip := range []int{0, len(keys) / 2, len(keys) - 1} {
		chk := newChecker(wl, ref)
		for i, k := range keys {
			got := ref[k]
			if i == flip {
				got = !got
			}
			chk.check(k, got)
		}
		if chk.mismatches != 1 || chk.checked != len(keys) || chk.failed != 0 {
			t.Fatalf("flip %d: %d mismatches, %d checked, %d failed; want 1, %d, 0", flip, chk.mismatches, chk.checked, chk.failed, len(keys))
		}
	}
	chk := newChecker(wl, ref)
	chk.check(refKey{0, 99, 0}, true)
	if chk.mismatches != 1 {
		t.Fatal("a decision without a reference must count as a mismatch")
	}
}

// Every tier of every workload has both certain and not-certain expected
// answers at set-up, for several seeds.
func TestWarmAnswersMixed(t *testing.T) {
	for _, name := range workloadNames {
		for seed := int64(1); seed <= 3; seed++ {
			if name == giantName && seed > 1 {
				break // one giant instance is enough; it is slow to decide cold
			}
			wl := generate(t, name, seed)
			ref, err := References(wl, 0, warmKeys(wl))
			if err != nil {
				t.Fatal(err)
			}
			if err := assertMixed(wl, ref, warmKeys(wl)); err != nil {
				t.Fatal(err)
			}
		}
	}
	wl := generate(t, serveWarm, 1)
	same := map[refKey]bool{}
	for _, k := range warmKeys(wl) {
		same[k] = true
	}
	if assertMixed(wl, same, warmKeys(wl)) == nil {
		t.Fatal("all-certain answers must be refused")
	}
}

// The same seed gives byte-identical inputs, another seed different ones.
func TestGeneratorDeterministic(t *testing.T) {
	for _, name := range workloadNames {
		a := generate(t, name, 7).Encode()
		b := generate(t, name, 7).Encode()
		c := generate(t, name, 8).Encode()
		if !bytes.Equal(a, b) {
			t.Fatalf("%s: seed 7 gave two different inputs", name)
		}
		if bytes.Equal(a, c) {
			t.Fatalf("%s: seeds 7 and 8 gave the same inputs", name)
		}
	}
}

// Mutations drawn as universe-preserving keep the active domain; churn's
// growing mutations add exactly one constant.
func TestMutationsKeepUniverse(t *testing.T) {
	for _, name := range []string{serveChurn, giantName} {
		wl := generate(t, name, 5)
		dbs := make([]*cqa.Instance, len(wl.Instances))
		for i, in := range wl.Instances {
			dbs[i] = materialize(in.Facts)
		}
		n := 0
		for _, op := range wl.Ops {
			if op.Kind != OpMutate {
				continue
			}
			n++
			db := dbs[op.Inst]
			before := len(db.Adom())
			applyMutation(db, op)
			grown := 0
			for _, f := range op.Add {
				if f.Val[0] == newConstPrefix[0] {
					grown++
				}
			}
			if after := len(db.Adom()); after != before+grown {
				t.Fatalf("%s: mutation %v/%v changed the universe from %d to %d constants", name, op.Add, op.Del, before, after)
			}
		}
		if n == 0 {
			t.Fatalf("%s: no mutations", name)
		}
	}
}

// A mutation waits for every earlier op on its instance, a query for the
// last mutation before it; versions count the mutations before an op.
func TestStreamPlan(t *testing.T) {
	wl := &Workload{Instances: make([]Inst, 2), Ops: []Op{
		{Kind: OpQuery, Inst: 0, Word: 0},
		{Kind: OpQuery, Inst: 1, Word: 0},
		{Kind: OpQuery, Inst: 0, Word: 1},
		{Kind: OpMutate, Inst: 0},
		{Kind: OpQuery, Inst: 0, Word: 1},
		{Kind: OpQuery, Inst: 0, Word: 1},
		{Kind: OpQuery, Inst: 1, Word: 0},
	}}
	sp := planStream(wl)
	want := [][]int{nil, nil, nil, {0, 2}, {3}, {3}, nil}
	if fmt.Sprint(sp.deps) != fmt.Sprint(want) {
		t.Fatalf("deps %v, want %v", sp.deps, want)
	}
	if fmt.Sprint(sp.version) != "[0 0 0 1 1 1 0]" || fmt.Sprint(sp.final) != "[1 0]" {
		t.Fatalf("versions %v final %v", sp.version, sp.final)
	}
	if fmt.Sprint(sp.firstAfter) != "[false false false false true false false]" {
		t.Fatalf("firstAfter %v", sp.firstAfter)
	}
}

func TestSeriesQuantile(t *testing.T) {
	var s series
	for w := 0; w < 3; w++ {
		for v := 1; v <= 100; v++ {
			s.add(w, float64(v*(w+1)))
		}
	}
	if got := s.quantile(0.99); got != 198 {
		t.Fatalf("median of window p99s = %v, want 198", got)
	}
	var small series
	for v := 1; v <= 10; v++ {
		small.add(v%2, float64(v))
	}
	if got := small.quantile(0.99); got != 10 {
		t.Fatalf("p99 of too-small windows = %v, want the overall 10", got)
	}
	if got := (sample{3, 1, 2}).median(); got != 2 {
		t.Fatalf("median %v", got)
	}
}
