package main

// Workload generation. Everything the system under test receives — the
// instances, the query words, the mutations and the op schedule — is
// derived here from the seed and the run length alone, so two commits
// measured with the same arguments see byte-identical inputs.

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"cqa"
)

// Workload names, as passed to --workload.
const (
	serveWarm  = "serve-warm"
	serveChurn = "serve-churn"
	giantName  = "giant"
)

var workloadNames = []string{serveWarm, serveChurn, giantName}

// relations are the relation names every generated instance and word
// uses.
var relations = []string{"R", "X", "Y", "A"}

// tierOrder is the order tiers are reported in.
var tierOrder = []cqa.Class{cqa.FO, cqa.NL, cqa.PTime, cqa.CoNP}

// tierWeight is each class's share of the serve decision mixes: coNP
// gets a quarter, so the heavy lane carries real traffic.
var tierWeight = [4]float64{0.25, 0.25, 0.25, 0.25}

// vocabSeed seeds the choice of the serve workloads' words. It is fixed,
// so every seed queries the same vocabulary: a seed changes the
// instances, the schedule and which instance gets which word, but not
// the per-word cost mix.
const vocabSeed = 1

// canonical holds one word per class (FO, NL, PTIME, coNP): the mix the
// repository's own serving benchmarks use. Every workload includes them.
var canonical = []string{"RXRX", "RRX", "RXRYRY", "ARRX"}

// Sizes. They are constants of the benchmark, never calibrated per run,
// so that two commits see the same load.
const (
	warmInstances   = 8
	warmExtraPerCls = 2    // serve-warm words per class beyond the canonical one
	warmRate        = 500  // serve-warm offered rate, ops/s: well below saturation of the two connections (perfbench/design.json)
	warmMutateFrac  = 0.10 // idempotent re-assertions of a stored fact
	warmDraws       = 2000 // fact draws per instance: 2.5k to 3.5k facts with the dead ends

	churnInstances = 48
	churnCore      = 8   // words every instance is queried with, decided once each at set-up
	churnPrivate   = 8   // words only one instance is queried with: 8 + 48*8 words overflow the 256-plan cache
	churnRate      = 150 // serve-churn offered rate, ops/s
	churnMutFrac   = 0.10
	churnDraws     = 900  // fact draws per instance
	churnNewConst  = 0.10 // share of churn mutations that add a constant
	churnZipfS     = 0.7

	closedBatch   = 64  // NDJSON lines per closed-loop batch
	closedBatches = 48  // batches per stream before the list repeats
	openShare     = 0.7 // share of the run the open-loop phase takes; the closed-loop phase has the rest

	giantFacts       = 90_000 // total facts, above cqa.DefaultParallelThreshold
	giantParts       = 64     // disjoint components of the giant instance's random part
	giantBurst       = 8      // mutations between two giant segments
	giantSegments    = 200    // upper bound; the run stops at --seconds
	maxWordLen       = 7
	sinkConsts       = 8
	plantedPrefix    = "p"
	sinkPrefix       = "z"
	newConstPrefix   = "n"
	randomPrefix     = "c"
	serveConstFactor = 0.3 // random-part constants per fact draw
)

// OpKind distinguishes the two timed operations.
type OpKind uint8

const (
	OpQuery OpKind = iota
	OpMutate
)

// Op is one timed operation of a workload's stream.
type Op struct {
	Kind OpKind
	Inst int
	Word int           // index into Workload.Words (queries)
	Due  time.Duration // open-loop send time, from the start of the phase
	Add  []cqa.Fact    // mutations: facts to add
	Del  []cqa.Fact    // mutations: facts to remove
}

// Batch is one closed-loop NDJSON batch: a run of words against one
// instance.
type Batch struct {
	Inst  int
	Words []int
}

// Inst is one instance as the system receives it.
type Inst struct {
	Name  string
	Facts []cqa.Fact
}

// Workload is the complete generated input of one run.
type Workload struct {
	Name      string
	Seed      int64
	Instances []Inst
	Words     []string
	Classes   []cqa.Class
	// Warm lists the (instance, word) pairs decided once during set-up.
	Warm [][2]int
	// Ops is the timed stream: open loop for the serve workloads (Due
	// set), closed loop for giant.
	Ops []Op
	// Streams is the closed-loop NDJSON phase of the serve workloads,
	// one batch list per connection, cycled until the phase ends.
	Streams   [][]Batch
	OpenFor   time.Duration
	ClosedFor time.Duration
}

// tierIndex maps a class to its position in tierOrder.
func tierIndex(c cqa.Class) int {
	for i, t := range tierOrder {
		if t == c {
			return i
		}
	}
	panic(fmt.Sprintf("perfbench: unknown class %v", c))
}

var (
	poolsOnce sync.Once
	pools     [4][]string
)

// wordPools returns every word of length 2..maxWordLen over relations,
// grouped by class, in lexicographic order.
func wordPools() [4][]string {
	poolsOnce.Do(func() {
		var rec func(prefix string)
		rec = func(prefix string) {
			if len(prefix) >= 2 {
				c := cqa.Classify(cqa.MustParseQuery(prefix))
				pools[tierIndex(c)] = append(pools[tierIndex(c)], prefix)
			}
			if len(prefix) == maxWordLen {
				return
			}
			for _, r := range relations {
				rec(prefix + r)
			}
		}
		rec("")
		for i := range pools {
			sort.Strings(pools[i])
		}
	})
	return pools
}

// pickWords draws n distinct words of class tier with length at least
// minLen, skipping any already in taken.
func pickWords(rng *rand.Rand, tier, n, minLen int, taken map[string]bool) []string {
	pool := wordPools()[tier]
	var cand []string
	for _, w := range pool {
		if len(w) >= minLen && !taken[w] {
			cand = append(cand, w)
		}
	}
	if len(cand) < n {
		panic(fmt.Sprintf("perfbench: only %d words of class %v", len(cand), tierOrder[tier]))
	}
	rng.Shuffle(len(cand), func(i, j int) { cand[i], cand[j] = cand[j], cand[i] })
	out := cand[:n]
	for _, w := range out {
		taken[w] = true
	}
	return out
}

func (wl *Workload) addWord(w string) int {
	wl.Words = append(wl.Words, w)
	wl.Classes = append(wl.Classes, cqa.Classify(cqa.MustParseQuery(w)))
	return len(wl.Words) - 1
}

// model is the generator's own view of one instance, used to draw
// mutations that keep the universe (or grow it on purpose).
type model struct {
	facts  []cqa.Fact
	pos    map[cqa.Fact]int
	adom   map[string]int
	blocks map[[2]string]int
	// flips are the interior facts of planted paths: removing one breaks
	// the path without dropping a constant; adding it back restores it.
	flips []cqa.Fact
	nNew  int
}

func newModel(facts []cqa.Fact, flips []cqa.Fact) *model {
	m := &model{pos: map[cqa.Fact]int{}, adom: map[string]int{}, blocks: map[[2]string]int{}, flips: flips}
	for _, f := range facts {
		m.add(f)
	}
	return m
}

func (m *model) has(f cqa.Fact) bool { _, ok := m.pos[f]; return ok }

func (m *model) add(f cqa.Fact) bool {
	if m.has(f) {
		return false
	}
	m.pos[f] = len(m.facts)
	m.facts = append(m.facts, f)
	m.adom[f.Key]++
	m.adom[f.Val]++
	m.blocks[[2]string{f.Rel, f.Key}]++
	return true
}

func (m *model) remove(f cqa.Fact) bool {
	i, ok := m.pos[f]
	if !ok {
		return false
	}
	last := m.facts[len(m.facts)-1]
	m.facts[i] = last
	m.pos[last] = i
	m.facts = m.facts[:len(m.facts)-1]
	delete(m.pos, f)
	for _, c := range [2]string{f.Key, f.Val} {
		if m.adom[c]--; m.adom[c] == 0 {
			delete(m.adom, c)
		}
	}
	b := [2]string{f.Rel, f.Key}
	if m.blocks[b]--; m.blocks[b] == 0 {
		delete(m.blocks, b)
	}
	return true
}

// randomFact returns a uniformly drawn fact of the random part (keys
// named c*), or false after a bounded number of misses.
func (m *model) randomFact(rng *rand.Rand, ok func(cqa.Fact) bool) (cqa.Fact, bool) {
	for try := 0; try < 64; try++ {
		f := m.facts[rng.Intn(len(m.facts))]
		if strings.HasPrefix(f.Key, randomPrefix) && ok(f) {
			return f, true
		}
	}
	return cqa.Fact{}, false
}

// sinkFor is the dead-end fact every block carries.
func sinkFor(rel, key string) cqa.Fact {
	h := 0
	for _, b := range []byte(key) {
		h = h*31 + int(b)
	}
	if h < 0 {
		h = -h
	}
	return cqa.Fact{Rel: rel, Key: key, Val: fmt.Sprintf("%s%d", sinkPrefix, h%sinkConsts)}
}

// keepMutation draws a batch that leaves the active domain unchanged:
// flipping a planted path, adding a fact between existing constants, or
// removing a fact whose constants occur elsewhere. It applies the batch
// to the model.
func (m *model) keepMutation(rng *rand.Rand) (add, del []cqa.Fact) {
	for {
		switch k := rng.Intn(3); {
		case k == 0 && len(m.flips) > 0:
			f := m.flips[rng.Intn(len(m.flips))]
			if m.has(f) {
				if m.adom[f.Key] < 2 || m.adom[f.Val] < 2 {
					continue // a neighbouring flip is already out
				}
				m.remove(f)
				return nil, []cqa.Fact{f}
			}
			if m.adom[f.Key] == 0 || m.adom[f.Val] == 0 {
				continue
			}
			m.add(f)
			return []cqa.Fact{f}, nil
		case k == 1:
			src, ok1 := m.randomFact(rng, func(cqa.Fact) bool { return true })
			dst, ok2 := m.randomFact(rng, func(f cqa.Fact) bool { return !strings.HasPrefix(f.Val, sinkPrefix) })
			if !ok1 || !ok2 {
				continue
			}
			f := cqa.Fact{Rel: relations[rng.Intn(len(relations))], Key: src.Key, Val: dst.Val}
			if m.has(f) {
				continue
			}
			if m.blocks[[2]string{f.Rel, f.Key}] == 0 {
				s := sinkFor(f.Rel, f.Key)
				if m.adom[s.Val] == 0 {
					continue // that sink constant is not in the universe
				}
				m.add(s)
				add = append(add, s)
			}
			m.add(f)
			return append(add, f), nil
		case k == 2:
			f, ok := m.randomFact(rng, func(f cqa.Fact) bool {
				if strings.HasPrefix(f.Val, sinkPrefix) {
					return false
				}
				return m.adom[f.Key] > 1 && m.adom[f.Val] > 1 && (f.Key != f.Val || m.adom[f.Key] > 2)
			})
			if !ok {
				continue
			}
			m.remove(f)
			return nil, []cqa.Fact{f}
		}
	}
}

// growMutation adds a fact to a brand-new constant (the cold path: the
// universe changes, so the tiers cannot repair from lineage).
func (m *model) growMutation(rng *rand.Rand, inst int) (add []cqa.Fact) {
	for {
		src, ok := m.randomFact(rng, func(cqa.Fact) bool { return true })
		if !ok {
			continue
		}
		m.nNew++
		f := cqa.Fact{Rel: relations[rng.Intn(len(relations))], Key: src.Key, Val: fmt.Sprintf("%s%dx%d", newConstPrefix, inst, m.nNew)}
		if m.blocks[[2]string{f.Rel, f.Key}] == 0 {
			s := sinkFor(f.Rel, f.Key)
			if m.adom[s.Val] == 0 {
				continue
			}
			m.add(s)
			add = append(add, s)
		}
		m.add(f)
		return append(add, f)
	}
}

// randomFacts draws a workload.Random-style fact set: draws facts over
// nconst constants, each reusing an existing block with probability
// conflict. Every block also gets a dead-end fact into
// a constant that has no outgoing facts, so this part alone never makes
// a word of length two or more certain: the repair that picks every
// dead end has no path of length two.
func randomFacts(rng *rand.Rand, prefix string, draws, nconst int, conflict float64) []cqa.Fact {
	var out []cqa.Fact
	seen := map[cqa.Fact]bool{}
	var blocks [][2]string
	blockSeen := map[[2]string]bool{}
	emit := func(f cqa.Fact) {
		if !seen[f] {
			seen[f] = true
			out = append(out, f)
		}
	}
	for i := 0; i < draws; i++ {
		var b [2]string
		if len(blocks) > 0 && rng.Float64() < conflict {
			b = blocks[rng.Intn(len(blocks))]
		} else {
			b = [2]string{relations[rng.Intn(len(relations))], fmt.Sprintf("%s%d", prefix, rng.Intn(nconst))}
		}
		val := fmt.Sprintf("%s%d", prefix, rng.Intn(nconst))
		if !blockSeen[b] {
			blockSeen[b] = true
			blocks = append(blocks, b)
			emit(sinkFor(b[0], b[1]))
		}
		emit(cqa.Fact{Rel: b[0], Key: b[1], Val: val})
	}
	return out
}

// plantPath returns a consistent path spelling word over fresh
// constants (each fact is alone in its block), plus its interior facts,
// whose removal breaks the path without shrinking the universe.
func plantPath(inst, idx int, word string) (path, interior []cqa.Fact) {
	w := cqa.MustParseQuery(word).Word()
	c := func(i int) string { return fmt.Sprintf("%s%dx%dx%d", plantedPrefix, inst, idx, i) }
	for i, rel := range w {
		path = append(path, cqa.Fact{Rel: rel, Key: c(i), Val: c(i + 1)})
	}
	if len(path) >= 3 {
		interior = path[1 : len(path)-1]
	}
	return path, interior
}

// factorOf reports whether word w occurs as a contiguous factor of
// planted word p: on a generated instance, w is certain exactly when it is
// a factor of a planted path.
func factorOf(w, p string) bool {
	ww, pw := cqa.MustParseQuery(w).Word(), cqa.MustParseQuery(p).Word()
	for i := 0; i+len(ww) <= len(pw); i++ {
		match := true
		for j := range ww {
			if pw[i+j] != ww[j] {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}

// plantChoice picks, for each instance, which of the words cands to
// plant, so that on every instance each tier has both a certain and a
// not-certain answer among cands (by the factor rule; the set-up check
// confirms it against the reference). The choice uses a generator of its
// own with a fixed seed: a seed changes the instances' random part, not
// which answers are certain, so the share of certain answers — which the
// tiers' costs depend on — is the same for every seed.
func plantChoice(insts, cands []int, wl *Workload) map[int][]int {
	rng := rand.New(rand.NewSource(vocabSeed))
	choice := map[int][]int{}
	for _, inst := range insts {
		for {
			var pick []int
			for _, w := range cands {
				if rng.Intn(2) == 0 {
					pick = append(pick, w)
				}
			}
			if mixedPlant(pick, cands, wl) {
				choice[inst] = pick
				break
			}
		}
	}
	return choice
}

// mixedPlant reports whether planting pick leaves every tier of cands
// with both outcomes.
func mixedPlant(pick, cands []int, wl *Workload) bool {
	var yes, no [4]int
	for _, w := range cands {
		certain := false
		for _, p := range pick {
			certain = certain || factorOf(wl.Words[w], wl.Words[p])
		}
		if t := tierIndex(wl.Classes[w]); certain {
			yes[t]++
		} else {
			no[t]++
		}
	}
	for t := range yes {
		if yes[t]+no[t] > 0 && (yes[t] == 0 || no[t] == 0) {
			return false
		}
	}
	// A warm coNP decision costs far more on a no-instance than on a
	// yes-instance. With three or more coNP words, exactly one is certain,
	// so the no-instances' share of the decisions is fixed and p90 falls
	// inside their latency cluster, not on its edge.
	coNP := tierIndex(cqa.CoNP)
	return yes[coNP]+no[coNP] < 3 || yes[coNP] == 1
}

// buildInstance assembles an instance: a random part made of parts
// disjoint components, then the planted paths (last, so a scan meets
// them at the end).
func buildInstance(rng *rand.Rand, wl *Workload, inst, draws, parts int, plant []int) (Inst, []cqa.Fact) {
	var facts []cqa.Fact
	for k := 0; k < parts; k++ {
		n := draws / parts
		facts = append(facts, randomFacts(rng, fmt.Sprintf("%s%dx", randomPrefix, k), n, int(math.Max(16, float64(n)*serveConstFactor)), 0.3)...)
	}
	var flips []cqa.Fact
	for k, w := range plant {
		path, interior := plantPath(inst, k, wl.Words[w])
		facts = append(facts, path...)
		flips = append(flips, interior...)
	}
	return Inst{Name: fmt.Sprintf("db%d", inst), Facts: facts}, flips
}

// tierDraw picks a word index from byTier with the tier weights.
func tierDraw(rng *rand.Rand, byTier [4][]int) int {
	x := rng.Float64()
	for t := range tierWeight {
		if x < tierWeight[t] || t == len(tierWeight)-1 {
			return byTier[t][rng.Intn(len(byTier[t]))]
		}
		x -= tierWeight[t]
	}
	panic("unreachable")
}

func (wl *Workload) byTier(words []int) [4][]int {
	var out [4][]int
	for _, w := range words {
		out[tierIndex(wl.Classes[w])] = append(out[tierIndex(wl.Classes[w])], w)
	}
	return out
}

// openLoop lays out a Poisson schedule of rate ops/s over d: the gaps are
// exponential, so bursts happen as they would from independent users.
func openLoop(rng *rand.Rand, rate float64, d time.Duration, next func(op *Op)) []Op {
	var ops []Op
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= d {
			return ops
		}
		op := Op{Due: due}
		next(&op)
		ops = append(ops, op)
	}
}

// Generate builds the named workload for a seed and a run length.
func Generate(name string, seed int64, seconds int) (*Workload, error) {
	d := time.Duration(seconds) * time.Second
	wl := &Workload{Name: name, Seed: seed}
	rng := rand.New(rand.NewSource(seed*7919 + int64(len(name))))
	switch name {
	case serveWarm:
		genServeWarm(wl, rng, d)
	case serveChurn:
		genServeChurn(wl, rng, d)
	case giantName:
		genGiant(wl, rng)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
	}
	return wl, nil
}

func genServeWarm(wl *Workload, rng *rand.Rand, d time.Duration) {
	taken := map[string]bool{}
	for _, w := range canonical {
		taken[w] = true
		wl.addWord(w)
	}
	vocab := rand.New(rand.NewSource(vocabSeed))
	for t := range tierOrder {
		for _, w := range pickWords(vocab, t, warmExtraPerCls, 4, taken) {
			wl.addWord(w)
		}
	}
	all := make([]int, len(wl.Words))
	for i := range all {
		all[i] = i
	}
	insts := make([]int, warmInstances)
	for i := range insts {
		insts[i] = i
	}
	plants := plantChoice(insts, all, wl)
	for i := 0; i < warmInstances; i++ {
		inst, _ := buildInstance(rng, wl, i, warmDraws, 1, plants[i])
		wl.Instances = append(wl.Instances, inst)
		for w := range wl.Words {
			wl.Warm = append(wl.Warm, [2]int{i, w})
		}
	}
	byTier := wl.byTier(all)
	wl.OpenFor = time.Duration(float64(d) * openShare)
	wl.ClosedFor = d - wl.OpenFor
	wl.Ops = openLoop(rng, warmRate, wl.OpenFor, func(op *Op) {
		op.Inst = rng.Intn(warmInstances)
		if rng.Float64() < warmMutateFrac {
			// An idempotent write: re-assert a stored fact. The snapshot
			// does not change, so every cache must stay warm.
			facts := wl.Instances[op.Inst].Facts
			op.Kind = OpMutate
			op.Add = []cqa.Fact{facts[rng.Intn(len(facts))]}
			return
		}
		op.Word = tierDraw(rng, byTier)
	})
	wl.Streams = closedStreams(rng, func(s, b int) int { return (s + b*nproc()) % warmInstances }, func(int) [4][]int { return byTier })
}

// closedTierLines is how many lines of each class (FO, NL, PTIME, coNP)
// a closed-loop batch carries: the tier weights applied exactly, so that
// every batch costs about the same whatever the seed.
var closedTierLines = [4]int{16, 16, 16, 16}

// closedStreams builds one batch list per connection of the closed-loop
// phase.
func closedStreams(rng *rand.Rand, inst func(stream, batch int) int, byTier func(inst int) [4][]int) [][]Batch {
	streams := make([][]Batch, nproc())
	for s := range streams {
		for b := 0; b < closedBatches; b++ {
			bt := Batch{Inst: inst(s, b)}
			words := byTier(bt.Inst)
			for t, n := range closedTierLines {
				for k := 0; k < n; k++ {
					bt.Words = append(bt.Words, words[t][rng.Intn(len(words[t]))])
				}
			}
			rng.Shuffle(len(bt.Words), func(i, j int) { bt.Words[i], bt.Words[j] = bt.Words[j], bt.Words[i] })
			streams[s] = append(streams[s], bt)
		}
	}
	return streams
}

// zipf draws instance indexes with a Zipf-skewed popularity; a
// seed-dependent permutation decides which instances are hot.
type zipf struct {
	cdf  []float64
	perm []int
}

func newZipf(rng *rand.Rand, n int, s float64) *zipf {
	z := &zipf{perm: rng.Perm(n)}
	sum := 0.0
	for i := 1; i <= n; i++ {
		sum += 1 / math.Pow(float64(i), s)
		z.cdf = append(z.cdf, sum)
	}
	for i := range z.cdf {
		z.cdf[i] /= sum
	}
	return z
}

func (z *zipf) draw(rng *rand.Rand) int {
	return z.perm[sort.SearchFloat64s(z.cdf, rng.Float64())]
}

func genServeChurn(wl *Workload, rng *rand.Rand, d time.Duration) {
	taken := map[string]bool{}
	for _, w := range canonical {
		taken[w] = true
		wl.addWord(w)
	}
	vocab := rand.New(rand.NewSource(vocabSeed))
	for t := range tierOrder {
		wl.addWord(pickWords(vocab, t, 1, 4, taken)[0])
	}
	core := make([]int, churnCore)
	for i := range core {
		core[i] = i
	}
	// Each instance queries the core words plus private words of its own,
	// so (instance, word) pairs recur — a mutation is followed by memo
	// repairs — while the union of all words overflows the plan cache.
	// The vocabulary is the same for every seed; the seed decides which
	// instance gets which private words.
	perTier := churnPrivate / len(tierOrder)
	var private [4][]int
	for t := range tierOrder {
		for _, w := range pickWords(vocab, t, churnInstances*perTier, 2, taken) {
			private[t] = append(private[t], wl.addWord(w))
		}
		rng.Shuffle(len(private[t]), func(i, j int) { private[t][i], private[t][j] = private[t][j], private[t][i] })
	}
	own := make([][]int, churnInstances)
	for i := range own {
		own[i] = append(own[i], core...)
		for t := range tierOrder {
			own[i] = append(own[i], private[t][i*perTier:(i+1)*perTier]...)
		}
	}
	insts := make([]int, churnInstances)
	for i := range insts {
		insts[i] = i
	}
	plants := plantChoice(insts, core, wl)
	models := make([]*model, churnInstances)
	for i := 0; i < churnInstances; i++ {
		// Plant the first private word of each tier too, so the private
		// words have certain answers as well.
		plant := plants[i]
		for t := range tierOrder {
			plant = append(plant, own[i][churnCore+t*perTier])
		}
		inst, flips := buildInstance(rng, wl, i, churnDraws, 1, plant)
		wl.Instances = append(wl.Instances, inst)
		models[i] = newModel(inst.Facts, flips)
		for _, w := range core {
			wl.Warm = append(wl.Warm, [2]int{i, w})
		}
	}
	byTier := make([][4][]int, churnInstances)
	for i := range byTier {
		byTier[i] = wl.byTier(own[i])
	}
	z := newZipf(rng, churnInstances, churnZipfS)
	wl.OpenFor = time.Duration(float64(d) * openShare)
	wl.ClosedFor = d - wl.OpenFor
	wl.Ops = openLoop(rng, churnRate, wl.OpenFor, func(op *Op) {
		op.Inst = z.draw(rng)
		if rng.Float64() < churnMutFrac {
			op.Kind = OpMutate
			if rng.Float64() < churnNewConst {
				op.Add = models[op.Inst].growMutation(rng, op.Inst)
			} else {
				op.Add, op.Del = models[op.Inst].keepMutation(rng)
			}
			return
		}
		op.Word = tierDraw(rng, byTier[op.Inst])
	})
	// The closed-loop batches visit every instance in turn: a handful of
	// Zipf draws per stream would make the phase's cost depend on which
	// instances the seed happened to pick.
	wl.Streams = closedStreams(rng, func(s, b int) int { return (s + b*nproc()) % churnInstances }, func(i int) [4][]int { return byTier[i] })
}

// giantWords are the giant workload's words, fixed so that a seed changes
// the instance but not the per-decision cost mix: three FO, two NL,
// three PTIME and two coNP words.
var giantWords = []string{"RXRX", "XRYX", "AXRY", "RRX", "RYRX", "RXRYRY", "RRXRX", "RXRYXRY", "ARRX", "XRRX"}

// giantReps is how often a segment decides each word of a class (FO, NL,
// PTIME, coNP). A segment decides only one of the two coNP words, in
// turn, which bounds the cold SAT reference work per segment. The shares
// place p50 inside the FO decisions, p90 inside the fixpoint decisions
// and p99 inside the SAT decisions, not on a boundary between two
// tiers' latency clusters.
var giantReps = [4]int{6, 6, 5, 3}

func genGiant(wl *Workload, rng *rand.Rand) {
	for _, w := range giantWords {
		wl.addWord(w)
	}
	all := make([]int, len(wl.Words))
	for i := range all {
		all[i] = i
	}
	plants := plantChoice([]int{0}, all, wl)
	// About 1.6 facts per draw once the dead ends are added. The random
	// part is many disjoint components rather than one: a solver's cost on
	// one random structure varies a lot from seed to seed, on many it
	// averages out.
	inst, flips := buildInstance(rng, wl, 0, giantFacts*10/16, giantParts, plants[0])
	wl.Instances = []Inst{inst}
	for w := range wl.Words {
		wl.Warm = append(wl.Warm, [2]int{0, w})
	}
	m := newModel(inst.Facts, flips)
	byTier := wl.byTier(all)
	// Segments: a burst of universe-preserving mutations, then the
	// segment's decisions, interleaved round-robin over its words.
	for s := 0; s < giantSegments; s++ {
		if s > 0 {
			for k := 0; k < giantBurst; k++ {
				op := Op{Kind: OpMutate}
				op.Add, op.Del = m.keepMutation(rng)
				wl.Ops = append(wl.Ops, op)
			}
		}
		var seq [][]int // per word: remaining decisions
		for t, ws := range byTier {
			if tierOrder[t] == cqa.CoNP {
				ws = ws[s%len(ws) : s%len(ws)+1]
			}
			for _, w := range ws {
				reps := make([]int, giantReps[t])
				for k := range reps {
					reps[k] = w
				}
				seq = append(seq, reps)
			}
		}
		for left := true; left; {
			left = false
			for i := range seq {
				if len(seq[i]) > 0 {
					wl.Ops = append(wl.Ops, Op{Kind: OpQuery, Word: seq[i][0]})
					seq[i] = seq[i][1:]
					left = true
				}
			}
		}
	}
}

// Encode writes the workload in a canonical byte form: the generator
// tests compare these bytes across seeds.
func (wl *Workload) Encode() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "workload %s seed %d open %d closed %d\n", wl.Name, wl.Seed, wl.OpenFor, wl.ClosedFor)
	for i, w := range wl.Words {
		fmt.Fprintf(&b, "word %d %s %v\n", i, w, wl.Classes[i])
	}
	for _, in := range wl.Instances {
		fmt.Fprintf(&b, "instance %s %d\n", in.Name, len(in.Facts))
		for _, f := range in.Facts {
			fmt.Fprintf(&b, "%s,%s,%s\n", f.Rel, f.Key, f.Val)
		}
	}
	for _, p := range wl.Warm {
		fmt.Fprintf(&b, "warm %d %d\n", p[0], p[1])
	}
	for _, op := range wl.Ops {
		fmt.Fprintf(&b, "op %d %d %d %d %v %v\n", op.Kind, op.Inst, op.Word, op.Due, op.Add, op.Del)
	}
	for s, st := range wl.Streams {
		for _, bt := range st {
			fmt.Fprintf(&b, "batch %d %d %v\n", s, bt.Inst, bt.Words)
		}
	}
	return b.Bytes()
}
