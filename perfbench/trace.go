package main

// The traced run replays a workload's op stream in process, from a
// single caller, and records a span around the public entry point of
// every layer: the serve daemon's HTTP handler (internal/server), the
// router (server.Router), cqa.Registry, the plan cache (Engine.Compile),
// the instance snapshot (Instance.Interned) and the tier decision
// (Plan.ExecuteCtx). Spans are kept in memory and written to one file
// when the run ends. The serve workloads then submit the first seconds of
// the open-loop stream through the router at their scheduled times, so
// that the router's queue wait is measured under the workload's load
// rather than from a single caller.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	"cqa"
	"cqa/internal/instance"
	"cqa/internal/memo"
	"cqa/internal/server"
)

type seenKey struct {
	iv   *instance.Interned
	word int
}

// giantReplaySegments is how many giant segments the traced replay runs.
const giantReplaySegments = 4

// routerLoadFor is how much of the open-loop stream the router phase
// submits.
const routerLoadFor = 5 * time.Second

// span is one timed call. Spans of one op share Op; warm-up decisions
// have negative ids.
type span struct {
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Attr   string `json:"attr,omitempty"`
}

// tracer records spans when on; off, the replay makes the same calls and
// records nothing, which is what the tracing overhead is measured
// against.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) add(op int, name, parent string, start, end int64, attr string) {
	if t.on {
		t.spans = append(t.spans, span{op, name, parent, start, end, attr})
	}
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

func gcCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// tierNames index the per-tier figures by Result.Method.
var tierNames = map[cqa.Method]string{
	cqa.MethodFO:       "fo",
	cqa.MethodNL:       "nl",
	cqa.MethodFixpoint: "fixpoint",
	cqa.MethodSAT:      "sat",
}

var tierList = []string{"fo", "nl", "fixpoint", "sat"}

// layers is what one replay measured, layer by layer.
type layers struct {
	serverSelf, serverAllocs sample // us, count per query
	routerWait               sample // us, under the open-loop router phase
	routerOps                int    // queries the router phase submitted
	routed, heavy            int
	regQuery, regMutate      sample // us
	compile                  sample // us, misses only, set-up included
	planHits, planLookups    uint64
	loadS, internMs          float64
	publish                  sample // us, Interned() after a mutation
	memoHits, memoLookups    uint64
	memoRepair, memoCold     sample // us
	coldBuilds               uint64
	tierWarm                 map[string]sample // us
	tierCold                 map[string]sample // ms
	tierAllocs               map[string]sample // count
	parallel                 cqa.ParallelStats
	gcFrac                   float64
	wall                     time.Duration // the replayed ops, set-up excluded
}

// stack is the in-process system the replay drives.
type stack struct {
	wl      *Workload
	eng     *cqa.Engine
	reg     *cqa.Registry
	srv     *server.Server // serve workloads only
	handler http.Handler
	rt      *server.Router // serve workloads only
	dbs     []*cqa.Instance
	// mirrors receive every mutation the registry applies, so that the
	// snapshot publish, which Registry.Mutate does under its lock, can be
	// timed on its own: Instance.Interned on a mirror runs the same delta
	// build from the same previous version.
	mirrors []*cqa.Instance
	queries []cqa.Query
	tr      *tracer
	l       *layers
	chk     *checker
	// seen marks the (snapshot, word) pairs decided before, so an FO
	// decision, which has no memo, counts as cold only the first time.
	seen map[seenKey]bool
}

func newStack(wl *Workload, giantCSV string, tr *tracer, chk *checker) (*stack, error) {
	s := &stack{wl: wl, tr: tr, chk: chk, seen: map[seenKey]bool{}, l: &layers{
		tierWarm: map[string]sample{}, tierCold: map[string]sample{}, tierAllocs: map[string]sample{},
	}}
	s.eng = cqa.NewEngine(cqa.EngineConfig{})
	s.reg = cqa.NewRegistry(s.eng)
	for _, w := range wl.Words {
		s.queries = append(s.queries, cqa.MustParseQuery(w))
	}
	t0 := time.Now()
	if giantCSV != "" {
		db, err := loadGiant(giantCSV)
		if err != nil {
			return nil, err
		}
		s.dbs = append(s.dbs, db)
	} else {
		for _, in := range wl.Instances {
			db, err := cqa.ParseFacts(factText(in.Facts))
			if err != nil {
				return nil, err
			}
			s.dbs = append(s.dbs, db)
		}
		s.srv = server.New(server.Config{Registry: s.reg})
		s.handler = s.srv.Handler()
		s.rt = server.NewRouter(0, 0, 0, 0)
	}
	s.l.loadS = time.Since(t0).Seconds()
	for i, db := range s.dbs {
		t := time.Now()
		db.Interned()
		s.l.internMs += ms(time.Since(t))
		if err := s.reg.Register(wl.Instances[i].Name, db); err != nil {
			return nil, err
		}
		m := materialize(wl.Instances[i].Facts)
		m.Interned()
		s.mirrors = append(s.mirrors, m)
	}
	return s, nil
}

func (s *stack) close() {
	if s.srv != nil {
		s.rt.Drain()
		s.srv.Drain()
	}
}

// decide replays one query through every layer: the plan lookup the
// daemon's lane choice makes, the snapshot lookup, the tier decision,
// then the same decision through the router and the registry, and last
// through the daemon's HTTP handler. The first call pays any cold work;
// the registry and handler calls repeat it warm, which is what their
// self time is measured on.
func (s *stack) decide(id, inst, word int, k refKey, timed bool) {
	tr, l := s.tr, s.l
	ctx := context.Background()
	name := s.wl.Instances[inst].Name
	q := s.queries[word]
	db := s.dbs[inst]
	root := tr.now()

	var before cqa.Stats
	if tr.on {
		before = s.eng.Stats()
	}
	t := tr.now()
	p := s.eng.Compile(q)
	te := tr.now()
	if tr.on {
		after := s.eng.Stats()
		hit := after.Plans.Hits > before.Plans.Hits
		if !hit {
			l.compile = append(l.compile, float64(te-t)/1e3)
		}
		if timed {
			l.planLookups++
			if hit {
				l.planHits++
			}
		}
		tr.add(id, "plan", "op", t, te, fmt.Sprintf("hit=%v", hit))
	}

	// Registry.Mutate has already published the snapshot, so this is a
	// lookup; the publish itself is timed in mutate.
	t = tr.now()
	iv := db.Interned()
	tr.add(id, "instance", "op", t, tr.now(), "snapshot")

	var m0 uint64
	var ms0 memo.Stats
	if tr.on {
		ms0 = p.MemoStats()
		m0 = mallocs()
	}
	t = tr.now()
	res, err := p.ExecuteCtx(ctx, db, cqa.Options{SolveWorkers: runtime.GOMAXPROCS(0), ParallelThreshold: cqa.DefaultParallelThreshold})
	te = tr.now()
	if err != nil {
		s.chk.fail(err)
		return
	}
	s.chk.check(k, res.Certain)
	if tr.on {
		allocs := float64(mallocs() - m0)
		ms1 := p.MemoStats()
		tier := tierNames[res.Method]
		key := seenKey{iv, word}
		outcome := "none"
		switch {
		case ms1.Hits > ms0.Hits:
			outcome = "hit"
		case ms1.Repairs > ms0.Repairs:
			outcome = "repair"
		case ms1.Misses > ms0.Misses:
			outcome = "cold"
		}
		warm := outcome == "hit" || (outcome == "none" && s.seen[key])
		s.seen[key] = true
		d := float64(te - t)
		switch {
		case !timed && !warm:
			l.tierCold[tier] = append(l.tierCold[tier], d/1e6)
		case timed && warm:
			l.tierWarm[tier] = append(l.tierWarm[tier], d/1e3)
			l.tierAllocs[tier] = append(l.tierAllocs[tier], allocs)
		}
		if timed {
			switch outcome {
			case "hit":
				l.memoHits++
				l.memoLookups++
			case "repair":
				l.memoLookups++
				l.memoRepair = append(l.memoRepair, d/1e3)
			case "cold":
				l.memoLookups++
				l.coldBuilds++
				l.memoCold = append(l.memoCold, d/1e3)
			}
		}
		tr.add(id, "tier."+tier, "op", t, te, fmt.Sprintf("memo=%s certain=%v", outcome, res.Certain))
	}

	var regT sample
	if s.rt != nil {
		var rs, re int64
		var rres cqa.Result
		var rerr error
		fn := func() {
			rs = tr.now()
			rres, rerr = s.reg.Query(ctx, name, q, cqa.Options{})
			re = tr.now()
		}
		heavy := p.Method() == cqa.MethodSAT
		t = tr.now()
		var doErr error
		if heavy {
			doErr = s.rt.DoHeavy(ctx, fn)
		} else {
			doErr = s.rt.Do(ctx, name, fn)
		}
		te = tr.now()
		if doErr == nil && rerr == nil {
			s.chk.check(k, rres.Certain)
		} else {
			s.chk.fail(fmt.Errorf("router/registry: %v %v", doErr, rerr))
		}
		if timed {
			l.routed++
			if heavy {
				l.heavy++
			}
			l.regQuery = append(l.regQuery, float64(re-rs)/1e3)
		}
		regT = append(regT, float64(re-rs)/1e3)
		tr.add(id, "router", "op", t, te, fmt.Sprintf("heavy=%v", heavy))
		tr.add(id, "registry", "router", rs, re, "query")

		req := httptest.NewRequest("GET", "/instances/"+name+"/query?q="+url.QueryEscape(s.wl.Words[word]), nil)
		rec := httptest.NewRecorder()
		if tr.on {
			m0 = mallocs()
		}
		t = tr.now()
		s.handler.ServeHTTP(rec, req)
		te = tr.now()
		if tr.on && timed {
			l.serverAllocs = append(l.serverAllocs, float64(mallocs()-m0))
		}
		var dec decision
		if err := json.Unmarshal(rec.Body.Bytes(), &dec); err != nil || dec.Certain == nil {
			s.chk.fail(fmt.Errorf("handler: %s", strings.TrimSpace(rec.Body.String())))
		} else {
			s.chk.check(k, *dec.Certain)
		}
		if timed {
			l.serverSelf = append(l.serverSelf, float64(te-t)/1e3-regT[0])
		}
		tr.add(id, "server", "op", t, te, "GET query")
	} else {
		t = tr.now()
		rres, rerr := s.reg.Query(ctx, name, q, cqa.Options{})
		te = tr.now()
		if rerr != nil {
			s.chk.fail(rerr)
		} else {
			s.chk.check(k, rres.Certain)
		}
		if timed {
			l.regQuery = append(l.regQuery, float64(te-t)/1e3)
		}
		tr.add(id, "registry", "op", t, te, "query")
	}
	tr.add(id, "op", "", root, tr.now(), fmt.Sprintf("query %s %s", name, s.wl.Words[word]))
}

// mutate replays one mutation through the router (serve workloads) and
// the registry, then times the snapshot publish on the mirror.
func (s *stack) mutate(id int, op Op) {
	tr, l := s.tr, s.l
	name := s.wl.Instances[op.Inst].Name
	root := tr.now()
	var rs, re int64
	var err error
	fn := func() {
		rs = tr.now()
		_, err = s.reg.Mutate(name, cqa.Mutation{Add: op.Add, Remove: op.Del})
		re = tr.now()
	}
	if s.rt != nil {
		t := tr.now()
		if doErr := s.rt.Do(context.Background(), name, fn); doErr != nil {
			err = doErr
		}
		tr.add(id, "router", "op", t, tr.now(), "mutate")
		tr.add(id, "registry", "router", rs, re, "mutate")
	} else {
		fn()
		tr.add(id, "registry", "op", rs, re, "mutate")
	}
	if err != nil {
		s.chk.fail(err)
	}
	l.regMutate = append(l.regMutate, float64(re-rs)/1e3)

	m := s.mirrors[op.Inst]
	applyMutation(m, op)
	t := tr.now()
	m.Interned()
	te := tr.now()
	l.publish = append(l.publish, float64(te-t)/1e3)
	tr.add(id, "instance", "op", t, te, "publish (mirror)")
	tr.add(id, "op", "", root, tr.now(), "mutate "+name)
}

// routerLoad submits the queries of the first routerLoadFor of the
// open-loop stream through the router at their scheduled times, each
// from its own goroutine as the daemon's connection goroutines do, and
// records how long each waited from submission to start. It runs after
// the replay, so every instance is at its final version.
func (s *stack) routerLoad(final []int) {
	type result struct {
		op      int
		wait    time.Duration
		certain bool
		err     error
	}
	var (
		mu  sync.Mutex
		out []result
		wg  sync.WaitGroup
	)
	timer, err := newKernelTimer()
	if err != nil {
		s.chk.fail(fmt.Errorf("router phase: %w", err))
		return
	}
	defer timer.close()
	start := time.Now()
	for i, op := range s.wl.Ops {
		if op.Due >= routerLoadFor {
			break
		}
		if op.Kind != OpQuery {
			continue
		}
		if err := timer.sleepUntil(start.Add(op.Due)); err != nil {
			s.chk.fail(fmt.Errorf("router phase: %w", err))
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			name := s.wl.Instances[op.Inst].Name
			q := s.queries[op.Word]
			r := result{op: i}
			submitted := time.Now()
			fn := func() {
				r.wait = time.Since(submitted)
				res, err := s.reg.Query(context.Background(), name, q, cqa.Options{})
				r.certain, r.err = res.Certain, err
			}
			var err error
			if s.eng.Compile(q).Method() == cqa.MethodSAT {
				err = s.rt.DoHeavy(context.Background(), fn)
			} else {
				err = s.rt.Do(context.Background(), name, fn)
			}
			if err != nil {
				r.err = err
			}
			mu.Lock()
			out = append(out, r)
			mu.Unlock()
		}()
	}
	wg.Wait()
	for _, r := range out {
		s.l.routerOps++
		op := s.wl.Ops[r.op]
		if r.err != nil {
			s.chk.fail(fmt.Errorf("router phase: %w", r.err))
			continue
		}
		s.l.routerWait = append(s.l.routerWait, us(r.wait))
		s.chk.check(refKey{op.Inst, final[op.Inst], op.Word}, r.certain)
	}
}

// replayOps is the op prefix a traced replay runs.
func replayOps(wl *Workload) int {
	if wl.Name != giantName {
		return len(wl.Ops)
	}
	n := 0
	for segs := 0; n < len(wl.Ops); n++ {
		// A burst of mutations ends a segment.
		if wl.Ops[n].Kind == OpMutate && n > 0 && wl.Ops[n-1].Kind == OpQuery {
			if segs++; segs == giantReplaySegments {
				break
			}
		}
	}
	return n
}

// replay builds a fresh stack and replays the warm-up pass and the first
// nOps ops of the stream.
func replay(wl *Workload, giantCSV string, nOps int, traced bool, chk *checker) (*layers, []span, error) {
	tr := &tracer{on: traced, t0: time.Now()}
	s, err := newStack(wl, giantCSV, tr, chk)
	if err != nil {
		return nil, nil, err
	}
	defer s.close()
	st0 := s.eng.Stats()
	for i, p := range wl.Warm {
		s.decide(-1-i, p[0], p[1], refKey{p[0], 0, p[1]}, false)
	}
	at, final := opVersions(wl, nOps)
	gc0, cpu0 := gcCPU()
	t0 := time.Now()
	for i, op := range wl.Ops[:nOps] {
		if op.Kind == OpMutate {
			s.mutate(i, op)
		} else {
			s.decide(i, op.Inst, op.Word, refKey{op.Inst, at[i], op.Word}, true)
		}
	}
	s.l.wall = time.Since(t0)
	gc1, cpu1 := gcCPU()
	if cpu1 > cpu0 {
		s.l.gcFrac = (gc1 - gc0) / (cpu1 - cpu0)
	}
	st1 := s.eng.Stats()
	s.l.parallel = cqa.ParallelStats{Solves: st1.Parallel.Solves - st0.Parallel.Solves, Shards: st1.Parallel.Shards - st0.Parallel.Shards}
	if traced && s.rt != nil {
		s.routerLoad(final)
	}
	return s.l, tr.spans, nil
}

// selfTimes sums each layer's self time: its spans' durations minus the
// part their child spans cover.
func selfTimes(spans []span) map[string]time.Duration {
	type key struct {
		op   int
		name string
	}
	child := map[key]int64{}
	for _, sp := range spans {
		if sp.Parent != "" {
			child[key{sp.Op, sp.Parent}] += sp.End - sp.Start
		}
	}
	out := map[string]time.Duration{}
	for _, sp := range spans {
		out[sp.Name] += time.Duration(sp.End - sp.Start - child[key{sp.Op, sp.Name}])
	}
	return out
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, sp := range spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// printSelfTimes prints each layer's self time, largest first.
func printSelfTimes(workload string, self map[string]time.Duration, ops int) {
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	for _, n := range names {
		fmt.Printf("%-12s self %-20s %12.3f ms  %10.2f us/op\n", workload, n, ms(self[n]), us(self[n])/float64(max(ops, 1)))
	}
}
