// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload per invocation and prints every figure by name, unit and
// sample count, then one JSON result object as the last line:
//
//	perfbench --workload serve-warm --seed 1 --seconds 20 --trace 0 --cqa bin/cqa --out dir
//
// With --trace 0 the result holds the end-to-end figures, measured with
// tracing off; with --trace 1 it holds the per-layer figures of an
// in-process traced replay of the same op stream. Every decision is
// checked against an independently computed reference; any mismatch
// makes the command exit 1. perfbench/run.py builds this command and the
// cqa binary from source and runs it.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

// setupReps is how many times a run sets the system up; setup_s and
// cold_pass_s report the median.
const setupReps = 9

// nproc is the generator's connection budget and the number of
// closed-loop streams.
func nproc() int { return runtime.NumCPU() }

func main() {
	workload := flag.String("workload", "", "workload: serve-warm, serve-churn or giant")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Int("seconds", 12, "length of the measured window, in seconds")
	trace := flag.Int("trace", 0, "1: run the traced in-process replay and report per-layer figures")
	bin := flag.String("cqa", "", "path of the cqa binary (serve workloads)")
	out := flag.String("out", os.TempDir(), "directory for the giant CSV file and the span file")
	flag.Parse()
	if *seconds < 1 {
		logf("--seconds must be at least 1")
		os.Exit(2)
	}
	correct, err := run(*workload, *seed, *seconds, *trace == 1, *bin, *out)
	if err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	if !correct {
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds int, traced bool, bin, out string) (bool, error) {
	wl, err := Generate(name, seed, seconds)
	if err != nil {
		return false, err
	}
	if name != giantName && bin == "" {
		return false, fmt.Errorf("%s needs --cqa", name)
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return false, err
	}
	// Each branch asserts that the warm-up answers are mixed in every
	// tier: a tier whose expected answers are all equal checks nothing.
	rep := newReport(name)
	var chk *checker
	var attempted, failed int
	switch {
	case name == giantName && !traced:
		var g *giantRun
		g, chk, err = runGiant(out, wl, setupReps, time.Duration(seconds)*time.Second)
		if err != nil {
			return false, err
		}
		attempted, failed = g.attempted, g.failed
		if g.firstFailure != "" {
			logf("first failure: %s", g.firstFailure)
		}
		endToEnd(rep, g.setup, g.decide, g.dps, g.mutate, g.firstAfter, g.cold, g.rssMB, g.cpuPerOp)
		rep.add("instance_load_s", g.load.median(), "s", len(g.load), false)
		rep.add("ops_executed", float64(g.executed), "count", 0, false)
	case name == giantName:
		path := filepath.Join(out, "giant-"+strconv.FormatInt(seed, 10)+".csv")
		if err := writeCSV(path, wl.Instances[0].Facts); err != nil {
			return false, err
		}
		defer os.Remove(path)
		n := replayOps(wl)
		chk, err = replayChecker(wl, n)
		if err != nil {
			return false, err
		}
		if err := assertMixed(wl, chk.ref, warmKeys(wl)); err != nil {
			return false, err
		}
		if attempted, err = perLayer(rep, wl, path, n, chk, nil, seed, out); err != nil {
			return false, err
		}
	default:
		sp := planStream(wl)
		ref, err := References(wl, len(wl.Ops), serveKeys(wl, sp))
		if err != nil {
			return false, err
		}
		if err := assertMixed(wl, ref, warmKeys(wl)); err != nil {
			return false, err
		}
		chk = newChecker(wl, ref)
		reps := setupReps
		if traced {
			reps = 1
		}
		sr, err := runServe(bin, wl, reps, chk, sp)
		if err != nil {
			return false, err
		}
		attempted, failed = sr.attempted, sr.failed
		if sr.firstFailure != "" {
			logf("first failure: %s", sr.firstFailure)
		}
		if traced {
			ops, err := perLayer(rep, wl, "", len(wl.Ops), chk, sr, seed, out)
			if err != nil {
				return false, err
			}
			attempted += ops
		} else {
			endToEnd(rep, sr.setup, sr.decide, sr.dps, sr.mutate, sr.firstAfter, sr.cold, sr.rssMB, sr.cpuPerOp)
			rep.add("offered_ops_per_s", float64(len(wl.Ops))/wl.OpenFor.Seconds(), "1/s", 0, false)
			rep.add("gen.lag_p50_ms", sr.lag.quantile(0.5), "ms", len(sr.lag), false)
			rep.add("gen.lag_p99_ms", sr.lag.quantile(0.99), "ms", len(sr.lag), false)
			rep.add("service_p50_ms", sr.service.quantile(0.5), "ms", len(sr.service), false)
			rep.add("service_p99_ms", sr.service.quantile(0.99), "ms", len(sr.service), false)
			rep.add("router.rejected", float64(sr.after.Router.Rejected-sr.before.Router.Rejected), "count", 0, false)
			rep.add("router.shed", float64(sr.after.Router.Shed-sr.before.Router.Shed), "count", 0, false)
			rep.add("memo.cold_builds_timed", delta(sr.after.Engine.Memo.ColdBuilds, sr.before.Engine.Memo.ColdBuilds), "count", 0, false)
			rep.add("memo.repairs_timed", delta(sr.after.Engine.Memo.Repairs, sr.before.Engine.Memo.Repairs), "count", 0, false)
			rep.add("plan.misses_timed", delta(sr.after.Engine.Plans.Misses, sr.before.Engine.Plans.Misses), "count", 0, false)
		}
	}
	failed += chk.failed
	if chk.firstFail != "" {
		logf("first replay failure: %s", chk.firstFail)
	}
	rep.add("fail_frac", float64(failed)/float64(max(attempted, 1)), "ratio", attempted, false)
	rep.add("mismatches", float64(chk.mismatches), "count", chk.checked, false)
	for _, m := range chk.first {
		logf("MISMATCH %s", m)
	}
	correct := chk.mismatches == 0
	rep.print(correct, max(attempted, 1), failed)
	return correct, nil
}

// delta is after - before of a /metrics counter. The memo counters sum
// over the plans still cached, so under plan eviction they can go down.
func delta(after, before uint64) float64 { return float64(after) - float64(before) }

// endToEnd adds the end-to-end figures. The ones marked gated make up
// the result object (BENCHMARK.json's end_to_end list); the others are
// printed with their sample counts but, on a shared two-core machine,
// spread too far from run to run to bound a regression (see
// perfbench/design.json).
func endToEnd(rep *report, setup sample, decide series, dps float64, mutate, firstAfter, cold sample, rss, cpuPerOp float64) {
	const gated = true
	rep.add("setup_s", setup.median(), "s", len(setup), gated)
	all := decide.all()
	rep.add("decide_p50_ms", all.quantile(0.5), "ms", len(all), gated)
	rep.add("decide_p90_ms", all.quantile(0.90), "ms", len(all), !gated)
	rep.add("decide_p99_ms", all.quantile(0.99), "ms", len(all), !gated)
	rep.add("decide_p99_win_ms", decide.quantile(0.99), "ms", len(all), !gated)
	rep.add("sustained_dps", dps, "1/s", 0, !gated)
	rep.add("mutate_p99_ms", mutate.quantile(0.99), "ms", len(mutate), !gated)
	rep.add("first_after_mutate_p50_ms", firstAfter.quantile(0.5), "ms", len(firstAfter), gated)
	rep.add("cold_pass_s", cold.median(), "s", len(cold), !gated)
	rep.add("peak_rss_mb", rss, "MB", 0, gated)
	rep.add("cpu_us_per_op", cpuPerOp, "us", 0, gated)
}

// replayChecker computes the references the replay of the first n ops
// needs.
func replayChecker(wl *Workload, n int) (*checker, error) {
	at, _ := opVersions(wl, n)
	keys := warmKeys(wl)
	for i, op := range wl.Ops[:n] {
		if op.Kind == OpQuery {
			keys = append(keys, refKey{op.Inst, at[i], op.Word})
		}
	}
	ref, err := References(wl, n, keys)
	if err != nil {
		return nil, err
	}
	return newChecker(wl, ref), nil
}

// perLayer runs the replay untraced and traced, writes the spans, prints
// each layer's self time and adds the per-layer figures. It returns the
// number of ops the replays attempted.
func perLayer(rep *report, wl *Workload, giantCSV string, n int, chk *checker, sr *serveRun, seed int64, out string) (int, error) {
	plain, _, err := replay(wl, giantCSV, n, false, chk)
	if err != nil {
		return 0, err
	}
	runtime.GC()
	l, spans, err := replay(wl, giantCSV, n, true, chk)
	if err != nil {
		return 0, err
	}
	path := filepath.Join(out, fmt.Sprintf("spans-%s-%d.jsonl", wl.Name, seed))
	if err := writeSpans(path, spans); err != nil {
		return 0, err
	}
	fmt.Printf("%-12s spans written to %s (%d spans)\n", wl.Name, path, len(spans))
	printSelfTimes(wl.Name, selfTimes(spans), n)

	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	rep.add("server.self_us_p50", l.serverSelf.median(), "us", len(l.serverSelf), true)
	rep.add("server.allocs_per_decision", l.serverAllocs.mean(), "count", len(l.serverAllocs), true)
	rep.add("router.wait_us_p99", l.routerWait.quantile(0.99), "us", len(l.routerWait), true)
	rep.add("router.heavy_frac", ratio(uint64(l.heavy), uint64(l.routed)), "ratio", l.routed, true)
	var rejected, shed, lag float64
	if sr != nil {
		rejected = float64(sr.after.Router.Rejected - sr.before.Router.Rejected)
		shed = float64(sr.after.Router.Shed - sr.before.Router.Shed)
		lag = sr.lag.quantile(0.99)
	}
	rep.add("router.rejected", rejected, "count", 0, true)
	rep.add("router.shed", shed, "count", 0, true)
	rep.add("registry.query_us_p50", l.regQuery.median(), "us", len(l.regQuery), true)
	rep.add("registry.mutate_us_p50", l.regMutate.median(), "us", len(l.regMutate), true)
	rep.add("plan.compile_us_p50", l.compile.median(), "us", len(l.compile), true)
	rep.add("plan.hit_ratio", ratio(l.planHits, l.planLookups), "ratio", int(l.planLookups), true)
	rep.add("instance.load_s", l.loadS, "s", 0, true)
	rep.add("instance.intern_ms", l.internMs, "ms", len(wl.Instances), true)
	rep.add("instance.publish_us_p50", l.publish.median(), "us", len(l.publish), true)
	rep.add("memo.hit_ratio", ratio(l.memoHits, l.memoLookups), "ratio", int(l.memoLookups), true)
	rep.add("memo.repair_us_p50", l.memoRepair.median(), "us", len(l.memoRepair), true)
	rep.add("memo.cold_us_p50", l.memoCold.median(), "us", len(l.memoCold), true)
	rep.add("memo.cold_builds", float64(l.coldBuilds), "count", 0, true)
	for _, t := range tierList {
		rep.add(t+".warm_us_p50", l.tierWarm[t].median(), "us", len(l.tierWarm[t]), true)
		rep.add(t+".cold_ms", l.tierCold[t].median(), "ms", len(l.tierCold[t]), true)
		rep.add(t+".allocs_per_decision", l.tierAllocs[t].mean(), "count", len(l.tierAllocs[t]), true)
	}
	rep.add("parallel.solves", float64(l.parallel.Solves), "count", 0, true)
	rep.add("parallel.shards", float64(l.parallel.Shards), "count", 0, true)
	rep.add("gc.cpu_frac", plain.gcFrac, "ratio", 0, true)
	rep.add("gen.lag_p99_ms", lag, "ms", 0, true)
	rep.add("trace.overhead_frac", (l.wall.Seconds()-plain.wall.Seconds())/plain.wall.Seconds(), "ratio", n, true)
	rep.add("replay_untraced_s", plain.wall.Seconds(), "s", n, false)
	rep.add("replay_traced_s", l.wall.Seconds(), "s", n, false)
	return 2*(len(wl.Warm)+n) + l.routerOps, nil
}
