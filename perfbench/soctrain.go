package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"cohmeleon/internal/core"
	"cohmeleon/internal/esp"
	"cohmeleon/internal/experiment"
	"cohmeleon/internal/noc"
	"cohmeleon/internal/policy"
	"cohmeleon/internal/soc"
	"cohmeleon/internal/workload"
)

// soc-train runs the paper's per-SoC protocol cycle-accurately, one app
// run at a time. A cell is one SoC: generate its training and test
// apps, train a fresh agent online, test it frozen (wrapped in the
// timing policy, then unwrapped, which must decide identically), then
// run the four fixed policies and the manually-tuned one. Every app run
// builds a fresh SoC, so the modelled caches start empty.
//
// Each SoC runs fixed application instances, as the harness does at its
// default seed; the workload seed drives the agent's exploration and the
// simulation's random streams (irregular accesses, traffic draws). A
// round is one cell per SoC. Rounds 0 and 1 use the workload seed and
// must produce identical runs; later rounds use fresh seeds derived from
// it. The simulated outcome metrics and modelled counters come from
// round 0 alone, so they repeat exactly for a seed on any host.

const socTrainIters = 4 // online training iterations per cell

// The apps' generator seeds: the harness's default experiment seed plus
// its training and test offsets.
const (
	socTrainAppSeed = 42 + 1000
	socTestAppSeed  = 42 + 2000
)

// socClassGen generates one size class's share of an app: at least
// eight invocations, in phases of up to four threads running chains of
// up to two accelerators at most twice.
func socClassGen(c workload.SizeClass) workload.GenConfig {
	return workload.GenConfig{
		MinInvocations: 8, MaxThreads: 4, MaxChain: 2, MaxLoops: 2,
		Classes: []workload.SizeClass{c},
	}
}

// socTrainConfigs is the fixed subset of the Table-4 SoCs a round runs:
// two traffic-generator SoCs (built as Figure 9 builds them at the
// default seed), the mixed-accelerator SoC4 and the SoC5/SoC6 case
// studies.
func socTrainConfigs() []*soc.Config {
	const figure9Seed = 42
	return []*soc.Config{soc.SoC1(figure9Seed + 1), soc.SoC3(figure9Seed + 3), soc.SoC4(), soc.SoC5(), soc.SoC6()}
}

// socTrainApp is the app generated for a SoC: the case study on SoC5 and
// SoC6, as in the paper, and elsewhere an app stratified by size class,
// one generated run of phases per class (S, M, L, XL), so it mixes all
// four classes.
func socTrainApp(cfg *soc.Config, seed uint64) (*workload.App, error) {
	switch cfg.Name {
	case "SoC5", "SoC6":
		return workload.AppFor(cfg, seed)
	}
	app := &workload.App{Name: fmt.Sprintf("%s-stratified-%d", cfg.Name, seed)}
	for c := workload.SizeClass(0); c < workload.NumSizeClasses; c++ {
		part, err := workload.Generate(cfg, socClassGen(c), seed+uint64(c))
		if err != nil {
			return nil, err
		}
		for _, ph := range part.Phases {
			ph.Name = c.String() + "/" + ph.Name
			app.Phases = append(app.Phases, ph)
		}
	}
	return app, nil
}

type socTrain struct {
	seed   uint64
	nSoCs  int
	cells  int
	rounds []roundRate // every complete round

	runs        []time.Duration // build+run per app run
	buildTime   time.Duration
	runTime     time.Duration
	genTime     time.Duration
	gens        int
	invocations int64
	allocBytes  uint64
	allocs      uint64
	learnTime   time.Duration
	learnCalls  int64
	checks      int
	mismatches  int
	runDigests  []string   // every app run, in order
	round0      [][]string // round 0's run digests per SoC
	points      []experiment.Fig9Point
	counters    modelled
	modes       [soc.NumModes]int64
}

func newSocTrain(seed uint64) bench {
	return &socTrain{seed: seed, nSoCs: len(socTrainConfigs())}
}

// setup validates the SoC set by building each SoC once and warms the
// simulator with one fixed-mode run of the test app per SoC, so lazy
// start-up cost lands here instead of in the first measured cell.
func (w *socTrain) setup(dir string) error {
	experiment.ResetRunCache()
	for _, cfg := range socTrainConfigs() {
		app, err := socTrainApp(cfg, socTestAppSeed)
		if err != nil {
			return err
		}
		s, err := cfg.Build()
		if err != nil {
			return err
		}
		if _, err := workload.Run(esp.NewSystem(s, policy.NewFixed(soc.CohDMA)), app, w.seed); err != nil {
			return err
		}
	}
	return nil
}

// roundSeed is the seed of round r: the workload seed for rounds 0 and 1
// (the repeat check), fresh ones after.
func (w *socTrain) roundSeed(r int) uint64 {
	if r <= 1 {
		return w.seed
	}
	return w.seed + uint64(r-1)*0x9e3779b97f4a7c15
}

func (w *socTrain) measure(lim limit, tr *tracer) (time.Duration, error) {
	start := time.Now()
	roundCPU, runs, inv := cpuTime(), 0, int64(0)
	// Round 0 always completes: the simulated outcomes need all of it.
	for c := 0; c < w.nSoCs || lim.more(c); c++ {
		if err := w.cell(c, tr); err != nil {
			return 0, err
		}
		w.cells++
		if w.cells%w.nSoCs == 0 {
			now := cpuTime()
			w.rounds = append(w.rounds, roundRate{
				cpu: (now - roundCPU).Seconds(), runs: len(w.runs) - runs, inv: w.invocations - inv,
				latency: seconds(w.runs[runs:]),
			})
			roundCPU, runs, inv = now, len(w.runs), w.invocations
		}
	}
	return time.Since(start), nil
}

// roundRate is the work of one complete round, the CPU time it took and
// its app runs' latencies.
type roundRate struct {
	cpu     float64
	runs    int
	inv     int64
	latency []float64
}

func (w *socTrain) cell(c int, tr *tracer) error {
	r, k := c/w.nSoCs, c%w.nSoCs
	seed := w.roundSeed(r)
	cfg := socTrainConfigs()[k]
	cellSpan := tr.begin("bench.cell", 0)
	defer tr.end(cellSpan)

	var apps [2]*workload.App
	for i, appSeed := range []uint64{socTrainAppSeed, socTestAppSeed} {
		id := tr.begin("workload.Generate", cellSpan)
		start := time.Now()
		app, err := socTrainApp(cfg, appSeed)
		w.genTime += time.Since(start)
		w.gens++
		tr.end(id)
		if err != nil {
			return err
		}
		apps[i] = app
	}
	train, test := apps[0], apps[1]

	agentCfg := core.DefaultConfig()
	agentCfg.DecayIterations = socTrainIters
	agentCfg.Seed = seed + uint64(k)
	agent, err := core.New(agentCfg)
	if err != nil {
		return err
	}
	timed := &timedAgent{Cohmeleon: agent, w: w, tr: tr}
	var digests []string
	run := func(pol esp.Policy, app *workload.App, seed uint64) (*workload.AppResult, error) {
		res, err := w.appRun(cfg, pol, app, seed, tr, cellSpan, r == 0)
		if err == nil {
			digests = append(digests, runDigest(cfg, pol, seed, res))
		}
		return res, err
	}
	for i := 0; i < socTrainIters; i++ {
		if _, err := run(timed, train, seed+7+uint64(i)); err != nil {
			return err
		}
		agent.EndIteration()
	}
	agent.Freeze()
	agent.ResetDecisions()
	learned, err := run(timed, test, seed+3)
	if err != nil {
		return err
	}
	if r == 0 {
		d := agent.Decisions()
		for m := range w.modes {
			w.modes[m] += d[m]
		}
	}
	// The timing wrapper must be invisible to the agent.
	if _, err := run(agent, test, seed+3); err != nil {
		return err
	}
	w.check(digests[len(digests)-2] == digests[len(digests)-1],
		"%s: wrapped and unwrapped frozen agents differ", cfg.Name)

	points := []experiment.Fig9Point{simPoint(cfg, agent, learned)}
	for _, pol := range []esp.Policy{
		policy.NewFixed(soc.NonCohDMA), policy.NewFixed(soc.LLCCohDMA),
		policy.NewFixed(soc.CohDMA), policy.NewFixed(soc.FullyCoh), policy.NewManual(),
	} {
		res, err := run(pol, test, seed+3)
		if err != nil {
			return err
		}
		points = append(points, simPoint(cfg, pol, res))
	}

	switch r {
	case 0:
		w.round0 = append(w.round0, digests)
		w.points = append(w.points, points...)
	case 1:
		// Round 1 repeats round 0's inputs: every run must match.
		w.check(slices.Equal(digests, w.round0[k]), "%s: repeated cell differs from round 0", cfg.Name)
	}
	w.runDigests = append(w.runDigests, digests...)
	return nil
}

// appRun builds a fresh SoC and runs app on it under pol, timing both
// calls and the run's allocations. count adds the SoC's modelled
// counters to the round-0 totals.
func (w *socTrain) appRun(cfg *soc.Config, pol esp.Policy, app *workload.App, seed uint64, tr *tracer, parent int, count bool) (*workload.AppResult, error) {
	start := time.Now()
	id := tr.begin("soc.Build", parent)
	s, err := cfg.Build()
	tr.end(id)
	build := time.Since(start)
	w.buildTime += build
	if err != nil {
		return nil, err
	}

	id = tr.begin("workload.Run", parent)
	if t, ok := pol.(*timedAgent); ok {
		t.parent = id
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	res, err := workload.Run(esp.NewSystem(s, pol), app, seed)
	d := time.Since(t0)
	runtime.ReadMemStats(&after)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	w.runTime += d
	w.runs = append(w.runs, build+d)
	n := len(res.AllInvocations())
	w.invocations += int64(n)
	w.allocBytes += after.TotalAlloc - before.TotalAlloc
	w.allocs += after.Mallocs - before.Mallocs
	if count {
		w.counters.add(s)
	}
	return res, nil
}

func (w *socTrain) check(ok bool, format string, args ...any) {
	w.checks++
	if !ok {
		w.mismatches++
		fmt.Fprintf(os.Stderr, "perfbench: soc-train: "+format+"\n", args...)
	}
}

// simPoint is one policy's raw simulated outcome on a SoC, in the form
// experiment.HeadlineFrom aggregates.
func simPoint(cfg *soc.Config, pol esp.Policy, res *workload.AppResult) experiment.Fig9Point {
	return experiment.Fig9Point{
		SoC: cfg.Name, Policy: pol.Name(), RawExec: float64(res.Cycles), RawMem: float64(res.OffChip),
	}
}

// runDigest fingerprints one app run's simulated outcome.
func runDigest(cfg *soc.Config, pol esp.Policy, seed uint64, res *workload.AppResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s/%s/%d cycles=%d offchip=%d", cfg.Name, pol.Name(), seed, res.Cycles, res.OffChip)
	for _, ph := range res.Phases {
		fmt.Fprintf(&b, " %d:%d", ph.Cycles, ph.OffChip)
	}
	return b.String()
}

// verify has nothing left to check: a cell checks its runs as it goes,
// and those checks are part of the timed work.
func (w *socTrain) verify() error { return nil }

func (w *socTrain) ops() int          { return w.cells }
func (w *socTrain) digests() []string { return w.runDigests }

// attempted counts app runs and output checks; failed counts the checks
// that did not hold (a failed run aborts the workload instead).
func (w *socTrain) attempted() int { return len(w.runs) + w.checks }
func (w *socTrain) failed() int    { return w.mismatches }

func (w *socTrain) endToEnd(m metrics) error {
	// Rates (work per CPU second, see cpuTime) and latency percentiles
	// are medians over the complete rounds, so host contention during
	// one round does not move them.
	var cells, jobs, inv, p50, p90 []float64
	for _, r := range w.rounds {
		cells = append(cells, float64(w.nSoCs)/r.cpu)
		jobs = append(jobs, float64(r.runs)/r.cpu)
		inv = append(inv, float64(r.inv)/r.cpu)
		p50 = append(p50, quantile(r.latency, 0.5))
		p90 = append(p90, quantile(r.latency, 0.9))
	}
	m["cells_per_cpu_s"] = median(cells)
	m["jobs_per_cpu_s"] = median(jobs)
	m["inv_per_cpu_s"] = median(inv)
	m["job_latency_p50_s"] = median(p50)
	m["job_latency_p90_s"] = median(p90)
	// HeadlineFrom's formulas, shifted by one so no value sits near 0:
	// mean fixed/learned exec, mean learned/fixed off-chip, and
	// learned/manual exec, over the SoCs × the four fixed policies.
	h := experiment.HeadlineFrom(&experiment.Fig9Result{Points: w.points})
	m["sim_speedup_vs_fixed"] = 1 + h.AvgSpeedup
	m["sim_offchip_vs_fixed"] = 1 - h.AvgMemReduction
	m["sim_exec_vs_manual"] = h.VsManualExec
	return nil
}

func (w *socTrain) perLayer(m metrics) error {
	inv := float64(w.invocations)
	m["workload.run_us_per_inv"] = ratio(float64(w.runTime.Microseconds()), inv)
	m["soc.build_ms"] = ratio(w.buildTime.Seconds()*1e3, float64(len(w.runs)))
	m["workload.generate_ms"] = ratio(w.genTime.Seconds()*1e3, float64(w.gens))
	m["workload.alloc_bytes_per_inv"] = ratio(float64(w.allocBytes), inv)
	m["workload.allocs_per_inv"] = ratio(float64(w.allocs), inv)
	m["core.decide_observe_us"] = ratio(float64(w.learnTime.Nanoseconds())/1e3, float64(w.learnCalls))
	w.counters.report(m)
	var total int64
	for _, n := range w.modes {
		total += n
	}
	for mode, n := range w.modes {
		m["esp.mode_share."+soc.Mode(mode).String()] = ratio(float64(n), float64(total))
	}
	return nil
}

func (w *socTrain) close() {}

// timedAgent is a pass-through esp.ActionPolicy around the Cohmeleon
// agent that times its decide and observe calls.
type timedAgent struct {
	*core.Cohmeleon
	w      *socTrain
	tr     *tracer
	parent int // the enclosing workload.Run span
}

func (t *timedAgent) DecideAction(ctx *esp.Context) soc.Action {
	id := t.tr.begin("core.DecideAction", t.parent)
	start := time.Now()
	a := t.Cohmeleon.DecideAction(ctx)
	t.w.learnTime += time.Since(start)
	t.w.learnCalls++
	t.tr.end(id)
	return a
}

func (t *timedAgent) Observe(res *esp.Result) {
	id := t.tr.begin("core.Observe", t.parent)
	start := time.Now()
	t.Cohmeleon.Observe(res)
	t.w.learnTime += time.Since(start)
	t.tr.end(id)
}

// modelled sums the simulated hardware counters of built SoCs.
type modelled struct {
	l2Hits, l2Misses                              int64
	llcHits, llcMisses, llcRecalls, llcWritebacks int64
	dramReads, dramWrites, dramBusy               int64
	linkBusy                                      [noc.NumPlanes]int64
	comm, active                                  int64
	cycles                                        int64
}

func (c *modelled) add(s *soc.SoC) {
	for i := 0; i < s.Agents(); i++ {
		st := s.AgentCache(i).Stats()
		c.l2Hits += st.Hits
		c.l2Misses += st.Misses
	}
	for _, mt := range s.Mem {
		st := mt.LLC.Stats()
		c.llcHits += st.Hits
		c.llcMisses += st.Misses
		c.llcRecalls += st.Recalls
		c.llcWritebacks += st.Writebacks
		c.dramReads += mt.DRAM.Reads()
		c.dramWrites += mt.DRAM.Writes()
		c.dramBusy += int64(mt.DRAM.BusyCycles())
	}
	for p := noc.Plane(0); p < noc.NumPlanes; p++ {
		c.linkBusy[p] += int64(s.Mesh.LinkBusy(p))
	}
	for _, a := range s.Accs {
		c.comm += int64(a.TotalComm)
		c.active += int64(a.TotalActive)
	}
	c.cycles += int64(s.Eng.Now())
}

func (c *modelled) report(m metrics) {
	m["cache.l2_hits"] = float64(c.l2Hits)
	m["cache.l2_misses"] = float64(c.l2Misses)
	m["cache.llc_hits"] = float64(c.llcHits)
	m["cache.llc_misses"] = float64(c.llcMisses)
	m["cache.llc_recalls"] = float64(c.llcRecalls)
	m["cache.llc_writebacks"] = float64(c.llcWritebacks)
	m["mem.dram_reads"] = float64(c.dramReads)
	m["mem.dram_writes"] = float64(c.dramWrites)
	m["mem.dram_busy_cycles"] = float64(c.dramBusy)
	for p := noc.Plane(0); p < noc.NumPlanes; p++ {
		m["noc.link_busy."+p.String()] = float64(c.linkBusy[p])
	}
	m["acc.comm_share"] = ratio(float64(c.comm), float64(c.active))
	m["sim.cycles"] = float64(c.cycles)
}
