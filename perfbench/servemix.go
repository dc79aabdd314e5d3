package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"cohmeleon/internal/experiment"
	"cohmeleon/internal/server"
)

// serve-mix runs an in-process job server behind httptest with two
// closed-loop clients: each submits a job, follows its event stream to
// the end, fetches the report, then submits the next. The seeded job mix
// has small full-fidelity sweeps with fresh seeds (simulate, then write),
// screened sweeps (estimate, then write) and exact repeats of earlier
// specs (checkpoint replay, which reads the store). Set-up starts the
// server and calibrates the cost model for screenSeed through a served
// one-cell screening job.

const (
	serveClients = 2
	screenMin    = 8 // screened sweeps run screenMin..screenMin+screenSpan-1 cells
	screenSpan   = 96

	// outcomeJobs is how many full jobs, the first in plan order, the
	// simulated outcome metrics average over.
	outcomeJobs = 60

	// A full job's cost follows the data its one scenario moves, which
	// spans three orders of magnitude across seeds (a few MB to 2 GB,
	// 20 ms to over 10 s on one core). Full jobs keep fresh seeds whose
	// scenario moves between these bounds, so each costs a fraction of a
	// second and a run serves over a hundred jobs.
	fullMinBytes = 48 << 20
	fullMaxBytes = 96 << 20
)

// mixBlock is the job mix: every block of len(mixBlock) consecutive jobs
// holds these kinds in a seeded order, so the mix is exact in every run.
var mixBlock = []string{
	"full", "full", "full", "full", "full", "full",
	"screen", "screen", "screen", "screen", "screen", "screen", "screen", "screen",
	"repeat", "repeat", "repeat", "repeat", "repeat", "repeat",
}

var (
	screenLearners  = []string{"q", "double-q", "ucb1", "boltzmann"}
	screenSchedules = []string{"linear", "exp", "const"}
)

// servedJob is one planned job and what serving it showed.
type servedJob struct {
	kind   string // "full", "screen" or "repeat"
	spec   server.JobSpec
	target int // the repeated job, for kind "repeat"
	inv    int // invocations a full job's cell evaluates

	ok                         bool
	report                     string
	cells                      int
	done                       time.Time // when the report was read
	latency, submit, queueWait time.Duration
	run, fetch                 time.Duration
}

type serveMix struct {
	seed uint64
	dir  string
	srv  *server.Server
	ts   *httptest.Server
	hc   *http.Client

	calibrate time.Duration

	mu      sync.Mutex
	rng     *rand.Rand
	kinds   []string // the current mix block
	screens int
	plan    []*servedJob // every planned job, by index
	started int

	start         time.Time
	windows       []time.Duration // process CPU time at each window's end
	before, after experiment.StatsSnapshot
	grown         int64
	outcomes      [][]experiment.SweepRow // the first outcomeJobs full jobs' rows
	checks        int
	failures      int
}

func newServeMix(seed uint64) bench {
	return &serveMix{seed: seed, rng: rand.New(rand.NewPCG(seed, 0x5e7e))}
}

// screenSpec is the q-th screened sweep: one seed (so the set-up
// calibration serves every one) over distinct (scenario count,
// learner, schedule) triples. There are 1152 of them, more than a run
// serves even on a fast host, so no screened job replays an earlier
// one's cells and the mix of work stays the same at any host speed.
func (w *serveMix) screenSpec(q int) server.JobSpec {
	return server.JobSpec{
		Experiment: "sweep", Profile: "quick", Seed: screenSeed, Fidelity: experiment.FidelityScreening,
		Scenarios: screenMin + q%screenSpan,
		Learner:   screenLearners[q/screenSpan%len(screenLearners)],
		Schedule:  screenSchedules[q/(screenSpan*len(screenLearners))%len(screenSchedules)],
	}
}

// job returns the i-th planned job, extending the plan in index order so
// the mix depends only on the seed, never on which client asks first.
func (w *serveMix) job(i int) *servedJob {
	for len(w.plan) <= i {
		n := len(w.plan)
		if n%len(mixBlock) == 0 {
			w.kinds = append(w.kinds[:0], mixBlock...)
			w.rng.Shuffle(len(w.kinds), func(a, b int) { w.kinds[a], w.kinds[b] = w.kinds[b], w.kinds[a] })
		}
		j := &servedJob{kind: w.kinds[n%len(mixBlock)]}
		if n == 0 {
			j.kind = "full" // nothing to repeat yet
		}
		switch j.kind {
		case "full":
			j.spec, j.inv = w.fullSpec()
		case "screen":
			j.spec = w.screenSpec(w.screens)
			w.screens++
		default:
			// Repeat the nearest non-repeat job at or before a random
			// earlier index.
			t := w.rng.IntN(n)
			for w.plan[t].kind == "repeat" {
				t--
			}
			j.spec, j.target = w.plan[t].spec, t
		}
		w.plan = append(w.plan, j)
	}
	return w.plan[i]
}

// fullSpec draws fresh seeds until one's single-scenario tiny sweep
// moves between fullMinBytes and fullMaxBytes, and returns its spec and
// the invocations its cell evaluates.
func (w *serveMix) fullSpec() (server.JobSpec, int) {
	for {
		spec := server.JobSpec{Experiment: "sweep", Profile: "tiny", Seed: w.rng.Uint64() | 1, Scenarios: 1}
		work, err := sweepWork(directOptions(spec))
		if err == nil && work[0].bytes >= fullMinBytes && work[0].bytes <= fullMaxBytes {
			return spec, work[0].inv
		}
	}
}

// setup starts a server over a fresh store under dir and calibrates the
// cost model for screenSeed with a served one-cell screening job.
func (w *serveMix) setup(dir string) error {
	w.dir = filepath.Join(dir, "cache")
	experiment.ResetRunCache()
	experiment.ResetCheckpointStats()
	srv, err := server.New(server.Config{
		CacheDir: w.dir, QueueCap: 2 * serveClients, JobWorkers: serveClients,
		CellBudget: serveClients, CellWorkers: 1,
	})
	if err != nil {
		return err
	}
	srv.Start()
	w.srv = srv
	w.ts = httptest.NewServer(srv.Handler())
	w.hc = w.ts.Client()
	calib := w.screenSpec(0)
	calib.Scenarios = 1
	j := &servedJob{spec: calib}
	w.serve(j, nil)
	if !j.ok {
		return fmt.Errorf("calibration job failed")
	}
	w.calibrate = j.latency
	return nil
}

func (w *serveMix) measure(lim limit, tr *tracer) (time.Duration, error) {
	w.before = experiment.Snapshot()
	size := dirBytes(w.dir)
	start := time.Now()
	w.start = start
	// Sample the process CPU time at every window boundary until the
	// clients are done.
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(rateWindow)
		defer tick.Stop()
		w.windows = append(w.windows, cpuTime())
		for {
			select {
			case <-tick.C:
				w.windows = append(w.windows, cpuTime())
			case <-stop:
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				w.mu.Lock()
				if !lim.more(w.started) {
					w.mu.Unlock()
					return
				}
				j := w.job(w.started)
				w.started++
				w.mu.Unlock()
				w.serve(j, tr)
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-sampled
	elapsed := time.Since(start)
	w.after = experiment.Snapshot()
	w.grown = dirBytes(w.dir) - size
	return elapsed, nil
}

// serve submits one job, follows its events to the end and fetches its
// report, recording each step's latency. Any refusal (429 included), a
// job that does not finish done, or a failed fetch leaves j.ok false.
func (w *serveMix) serve(j *servedJob, tr *tracer) {
	jobSpan := tr.begin("bench.job", 0)
	defer tr.end(jobSpan)
	start := time.Now()
	body, err := json.Marshal(j.spec)
	if err != nil {
		return
	}
	id := tr.begin("server.submit", jobSpan)
	resp, err := w.hc.Post(w.ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	var st server.JobStatus
	if err == nil {
		err = decodeStatus(resp, http.StatusAccepted, &st)
	}
	j.submit = time.Since(start)
	tr.end(id)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: serve-mix: submit: %v\n", err)
		return
	}

	id = tr.begin("server.events", jobSpan)
	final, err := w.follow(st.ID, j, start)
	tr.end(id)
	if err != nil || final != server.StateDone {
		fmt.Fprintf(os.Stderr, "perfbench: serve-mix: %s ended %s: %v\n", st.ID, final, err)
		return
	}

	id = tr.begin("server.report", jobSpan)
	fetchStart := time.Now()
	resp, err = w.hc.Get(w.ts.URL + "/jobs/" + st.ID + "/report")
	var report []byte
	if err == nil {
		report, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("report status %d", resp.StatusCode)
		}
	}
	now := time.Now()
	j.done = now
	j.fetch = now.Sub(fetchStart)
	j.latency = now.Sub(start)
	tr.end(id)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: serve-mix: %s report: %v\n", st.ID, err)
		return
	}
	j.report = string(report)
	j.ok = true
}

// follow reads a job's NDJSON event stream until the server ends it,
// counting cells and timing the queued and running phases. It returns
// the last state the stream reported.
func (w *serveMix) follow(id string, j *servedJob, submitted time.Time) (server.JobState, error) {
	resp, err := w.hc.Get(w.ts.URL + "/jobs/" + id + "/events")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("events status %d", resp.StatusCode)
	}
	var state server.JobState
	var running time.Time
	dec := json.NewDecoder(resp.Body)
	for {
		var e server.Event
		if err := dec.Decode(&e); err == io.EOF {
			return state, nil
		} else if err != nil {
			return state, err
		}
		switch {
		case e.Event == "cell":
			j.cells++
		case e.State == server.StateRunning:
			running = time.Now()
			j.queueWait = running.Sub(submitted)
		case e.State.Terminal():
			j.run = time.Since(running)
		}
		if e.Event == "state" {
			state = e.State
		}
	}
}

func decodeStatus(resp *http.Response, want int, st *server.JobStatus) error {
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(resp.Body).Decode(st)
}

// verify checks the served outputs once the clients are done: every
// repeat's report equals its target's; the first outcomeJobs completed
// full jobs' reports equal direct experiment runs of their specs; and for each job
// kind the first served report equals a direct run recomputed with the
// run cache and checkpoint replay off.
func (w *serveMix) verify() error {
	jobs := w.plan[:w.started]
	for _, j := range jobs {
		if j.kind == "repeat" && j.ok && jobs[j.target].ok {
			w.check(j.report == jobs[j.target].report, "repeat of %+v returned different report bytes", j.spec)
		}
	}
	entry, err := experiment.Lookup("sweep")
	if err != nil {
		return err
	}
	// The first outcomeJobs full jobs: each served report must render
	// what a direct run renders from the store, and their rows give the
	// simulated outcome.
	for _, j := range jobs {
		if j.kind != "full" || !j.ok || len(w.outcomes) == outcomeJobs {
			continue // a failed job already counts as failed
		}
		rep, err := entry.Run(directOptions(j.spec))
		if err != nil {
			return fmt.Errorf("direct run of %+v: %w", j.spec, err)
		}
		w.check(rep.Render() == j.report, "served full report differs from the direct run of %+v", j.spec)
		w.outcomes = append(w.outcomes, rep.(*experiment.SweepResult).Rows)
	}
	if len(w.outcomes) < outcomeJobs {
		return fmt.Errorf("served %d full jobs, need %d", len(w.outcomes), outcomeJobs)
	}
	experiment.EnableRunCache(false)
	defer experiment.EnableRunCache(true)
	seen := map[string]bool{}
	for _, j := range jobs {
		if seen[j.kind] || !j.ok {
			continue
		}
		seen[j.kind] = true
		rep, err := entry.Run(directOptions(j.spec))
		if err != nil {
			return fmt.Errorf("direct run of %+v: %w", j.spec, err)
		}
		w.check(rep.Render() == j.report, "served %s report differs from the recomputed run of %+v", j.kind, j.spec)
	}
	return nil
}

// directOptions maps a served sweep spec onto experiment options the way
// the server does, minus checkpoint replay.
func directOptions(s server.JobSpec) experiment.Options {
	opt := experiment.Tiny()
	if s.Profile == "quick" {
		opt = experiment.Quick()
	}
	if s.Seed != 0 {
		opt.Seed = s.Seed
	}
	if s.Scenarios > 0 {
		opt.SweepScenarios = s.Scenarios
	}
	opt.Learner, opt.Schedule, opt.Protocol = s.Learner, s.Schedule, s.Protocol
	opt.FineGrain, opt.Fidelity = s.FineGrain, s.Fidelity
	opt.Workers = 1
	return opt
}

func (w *serveMix) check(ok bool, format string, args ...any) {
	w.checks++
	if !ok {
		w.failures++
		fmt.Fprintf(os.Stderr, "perfbench: serve-mix: "+format+"\n", args...)
	}
}

func (w *serveMix) ops() int { return w.started }

func (w *serveMix) digests() []string {
	out := make([]string, w.started)
	for i, j := range w.plan[:w.started] {
		out[i] = j.report
	}
	return out
}

func (w *serveMix) attempted() int { return w.started + w.checks }

func (w *serveMix) failed() int {
	n := w.failures
	for _, j := range w.plan[:w.started] {
		if !j.ok {
			n++
		}
	}
	return n
}

// rateWindow is the length of the windows a serve-mix run is split into.
// Its rates (work per CPU second, see cpuTime) and latency percentiles
// are medians over the complete windows, each job counted in the window
// it completed in, so host contention in one window does not move them.
const rateWindow = 3 * time.Second

func (w *serveMix) endToEnd(m metrics) error {
	screenInv, err := w.screenInvocations()
	if err != nil {
		return err
	}
	n := len(w.windows) - 1 // complete windows
	if n < 1 {
		return fmt.Errorf("the run is shorter than one %v rate window", rateWindow)
	}
	jobs, cells, inv := make([]float64, n), make([]float64, n), make([]float64, n)
	lat := make([][]float64, n)
	for _, j := range w.plan[:w.started] {
		if !j.ok {
			continue
		}
		k := int(j.done.Sub(w.start) / rateWindow)
		if k >= n {
			continue
		}
		lat[k] = append(lat[k], j.latency.Seconds())
		jobs[k]++
		cells[k] += float64(j.cells)
		switch j.kind {
		case "full":
			inv[k] += float64(j.inv)
		case "screen":
			inv[k] += float64(screenInv[j.spec.Scenarios])
		}
	}
	p50, p90 := make([]float64, n), make([]float64, n)
	for k := 0; k < n; k++ {
		cpu := (w.windows[k+1] - w.windows[k]).Seconds()
		jobs[k] /= cpu
		cells[k] /= cpu
		inv[k] /= cpu
		p50[k] = quantile(lat[k], 0.5)
		p90[k] = quantile(lat[k], 0.9)
	}
	m["cells_per_cpu_s"] = median(cells)
	m["jobs_per_cpu_s"] = median(jobs)
	m["inv_per_cpu_s"] = median(inv)
	m["job_latency_p50_s"] = median(p50)
	m["job_latency_p90_s"] = median(p90)
	// The cycle-accurate outcome of the first full jobs served, whose
	// reports verify checked against direct runs.
	return reportOutcome(w.outcomes, m)
}

// screenInvocations maps a screened sweep's scenario count to the
// invocations its cells evaluate. Every screened sweep samples from one
// seed, so smaller sweeps evaluate a prefix of the largest.
func (w *serveMix) screenInvocations() (map[int]int, error) {
	work, err := sweepWork(directOptions(w.screenSpec(screenSpan - 1)))
	if err != nil {
		return nil, err
	}
	out := map[int]int{}
	total := 0
	for i, c := range work {
		total += c.inv
		out[i+1] = total
	}
	return out, nil
}

func (w *serveMix) perLayer(m metrics) error {
	var submit, wait, run, fetch []float64
	for _, j := range w.plan[:w.started] {
		if j.ok {
			submit = append(submit, j.submit.Seconds()*1e3)
			wait = append(wait, j.queueWait.Seconds())
			run = append(run, j.run.Seconds())
			fetch = append(fetch, j.fetch.Seconds()*1e3)
		}
	}
	m["server.submit_ms_p50"] = median(submit)
	m["server.queue_wait_s_p50"] = median(wait)
	m["server.run_s_p50"] = median(run)
	m["server.report_ms_p50"] = median(fetch)
	m["costmodel.calibrate_s"] = w.calibrate.Seconds()
	mape, err := heldOutMAPE(w.dir)
	if err != nil {
		return err
	}
	m["costmodel.heldout_mape"] = mape
	storeDeltas(w.before, w.after, w.grown, m)
	ms, err := sampleMs(directOptions(w.screenSpec(0)))
	if err != nil {
		return err
	}
	m["scenario.sample_ms_per_scenario"] = ms
	return nil
}

// close drains the server, which ends every event stream, then stops
// the listener.
func (w *serveMix) close() {
	if w.srv != nil {
		w.srv.Drain()
		w.srv = nil
	}
	if w.ts != nil {
		w.ts.Close()
		w.ts = nil
	}
}
