// Command perfbench is the repository benchmark. It drives the
// simulator, the learner, screened sweeps and the job server through
// their public entry points, times every call into a module from
// outside, checks every output, and prints one JSON result line.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload soc-train --seed 1 --seconds 45 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics of
// BENCHMARK.json; with --trace 1 it carries the per-layer metrics, from
// an untraced pass and a separate traced pass over the same work.
// README.md describes the workloads and what each metric should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"
)

// bench is one workload. setup prepares fresh state under dir; measure
// runs the timed part until the limit says stop; verify checks what it
// produced; the rest report what measure saw. A bench value is used for
// one setup, one measure and one verify; close may be called more than
// once.
type bench interface {
	setup(dir string) error
	// measure runs the timed part and returns how long it took.
	measure(lim limit, tr *tracer) (time.Duration, error)
	// verify runs the output checks that follow the timed part. It is
	// neither timed nor profiled; a mismatch counts as a failed
	// operation.
	verify() error
	// ops counts the units of work measure completed; a traced pass
	// repeats exactly that many.
	ops() int
	// digests fingerprints every checked output, one per unit of work
	// in a fixed order, so two passes over the same seed compare.
	digests() []string
	// attempted and failed count checked operations; a mismatch is a
	// failed operation.
	attempted() int
	failed() int
	endToEnd(m metrics) error
	perLayer(m metrics) error
	close()
}

var workloads = map[string]func(seed uint64) bench{
	"soc-train": newSocTrain,
	"serve-mix": newServeMix,
}

// setupReps is how many times a timed run sets its workload up; setup_s
// is the median, which rides out the host's short bursts of contention.
const setupReps = 7

func main() {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	workload := flag.String("workload", "", "workload: "+strings.Join(names, ", "))
	seed := flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 45, "length of the measured part in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from an untraced and a traced pass")
	flag.Parse()

	newBench, ok := workloads[*workload]
	if !ok {
		fail(fmt.Errorf("unknown workload %q (valid: %s)", *workload, strings.Join(names, ", ")))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fail(errors.New("--seconds must be positive and --trace 0 or 1"))
	}
	cat, err := loadCatalog("BENCHMARK.json")
	if err != nil {
		fail(err)
	}
	work, err := filepath.Abs(filepath.Join(".bench_build", "perfbench-work",
		fmt.Sprintf("%s-%d-%d", *workload, *seed, os.Getpid())))
	if err != nil {
		fail(err)
	}
	r := runner{
		name: *workload, seed: *seed, newBench: newBench, work: work,
		budget: time.Duration(*seconds * float64(time.Second)),
	}
	var res *result
	if *trace == 1 {
		res, err = r.traced(cat)
	} else {
		res, err = r.timed(cat)
	}
	os.RemoveAll(work)
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// result is the JSON line the benchmark prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type runner struct {
	name     string
	seed     uint64
	newBench func(uint64) bench
	work     string
	budget   time.Duration
}

// prepare sets up a fresh bench in its own directory and times it.
func (r runner) prepare(tag string) (bench, time.Duration, error) {
	b := r.newBench(r.seed)
	dir := filepath.Join(r.work, tag)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := b.setup(dir); err != nil {
		b.close()
		return nil, 0, fmt.Errorf("%s setup: %w", r.name, err)
	}
	return b, time.Since(start), nil
}

// timed is the end-to-end run: set up setupReps times (keeping the
// last), measure for the budget, report the end-to-end metrics.
func (r runner) timed(cat catalog) (*result, error) {
	var b bench
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if b != nil {
			b.close()
		}
		var d time.Duration
		var err error
		if b, d, err = r.prepare(fmt.Sprintf("setup-%d", i)); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	defer b.close()
	if _, err := b.measure(limit{deadline: time.Now().Add(r.budget)}, nil); err != nil {
		return nil, fmt.Errorf("%s: %w", r.name, err)
	}
	rss := peakRSSMB() // before the checks and bookkeeping allocate
	if err := b.verify(); err != nil {
		return nil, fmt.Errorf("%s: %w", r.name, err)
	}

	m := metrics{}
	if err := b.endToEnd(m); err != nil {
		return nil, err
	}
	refs, refsFailed, err := checkReferences()
	if err != nil {
		return nil, err
	}
	attempted, failed := b.attempted()+refs, b.failed()+refsFailed
	m["setup_s"] = median(setups)
	m["peak_rss_mb"] = rss
	m["success_rate"] = 1 - float64(failed)/float64(attempted)
	return newResult(m, cat.endToEnd, true, attempted, failed)
}

// traced is the per-layer run: an untraced pass for half the budget,
// then a traced pass (CPU profile and spans) over the same work. The
// passes must produce identical outputs; their throughput difference is
// the tracing overhead.
func (r runner) traced(cat catalog) (*result, error) {
	plain, _, err := r.prepare("plain")
	if err != nil {
		return nil, err
	}
	defer plain.close()
	plainElapsed, err := plain.measure(limit{deadline: time.Now().Add(r.budget / 2)}, nil)
	if err == nil {
		err = plain.verify()
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", r.name, err)
	}
	m := metrics{}
	if err := plain.perLayer(m); err != nil {
		return nil, err
	}
	plain.close()

	b, _, err := r.prepare("traced")
	if err != nil {
		return nil, err
	}
	defer b.close()
	tr := newTracer()
	prof, err := startProfile()
	if err != nil {
		return nil, err
	}
	tracedElapsed, merr := b.measure(limit{ops: plain.ops()}, tr)
	raw := prof.stop()
	if merr == nil {
		merr = b.verify()
	}
	if merr != nil {
		return nil, fmt.Errorf("%s traced: %w", r.name, merr)
	}
	shares, err := profileShares(raw)
	if err != nil {
		return nil, err
	}
	for mod, s := range shares {
		m["host_share."+mod] = s
	}
	for mod, s := range tr.selfSeconds() {
		m["span_self_s."+mod] = s
	}
	// Both passes did the same work, so the traced minus the untraced
	// throughput, relative to the untraced, is the tracing overhead.
	m["trace.throughput_change"] = plainElapsed.Seconds()/tracedElapsed.Seconds() - 1
	if err := writeTrace(r.name, r.seed, tr, raw); err != nil {
		return nil, err
	}

	refs, refsFailed, err := checkReferences()
	if err != nil {
		return nil, err
	}
	attempted := plain.attempted() + b.attempted() + refs
	failed := plain.failed() + b.failed() + refsFailed
	if a, bd := plain.digests(), b.digests(); !slices.Equal(a, bd) {
		// Tracing must never change an output.
		attempted++
		failed++
		fmt.Fprintf(os.Stderr, "perfbench: traced pass outputs differ from the untraced pass (%d vs %d digests)\n", len(a), len(bd))
	}
	return newResult(m, cat.perLayer, false, attempted, failed)
}

// limit bounds a measured part: by a deadline, or, when ops is set, by
// a count of units of work.
type limit struct {
	deadline time.Time
	ops      int
}

// more reports whether another unit of work should start after done.
func (l limit) more(done int) bool {
	if l.ops > 0 {
		return done < l.ops
	}
	return time.Now().Before(l.deadline)
}
