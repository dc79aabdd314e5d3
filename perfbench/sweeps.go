package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"cohmeleon/internal/costmodel"
	"cohmeleon/internal/experiment"
	"cohmeleon/internal/scenario"
	"cohmeleon/internal/workload"
)

// Helpers for the workloads that run the sweep experiment: input sizing,
// the simulated outcome of sweep reports, and the store and cost-model
// readings the per-layer metrics take.

// rosterSize is the sweep's policy roster: four fixed policies, random,
// manual and the trained agent.
const rosterSize = 7

// screenSeed is the seed of every screened sweep the benchmark runs.
// A screening seed fits its own cost model on a calibration grid drawn
// from it (twelve cycle-accurate runs), and that cost is heavy-tailed
// across seeds, 0.4 s to 16 s on one core, and follows the grid's data
// volume too loosely to pick seeds of one cost by it. One fixed seed
// makes set-up the same work for every workload seed. This one's grid
// moves 163 MB and fits in under a second on one core.
const screenSeed = 7

// appBytes sums every invocation's dataset footprint over an app.
func appBytes(app *workload.App) float64 {
	var b float64
	for _, ph := range app.Phases {
		for _, th := range ph.Threads {
			b += float64(th.Invocations()) * float64(th.FootprintBytes)
		}
	}
	return b
}

// reportOutcome sums the sweeps' rows into the soc-train headline's
// ratios, as ratios of sums over the sweeps: the four fixed policies'
// mean exec ÷ the learned exec, the learned off-chip ÷ the fixed
// policies' mean off-chip, and the learned exec ÷ manual exec. Ratios of
// sums stay steady where a single scenario's off-chip traffic is near
// zero. Sweep rows are per-scenario geomeans normalized to
// fixed-non-coh-dma.
func reportOutcome(sweeps [][]experiment.SweepRow, m metrics) error {
	fixed := []string{"fixed-non-coh-dma", "fixed-llc-coh-dma", "fixed-coh-dma", "fixed-full-coh"}
	var fixedExec, fixedMem, learnedExec, learnedMem, manualExec float64
	for _, rows := range sweeps {
		byName := map[string]experiment.SweepRow{}
		for _, r := range rows {
			byName[r.Policy] = r
		}
		for _, name := range append(fixed, "cohmeleon", "manual") {
			if _, ok := byName[name]; !ok {
				return fmt.Errorf("sweep report lacks the %s row", name)
			}
		}
		for _, name := range fixed {
			fixedExec += byName[name].NormExec / float64(len(fixed))
			fixedMem += byName[name].NormMem / float64(len(fixed))
		}
		learnedExec += byName["cohmeleon"].NormExec
		learnedMem += byName["cohmeleon"].NormMem
		manualExec += byName["manual"].NormExec
	}
	m["sim_speedup_vs_fixed"] = fixedExec / learnedExec
	m["sim_offchip_vs_fixed"] = learnedMem / fixedMem
	m["sim_exec_vs_manual"] = learnedExec / manualExec
	return nil
}

// cellWork is what one sweep cell evaluates: per scenario, every
// training iteration over the training app and every roster policy over
// the test app. bytes sums each invocation's dataset footprint, the
// data the accelerators move, which sets a cycle-accurate cell's cost.
type cellWork struct {
	inv   int
	bytes float64
}

// sweepWork returns the work of each of a sweep's cells, in order.
func sweepWork(opt experiment.Options) ([]cellWork, error) {
	scens, err := sampleScenarios(opt)
	if err != nil {
		return nil, err
	}
	out := make([]cellWork, len(scens))
	for i, sc := range scens {
		train, err := sc.App(1000)
		if err != nil {
			return nil, err
		}
		test, err := sc.App(2000)
		if err != nil {
			return nil, err
		}
		out[i].inv = opt.TrainIterations*train.Invocations() + rosterSize*test.Invocations()
		out[i].bytes = float64(opt.TrainIterations)*appBytes(train) + rosterSize*appBytes(test)
	}
	return out, nil
}

// sampleScenarios draws a sweep's scenarios the way the sweep does.
func sampleScenarios(opt experiment.Options) ([]scenario.Scenario, error) {
	spec := scenario.DefaultSpec()
	spec.MinInvocations = opt.MinInvocations
	return scenario.Sample(spec, opt.SweepScenarios, opt.Seed)
}

// sampleMs times scenario sampling for a sweep: the median of three
// draws, per scenario.
func sampleMs(opt experiment.Options) (float64, error) {
	var ds []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		if _, err := sampleScenarios(opt); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(start).Seconds()*1e3)
	}
	return median(ds) / float64(opt.SweepScenarios), nil
}

// heldOutMAPE reads the fitted cost model the run store holds and
// returns its held-out per-invocation error.
func heldOutMAPE(dir string) (float64, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "costmodel-v*.gob"))
	if err != nil || len(paths) != 1 {
		return 0, fmt.Errorf("want one fitted cost model in %s, found %d", dir, len(paths))
	}
	f, err := os.Open(paths[0])
	if err != nil {
		return 0, err
	}
	defer f.Close()
	model, err := costmodel.Decode(f)
	if err != nil {
		return 0, err
	}
	return model.Err.MAPE, nil
}

// storeDeltas reports the run-store and checkpoint traffic between two
// snapshots, and the cache directory's growth in bytes.
func storeDeltas(before, after experiment.StatsSnapshot, grown int64, m metrics) {
	m["experiment.memo_hits"] = float64(after.RunCache.Hits - before.RunCache.Hits)
	m["experiment.disk_hits"] = float64(after.RunCache.DiskHits - before.RunCache.DiskHits)
	m["experiment.simulated_runs"] = float64(after.RunCache.Misses - before.RunCache.Misses)
	m["experiment.cells_saved"] = float64(after.Checkpoint.Saved - before.Checkpoint.Saved)
	m["experiment.cells_replayed"] = float64(after.Checkpoint.Replayed - before.Checkpoint.Replayed)
	m["experiment.screened_cells"] = float64(after.Fidelity.ScreenedCells - before.Fidelity.ScreenedCells)
	m["experiment.escalated_cells"] = float64(after.Fidelity.EscalatedCells - before.Fidelity.EscalatedCells)
	m["experiment.store_growth_bytes"] = float64(grown)
}
