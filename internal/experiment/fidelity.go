package experiment

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"cohmeleon/internal/costmodel"
	"cohmeleon/internal/faultinject"
	"cohmeleon/internal/policy"
	"cohmeleon/internal/soc"
	"cohmeleon/internal/workload"
)

// Two-fidelity evaluation for the grid experiments (sweep, learners).
// Full fidelity is the cycle-accurate simulator — the only mode until
// this file existed, and still the default; its reports are
// byte-identical to before. Screening fidelity runs every grid cell
// through internal/costmodel's analytical estimator, calibrated by
// least squares against cycle-accurate runs of a small pinned
// calibration grid (drawn through the same content-keyed run store, so
// the calibration simulations dedup and persist like any other run).
// Auto fidelity screens first and escalates only the ambiguous cells —
// where the analytical estimates are within the model's held-out error
// band of the per-cell best, so the screened winner cannot be trusted —
// back to cycle-accurate simulation. Every non-full report carries the
// calibration's held-out error bounds.

// Fidelity mode names (Options.Fidelity; empty resolves to full).
const (
	FidelityFull      = "full"
	FidelityScreening = "screening"
	FidelityAuto      = "auto"
)

// ValidFidelities lists the accepted mode names for error messages.
func ValidFidelities() string {
	return fmt.Sprintf("%s, %s, %s", FidelityFull, FidelityScreening, FidelityAuto)
}

// fidelityMode resolves the option's fidelity (empty means full).
func (o Options) fidelityMode() string {
	if o.Fidelity == "" {
		return FidelityFull
	}
	return o.Fidelity
}

// Calibration grid: a few small scenarios, each run under every fixed
// uniform mode. The constants are part of the model's content key — a
// change refits rather than resurrecting stale coefficients. The seed
// salt keeps calibration scenarios disjoint from any experiment's own
// scenario sets (which derive from opt.Seed directly).
const (
	calibScenarios   = 3
	calibInvocations = 60
	calibSeedSalt    = 0x5eedc0defee1fa57
)

// calibSeed derives the calibration scenario seed from the options.
func calibSeed(opt Options) uint64 { return opt.Seed ^ calibSeedSalt }

// FidelityStats counts two-fidelity traffic since the last reset.
type FidelityStats struct {
	// ModelFits counts least-squares calibrations actually performed.
	ModelFits int64
	// ModelMemoHits and ModelDiskHits count fitted models served from
	// the in-process memo and the cache directory.
	ModelMemoHits int64
	ModelDiskHits int64
	// ScreenedCells counts grid cells evaluated analytically.
	ScreenedCells int64
	// EscalatedCells counts screened cells auto escalated to
	// cycle-accurate simulation.
	EscalatedCells int64
}

var fidelityCounters struct {
	fits, memoHits, diskHits, screened, escalated atomic.Int64
}

// GetFidelityStats returns the counters since the last reset.
func GetFidelityStats() FidelityStats {
	return FidelityStats{
		ModelFits:      fidelityCounters.fits.Load(),
		ModelMemoHits:  fidelityCounters.memoHits.Load(),
		ModelDiskHits:  fidelityCounters.diskHits.Load(),
		ScreenedCells:  fidelityCounters.screened.Load(),
		EscalatedCells: fidelityCounters.escalated.Load(),
	}
}

// modelMemo caches fitted models in-process, keyed by calibration
// content. ResetRunCache clears it alongside the run memo.
var modelMemo = struct {
	mu      sync.Mutex
	entries map[runKey]*costmodel.Model
}{entries: make(map[runKey]*costmodel.Model)}

// resetFidelity drops cached models and zeroes the counters
// (ResetRunCache's contract).
func resetFidelity() {
	modelMemo.mu.Lock()
	modelMemo.entries = make(map[runKey]*costmodel.Model)
	modelMemo.mu.Unlock()
	fidelityCounters.fits.Store(0)
	fidelityCounters.memoHits.Store(0)
	fidelityCounters.diskHits.Store(0)
	fidelityCounters.screened.Store(0)
	fidelityCounters.escalated.Store(0)
}

// modelKey fingerprints everything that determines the fitted
// coefficients: the model format (feature set), the simulator timing
// model (runCacheVersion is its proxy, exactly as for run entries), and
// the calibration grid's identity.
func modelKey(opt Options) runKey {
	h := sha256.New()
	fmt.Fprintf(h, "costmodel|fmt%d|rc%d|nf%d|hold%d|scen%d|inv%d|seed%d|proto=%s\n",
		costmodel.FormatVersion, runCacheVersion, costmodel.NumFeatures,
		costmodel.HoldEvery, calibScenarios, calibInvocations,
		calibSeed(opt), opt.Protocol)
	var k runKey
	h.Sum(k[:0])
	return k
}

// modelCachePath names a model's file in the cache directory.
func modelCachePath(dir string, key runKey) string {
	return filepath.Join(dir, fmt.Sprintf("costmodel-v%d-%x.gob", costmodel.FormatVersion, key[:]))
}

// calibratedModel returns the fitted analytical model for the options,
// from the in-process memo, the cache directory, or a fresh
// calibration. Calibration is deterministic: scenarios, runs, and
// sample order are fixed functions of the content key, so identical
// inputs yield bit-identical coefficients on any machine or worker
// count.
func calibratedModel(ctx context.Context, opt Options) (*costmodel.Model, error) {
	key := modelKey(opt)
	modelMemo.mu.Lock()
	if m, ok := modelMemo.entries[key]; ok {
		modelMemo.mu.Unlock()
		fidelityCounters.memoHits.Add(1)
		return m, nil
	}
	modelMemo.mu.Unlock()

	dir := runCacheDirectory()
	if dir != "" {
		path := modelCachePath(dir, key)
		if data, err := os.ReadFile(path); err == nil {
			m, derr := costmodel.Decode(bytes.NewReader(data))
			if derr == nil {
				fidelityCounters.diskHits.Add(1)
				modelMemo.mu.Lock()
				modelMemo.entries[key] = m
				modelMemo.mu.Unlock()
				return m, nil
			}
			// Corrupt coefficients quarantine like any other store entry,
			// so the refit below regenerates them exactly once.
			if qerr := quarantineBlob(path); qerr == nil {
				appRunMemo.noteQuarantine(path, derr)
			} else {
				appRunMemo.noteReadFailure(path, derr)
			}
		} else if !os.IsNotExist(err) {
			appRunMemo.noteReadFailure(path, err)
		}
	}

	m, err := fitModel(ctx, opt)
	if err != nil {
		return nil, err
	}
	fidelityCounters.fits.Add(1)
	modelMemo.mu.Lock()
	modelMemo.entries[key] = m
	modelMemo.mu.Unlock()
	if dir != "" {
		var buf bytes.Buffer
		err := costmodel.Encode(&buf, m)
		if err == nil {
			err = writeBlobAtomic(dir, modelCachePath(dir, key), buf.Bytes(),
				faultinject.StoreCreate, faultinject.StoreWrite, faultinject.StoreRename)
		}
		if err != nil {
			appRunMemo.noteWriteFailure("cost model", err)
		}
	}
	return m, nil
}

// fitModel runs the calibration grid — calibScenarios small scenarios,
// each under every fixed uniform mode — through the cycle-accurate
// simulator (memoized and persisted like any static run) and fits the
// analytical model against every invocation, in fixed order.
func fitModel(ctx context.Context, opt Options) (*costmodel.Model, error) {
	scens, err := sampleScenarios(opt, calibScenarios, calibInvocations, calibSeed(opt))
	if err != nil {
		return nil, fmt.Errorf("experiment: calibration scenarios: %w", err)
	}
	apps := make([]*workload.App, len(scens))
	extractors := make([]*costmodel.Extractor, len(scens))
	for i, sc := range scens {
		if apps[i], err = sc.App(0); err != nil {
			return nil, fmt.Errorf("experiment: calibration app: %w", err)
		}
		if extractors[i], err = costmodel.NewExtractor(sc.Cfg); err != nil {
			return nil, fmt.Errorf("experiment: calibration extractor: %w", err)
		}
	}

	// One run per (scenario, uniform mode), fanned out; results land by
	// index so the harvested sample order is worker-count independent.
	nModes := int(soc.NumModes)
	runs := make([]*workload.AppResult, len(scens)*nModes)
	if err := forEachOpt(opt, len(runs), func(i int) error {
		si, mi := i/nModes, i%nModes
		sc := scens[si]
		res, err := runApp(ctx, sc.Cfg, policy.NewFixed(soc.AllModes[mi]), apps[si], sc.Seed+3)
		if err != nil {
			return fmt.Errorf("calibration %s/%s: %w", sc.Cfg.Name, soc.AllModes[mi], err)
		}
		runs[i] = res
		return nil
	}); err != nil {
		return nil, err
	}

	var samples []costmodel.Sample
	for i, res := range runs {
		si := i / nModes
		samples = harvestSamples(extractors[si], apps[si], res, i, samples)
	}
	m, err := costmodel.Fit(samples, opt.Protocol)
	if err != nil {
		return nil, fmt.Errorf("experiment: calibration fit: %w", err)
	}
	return m, nil
}

// harvestSamples appends one calibration sample per invocation of a
// cycle-accurate run, all tagged with the run's group index (the
// aggregate error bounds sum per group). The action is reconstructed
// from the recorded mode (calibration runs are uniform fixed-mode;
// persisted-run revival round-trips Mode, not Action).
func harvestSamples(ex *costmodel.Extractor, app *workload.App, res *workload.AppResult, group int, out []costmodel.Sample) []costmodel.Sample {
	for pi := range res.Phases {
		threads := len(app.Phases[pi].Threads)
		for _, inv := range res.Phases[pi].Invocations {
			ai, ok := ex.AccIndex(inv.Acc.InstName)
			if !ok {
				continue
			}
			var s costmodel.Sample
			ex.Features(ai, soc.ModeAction(inv.Mode), inv.FootprintBytes, threads, &s.X)
			s.Exec = float64(inv.ExecCycles)
			s.Mem = float64(inv.OffChipTrue)
			s.Group = group
			out = append(out, s)
		}
	}
	return out
}

// executorFor picks the executor a grid cell runs on: the simulator at
// full fidelity (no model), the calibrated estimator otherwise.
func executorFor(cfg *soc.Config, model *costmodel.Model) (executor, error) {
	if model == nil {
		return simulator(cfg), nil
	}
	ex, err := costmodel.NewExtractor(cfg)
	if err != nil {
		return nil, err
	}
	return estimator(costmodel.NewEstimator(ex, model)), nil
}

// escalationBand is the relative slack within which two screened
// estimates are indistinguishable: each normalized cell value is a
// ratio of two whole-app model estimates, so their worst-case relative
// errors compound and the band is twice the held-out maximum of the
// per-run aggregate error (not the far looser per-invocation maximum —
// invocation noise averages out in the aggregates being compared).
func escalationBand(m *costmodel.Model) float64 { return 2 * m.Err.AggMax }

// contenders is the auto-mode escalation trigger. It marks the screened
// exec values that lie within the error band of the best, or returns
// nil when fewer than two do: only then can the screened winner not be
// told apart from a runner-up at the model's demonstrated accuracy.
// The sweep escalates a cell whenever the mask is non-nil; learners
// escalates exactly the marked cells of a scenario.
func contenders(execs []float64, band float64) []bool {
	if len(execs) < 2 {
		return nil
	}
	best := execs[0]
	for _, e := range execs[1:] {
		if e < best {
			best = e
		}
	}
	mask := make([]bool, len(execs))
	within := 0
	for i, e := range execs {
		if e <= best*(1+band) {
			mask[i] = true
			within++
		}
	}
	if within < 2 {
		return nil
	}
	return mask
}

// gridModel calibrates (or revives) the analytical model a non-full
// grid screens with, before any fan-out, so one model serves every
// cell. Full fidelity has none: every cell runs on the simulator.
func gridModel(ctx context.Context, opt Options) (*costmodel.Model, error) {
	if opt.fidelityMode() == FidelityFull {
		return nil, nil
	}
	return calibratedModel(ctx, opt)
}

// fidelityNotes renders the calibration error bounds every non-full
// report carries, plus the mode's coverage line over the grid's total
// cells; full-fidelity reports carry none.
func fidelityNotes(fid string, m *costmodel.Model, total int, escalated func(i int) bool) []string {
	if fid == FidelityFull {
		return nil
	}
	notes := []string{fmt.Sprintf(
		"fidelity=%s: analytical cost model calibrated on %d cycle-accurate samples (held-out: per-invocation MAPE %.1f%%/max %.1f%% on %d samples; per-run aggregate MAPE %.1f%%/max %.1f%%)",
		fid, m.Err.FitSamples+m.Err.HeldOut, 100*m.Err.MAPE, 100*m.Err.MaxRel, m.Err.HeldOut,
		100*m.Err.AggMAPE, 100*m.Err.AggMax)}
	switch fid {
	case FidelityScreening:
		notes = append(notes, fmt.Sprintf(
			"all %d cells estimated analytically; no cycle-accurate verification", total))
	case FidelityAuto:
		n := 0
		for i := 0; i < total; i++ {
			if escalated(i) {
				n++
			}
		}
		notes = append(notes, fmt.Sprintf(
			"auto escalated %d/%d cells to cycle-accurate simulation (screened estimates within the error band of the best)",
			n, total))
	}
	return notes
}
