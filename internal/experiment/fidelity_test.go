package experiment

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Pinned held-out accuracy floor for the calibrated cost model on the
// test seed: regressions in the feature set, the fit, or the calibration
// grid that blow past these bounds fail here (and in the CI screening
// smoke, which runs this test), not silently in a wide escalation band.
const (
	pinnedMAPE    = 0.60 // per-invocation mean relative error
	pinnedAggMAPE = 0.45 // per-run aggregate mean relative error
)

// fidelityTestSetup clears the process-global model memo and counters
// around a test (they are shared exactly like the run cache).
func fidelityTestSetup(t *testing.T) {
	t.Helper()
	memoTestSetup(t)
}

// screeningSweepOptions is sweepOptions at screening fidelity.
func screeningSweepOptions() Options {
	opt := sweepOptions()
	opt.Fidelity = FidelityScreening
	return opt
}

// TestScreeningSweepDeterministicAcrossWorkers: a screened sweep report
// must be byte-identical whether calibration and screening run
// sequentially or on eight workers — the same property the
// cycle-accurate harness guarantees, extended to the analytical path.
func TestScreeningSweepDeterministicAcrossWorkers(t *testing.T) {
	fidelityTestSetup(t)
	render := func(workers int) string {
		ResetRunCache() // force a fresh calibration fit under this worker count
		opt := screeningSweepOptions()
		opt.Workers = workers
		rep, err := Sweep(opt)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Render()
	}
	seq := render(1)
	par := render(8)
	if seq != par {
		t.Fatalf("screened sweep report differs between workers=1 and workers=8:\n--- seq ---\n%s\n--- par ---\n%s", seq, par)
	}
	if !strings.Contains(seq, "fidelity=screening") {
		t.Fatalf("screened report missing the fidelity note:\n%s", seq)
	}
}

// TestScreeningLearnersDeterministicAcrossWorkers: the same property
// for the learner grid's screening path.
func TestScreeningLearnersDeterministicAcrossWorkers(t *testing.T) {
	fidelityTestSetup(t)
	render := func(workers int) string {
		ResetRunCache()
		opt := learnerTestOptions()
		opt.Fidelity = FidelityScreening
		opt.Workers = workers
		res, err := Learners(opt)
		if err != nil {
			t.Fatal(err)
		}
		return res.Render()
	}
	seq := render(1)
	par := render(8)
	if seq != par {
		t.Fatalf("screened learners report differs between workers=1 and workers=8:\n--- seq ---\n%s\n--- par ---\n%s", seq, par)
	}
	if !strings.Contains(seq, "fidelity=screening") {
		t.Fatalf("screened report missing the fidelity note:\n%s", seq)
	}
}

// TestCalibrationRefitBitIdentical: two independent calibrations from
// the same options must produce bit-identical coefficients — and stay
// within the pinned held-out accuracy floor.
func TestCalibrationRefitBitIdentical(t *testing.T) {
	fidelityTestSetup(t)
	opt := Tiny()
	m1, err := calibratedModel(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	ResetRunCache() // drop the model memo and the memoized calibration runs
	m2, err := calibratedModel(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if m1.ExecCoef != m2.ExecCoef || m1.MemCoef != m2.MemCoef {
		t.Fatal("refit from scratch changed coefficients")
	}
	if m1.Err != m2.Err {
		t.Fatalf("refit changed error bounds: %+v vs %+v", m1.Err, m2.Err)
	}
	if st := GetFidelityStats(); st.ModelFits != 1 {
		t.Fatalf("second calibration performed %d fits, want exactly 1", st.ModelFits)
	}
	if m1.Err.MAPE > pinnedMAPE {
		t.Fatalf("held-out MAPE %.3f above the pinned %.2f floor", m1.Err.MAPE, pinnedMAPE)
	}
	if m1.Err.AggMAPE > pinnedAggMAPE {
		t.Fatalf("held-out aggregate MAPE %.3f above the pinned %.2f floor", m1.Err.AggMAPE, pinnedAggMAPE)
	}
}

// TestModelDiskCacheAndQuarantine: a fitted model persists under
// -cache-dir, serves the next process from disk bit-exactly, and a
// corrupted file quarantines and refits exactly once — the run store's
// self-healing contract applied to coefficients.
func TestModelDiskCacheAndQuarantine(t *testing.T) {
	fidelityTestSetup(t)
	dir := t.TempDir()
	if err := SetRunCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	opt := Tiny()
	first, err := calibratedModel(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "costmodel-v*.gob"))
	if err != nil || len(files) != 1 {
		t.Fatalf("persisted %v (err %v), want exactly one model file", files, err)
	}

	// Fresh process: the model must come from disk, not a refit.
	ResetRunCache()
	if err := SetRunCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	again, err := calibratedModel(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if again.ExecCoef != first.ExecCoef || again.MemCoef != first.MemCoef {
		t.Fatal("disk-loaded model differs from the fitted one")
	}
	if st := GetFidelityStats(); st.ModelDiskHits != 1 || st.ModelFits != 0 {
		t.Fatalf("disk load counted %d disk hits, %d fits; want 1 and 0", st.ModelDiskHits, st.ModelFits)
	}

	// Corrupt the file: the next load must quarantine it, refit to the
	// same coefficients, and re-persist.
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(files[0], data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	ResetRunCache()
	if err := SetRunCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	healed, err := calibratedModel(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if healed.ExecCoef != first.ExecCoef {
		t.Fatal("post-quarantine refit differs from the original fit")
	}
	if st := GetFidelityStats(); st.ModelDiskHits != 0 || st.ModelFits != 1 {
		t.Fatalf("corrupt load counted %d disk hits, %d fits; want 0 and 1", st.ModelDiskHits, st.ModelFits)
	}
	if _, err := os.Stat(files[0] + ".corrupt"); err != nil {
		t.Fatalf("corrupt model file not quarantined: %v", err)
	}
	if _, err := os.Stat(files[0]); err != nil {
		t.Fatalf("refit model not re-persisted: %v", err)
	}
}

// sweepWinner returns the policy with the lowest aggregate normalized
// execution time.
func sweepWinner(rows []SweepRow) string {
	best := rows[0]
	for _, r := range rows[1:] {
		if r.NormExec < best.NormExec {
			best = r
		}
	}
	return best.Policy
}

// TestAutoSweepMatchesFullWinners is the auto-mode acceptance pin: on
// the pinned test grid, auto fidelity must report the same per-policy
// winner as full fidelity — escalation has to catch every cell where
// the screened ordering cannot be trusted.
func TestAutoSweepMatchesFullWinners(t *testing.T) {
	fidelityTestSetup(t)
	full, err := Sweep(sweepOptions())
	if err != nil {
		t.Fatal(err)
	}
	autoOpt := sweepOptions()
	autoOpt.Fidelity = FidelityAuto
	auto, err := Sweep(autoOpt)
	if err != nil {
		t.Fatal(err)
	}
	if fw, aw := sweepWinner(full.Rows), sweepWinner(auto.Rows); fw != aw {
		t.Fatalf("auto fidelity winner %q differs from full fidelity winner %q", aw, fw)
	}
	if len(full.Notes) != 0 {
		t.Fatalf("full-fidelity report carries fidelity notes: %v", full.Notes)
	}
	if !strings.Contains(auto.Render(), "fidelity=auto") {
		t.Fatal("auto report missing the fidelity note")
	}
}

// TestContenders pins the shared escalation trigger on hand-made exec
// vectors: the sweep escalates a cell when the mask is non-nil (two or
// more contenders), and learners escalates exactly the marked stacks.
// The Tiny grids escalate every cell, so only this test reaches the
// learners path that keeps screened values beside escalated ones.
func TestContenders(t *testing.T) {
	for _, tc := range []struct {
		name  string
		execs []float64
		band  float64
		want  []bool // nil: no contest, nothing escalates
	}{
		{"empty", nil, 0.5, nil},
		{"single entry", []float64{1.0}, 0.5, nil},
		{"no contenders", []float64{1.0, 2.0, 3.0}, 0.1, nil},
		{"exactly two", []float64{1.3, 1.0, 1.05, 2.0}, 0.1, []bool{false, true, true, false}},
		{"all within the band", []float64{1.0, 1.02, 1.05}, 0.1, []bool{true, true, true}},
		{"tie at the best", []float64{2.0, 1.0, 1.0}, 0, []bool{false, true, true}},
		{"band edge is inclusive", []float64{1.0, 1.5}, 0.5, []bool{true, true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := contenders(tc.execs, tc.band)
			if sweepEscalates, want := got != nil, tc.want != nil; sweepEscalates != want {
				t.Fatalf("sweep escalation = %v, want %v (mask %v)", sweepEscalates, want, got)
			}
			if fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Fatalf("learners mask = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestFidelityOptionsValidate: unknown modes and screened Q-table
// exports are rejected up front, with the valid set named.
func TestFidelityOptionsValidate(t *testing.T) {
	opt := Tiny()
	opt.Fidelity = "approximate"
	err := opt.Validate()
	if err == nil {
		t.Fatal("unknown fidelity accepted")
	}
	for _, want := range []string{FidelityFull, FidelityScreening, FidelityAuto} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not list valid mode %q", err, want)
		}
	}
	opt = Tiny()
	opt.Fidelity = FidelityScreening
	opt.QTableSave = "trained.qtable"
	if err := opt.Validate(); err == nil {
		t.Fatal("Q-table export under screening fidelity accepted")
	}
	opt.QTableSave = ""
	if err := opt.Validate(); err != nil {
		t.Fatalf("screening fidelity alone rejected: %v", err)
	}
}

// TestFidelityStatsSurface: a screened sweep must surface its traffic
// in the diagnostics snapshot (/statsz serves exactly this struct).
func TestFidelityStatsSurface(t *testing.T) {
	fidelityTestSetup(t)
	if _, err := Sweep(screeningSweepOptions()); err != nil {
		t.Fatal(err)
	}
	st := Snapshot().Fidelity
	if st.ModelFits != 1 {
		t.Fatalf("snapshot counts %d model fits, want 1", st.ModelFits)
	}
	if st.ScreenedCells != 2 {
		t.Fatalf("snapshot counts %d screened cells, want 2", st.ScreenedCells)
	}
	if st.EscalatedCells != 0 {
		t.Fatalf("screening mode escalated %d cells, want 0", st.EscalatedCells)
	}
}
