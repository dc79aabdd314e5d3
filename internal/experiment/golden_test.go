package experiment

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// Golden byte-identity regression tests for the learner refactor: the
// default stack (Table-3 featurizer + tabular Q + linear decay) must
// reproduce, byte for byte, the reports the pre-refactor monolithic
// agent produced. The testdata files were generated at the seed commit
// of this PR under the Tiny protocol; any drift in the agent's RNG
// draw order, decay arithmetic, update rule or report rendering shows
// up here as a diff. Regenerate the files only for a deliberate,
// documented behavior change.

// mustGolden reads a testdata reference.
func mustGolden(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatalf("golden file: %v", err)
	}
	return string(b)
}

// diffAt pinpoints the first byte where two strings diverge.
func diffAt(got, want string) string {
	n := len(got)
	if len(want) < n {
		n = len(want)
	}
	for i := 0; i < n; i++ {
		if got[i] != want[i] {
			lo := i - 40
			if lo < 0 {
				lo = 0
			}
			return fmt.Sprintf("first diff at byte %d:\n got: …%q\nwant: …%q", i, got[lo:i+40], want[lo:i+40])
		}
	}
	return fmt.Sprintf("lengths differ: got %d bytes, want %d", len(got), len(want))
}

func TestGoldenFigure7ReportAndDecisions(t *testing.T) {
	res, err := Figure7(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Render(), mustGolden(t, "golden_fig7_tiny.txt"); got != want {
		t.Errorf("Figure 7 report drifted from the pre-refactor bytes\n%s", diffAt(got, want))
	}
	var counts string
	for _, row := range res.Rows {
		counts += fmt.Sprintf("%s %s %v\n", row.Policy, row.Size, row.Decision)
	}
	if want := mustGolden(t, "golden_fig7_tiny_decisions.txt"); counts != want {
		t.Errorf("Figure 7 decision counts drifted\n%s", diffAt(counts, want))
	}
}

func TestGoldenAblationReport(t *testing.T) {
	res, err := Ablation(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Render(), mustGolden(t, "golden_ablation_tiny.txt"); got != want {
		t.Errorf("ablation report drifted from the pre-refactor bytes\n%s", diffAt(got, want))
	}
}

func TestGoldenFigure8Report(t *testing.T) {
	res, err := Figure8(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Render(), mustGolden(t, "golden_fig8_tiny.txt"); got != want {
		t.Errorf("Figure 8 report drifted from the pre-refactor bytes\n%s", diffAt(got, want))
	}
}

// TestGoldenGridReports pins the grid experiments' reports at every
// fidelity: sweep (two Tiny scenarios) and learners (Tiny), each at
// full, screening and auto. The files were rendered before sweep and
// learners were rewritten around a single cell function per grid that
// only varies the executor (simulator or calibrated estimator), so any
// drift in training, measurement, normalization, escalation or note
// rendering on any path shows up here as a diff.
func TestGoldenGridReports(t *testing.T) {
	sweepOpt := func(fid string) Options {
		opt := Tiny()
		opt.SweepScenarios = 2
		opt.Fidelity = fid
		return opt
	}
	learnersOpt := func(fid string) Options {
		opt := Tiny()
		opt.Fidelity = fid
		return opt
	}
	for _, fid := range []string{FidelityFull, FidelityScreening, FidelityAuto} {
		fid := fid
		t.Run("sweep/"+fid, func(t *testing.T) {
			memoTestSetup(t)
			res, err := Sweep(sweepOpt(fid))
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("golden_sweep_%s_tiny.txt", fid)
			if got, want := res.Render(), mustGolden(t, name); got != want {
				t.Errorf("sweep report at fidelity=%s drifted\n%s", fid, diffAt(got, want))
			}
		})
		t.Run("learners/"+fid, func(t *testing.T) {
			memoTestSetup(t)
			res, err := Learners(learnersOpt(fid))
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("golden_learners_%s_tiny.txt", fid)
			if got, want := res.Render(), mustGolden(t, name); got != want {
				t.Errorf("learners report at fidelity=%s drifted\n%s", fid, diffAt(got, want))
			}
		})
	}
}
