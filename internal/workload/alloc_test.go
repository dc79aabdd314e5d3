//go:build !race

package workload

// Zero-allocation guard for application validation. Validate runs on
// every cost-model estimate, so a per-call allocation here taxes the
// whole screening path. The race detector's shadow allocations would
// trip the guard, so it runs only in non-race builds (CI runs it as a
// dedicated step).

import (
	"testing"

	"cohmeleon/internal/soc"
)

// SoC3 carries 16 accelerators: more than a small non-escaping map holds
// on the stack, so a per-thread set of names would show up here.
func TestZeroAllocAppValidate(t *testing.T) {
	cfg := soc.SoC3(7)
	app := mustGenerate(t, cfg, GenConfig{}, 42)
	got := testing.AllocsPerRun(100, func() {
		if err := app.Validate(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 {
		t.Fatalf("App.Validate allocates %.1f per call, want 0", got)
	}
}
