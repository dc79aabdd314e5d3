package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"

	"cohmeleon/internal/experiment"
)

// The reference check pins the simulated model itself. After the
// measured part, every run recomputes fixed sweeps that do not depend on
// the workload seed, with the run store off: a full-fidelity one, which
// simulates, trains an agent and runs the fixed and manual policies, and
// a screened one, which calibrates the cost model and estimates with it.
// Each rendered report must hash to the value pinned here, taken from
// the program this benchmark was written against. A change that moves
// any simulated statistic fails the check, which makes the run
// incorrect; a change meant to move the model re-pins these hashes.
var references = []struct {
	name   string
	opt    func() experiment.Options
	sha256 string
}{
	{"full", func() experiment.Options {
		opt := experiment.Tiny()
		opt.Seed, opt.SweepScenarios, opt.Workers = 0x7e5f, 2, 1
		return opt
	}, "0d507222f4275c2074b9cb8208269c365be9d37cfda5cc85e0f16e43052deb6e"},
	{"screening", func() experiment.Options {
		opt := experiment.Quick()
		opt.Seed, opt.SweepScenarios, opt.Workers = screenSeed, 16, 1
		opt.Fidelity = experiment.FidelityScreening
		return opt
	}, "80faf80499a6e18447b2d5bda38f849adcef4aaaa17b69edfd20475f6789fe8d"},
}

// checkReferences recomputes every reference sweep from scratch and
// returns how many it checked and how many did not render their pinned
// report. It resets the process's run store and statistics.
func checkReferences() (attempted, failed int, err error) {
	entry, err := experiment.Lookup("sweep")
	if err != nil {
		return 0, 0, err
	}
	if err := experiment.SetRunCacheDir(""); err != nil {
		return 0, 0, err
	}
	experiment.ResetRunCache() // drops fitted cost models too
	experiment.EnableRunCache(false)
	defer experiment.EnableRunCache(true)
	for _, ref := range references {
		rep, err := entry.Run(ref.opt())
		if err != nil {
			return 0, 0, fmt.Errorf("reference %s sweep: %w", ref.name, err)
		}
		sum := sha256.Sum256([]byte(rep.Render()))
		attempted++
		if got := hex.EncodeToString(sum[:]); got != ref.sha256 {
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: reference %s sweep: report sha256 %s, pinned %s\n", ref.name, got, ref.sha256)
		}
	}
	return attempted, failed, nil
}
