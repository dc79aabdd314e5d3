package experiment

import (
	"cohmeleon/internal/core"
	"cohmeleon/internal/esp"
	"cohmeleon/internal/policy"
	"cohmeleon/internal/soc"
	"cohmeleon/internal/workload"
)

// Fig6Point is one scatter point of Figure 6: geomean normalized
// execution time vs off-chip accesses over all phases.
type Fig6Point struct {
	Label    string
	Weights  string
	NormExec float64
	NormMem  float64
}

// Fig6Result reproduces Figure 6: the reward-function design-space
// exploration on SoC0 — Cohmeleon models trained with different
// (x, y, z) weights plotted against the baseline policies.
type Fig6Result struct {
	Cohmeleon []Fig6Point
	Baselines []Fig6Point
}

// fig6Weights generates the weight settings: the paper explores 15
// models across the simplex, including two that weigh off-chip accesses
// above 90% (which it finds degenerate) and the two Pareto examples it
// calls out: (67.5, 7.5, 25) and (12.5, 12.5, 75).
func fig6Weights(n int) []core.RewardWeights {
	all := []core.RewardWeights{
		{Exec: 0.675, Comm: 0.075, Mem: 0.25},
		{Exec: 0.125, Comm: 0.125, Mem: 0.75},
		{Exec: 1, Comm: 0, Mem: 0},
		{Exec: 0, Comm: 0, Mem: 1},       // >90% mem: degenerate per the paper
		{Exec: 0.05, Comm: 0, Mem: 0.95}, // >90% mem: degenerate per the paper
		{Exec: 0.5, Comm: 0.25, Mem: 0.25},
		{Exec: 0.25, Comm: 0.5, Mem: 0.25},
		{Exec: 0.25, Comm: 0.25, Mem: 0.5},
		{Exec: 0.8, Comm: 0.1, Mem: 0.1},
		{Exec: 0.4, Comm: 0.2, Mem: 0.4},
		{Exec: 0.6, Comm: 0, Mem: 0.4},
		{Exec: 0.45, Comm: 0.1, Mem: 0.45},
		{Exec: 0.33, Comm: 0.33, Mem: 0.34},
		{Exec: 0.7, Comm: 0.2, Mem: 0.1},
		{Exec: 0.55, Comm: 0.05, Mem: 0.4},
	}
	if n > len(all) {
		n = len(all)
	}
	return all[:n]
}

// Figure6 trains one model per weight setting and tests all of them
// plus the baselines on a different application instance.
func Figure6(opt Options) (*Fig6Result, error) {
	cfg := withProtocol(soc.SoC0(soc.TrafficMixed, opt.Seed), opt)
	train, err := workload.Generate(cfg, workload.GenConfig{MinInvocations: opt.MinInvocations}, opt.Seed+1000)
	if err != nil {
		return nil, err
	}
	test, err := workload.Generate(cfg, workload.GenConfig{MinInvocations: opt.MinInvocations}, opt.Seed+2000)
	if err != nil {
		return nil, err
	}

	ctx := opt.ctx()
	baseline, err := runApp(ctx, cfg, policy.NewFixed(soc.NonCohDMA), test, opt.Seed+3)
	if err != nil {
		return nil, err
	}

	// One trial per baseline policy plus one train+test trial per reward
	// model. Each trial owns its policy (the heterogeneous baseline is
	// profiled inside its trial, each model trains its own agent with
	// seeds fixed by index), so the whole batch fans out and the scatter
	// is assembled from the indexed results in paper order.
	baselineMakers := []func() (esp.Policy, error){
		func() (esp.Policy, error) { return policy.NewFixed(soc.NonCohDMA), nil },
		func() (esp.Policy, error) { return policy.NewFixed(soc.LLCCohDMA), nil },
		func() (esp.Policy, error) { return policy.NewFixed(soc.CohDMA), nil },
		func() (esp.Policy, error) { return policy.NewFixed(soc.FullyCoh), nil },
		func() (esp.Policy, error) { return policy.NewRandom(opt.Seed), nil },
		func() (esp.Policy, error) { return profileHeterogeneous(cfg, opt) },
		func() (esp.Policy, error) { return policy.NewManual(), nil },
	}
	weights := fig6Weights(opt.Fig6Models)
	points := make([]Fig6Point, len(baselineMakers)+len(weights))
	if err := forEachOpt(opt, len(points), func(i int) error {
		var pol esp.Policy
		label, wlabel := "", ""
		if i < len(baselineMakers) {
			var err error
			pol, err = baselineMakers[i]()
			if err != nil {
				return err
			}
			label = pol.Name()
		} else {
			w := weights[i-len(baselineMakers)]
			mi := i - len(baselineMakers)
			agentCfg := agentConfig(opt)
			agentCfg.Weights = w
			agentCfg.DecayIterations = opt.Fig6TrainIterations
			agentCfg.Seed = opt.Seed + uint64(mi)
			agent, err := core.New(agentCfg)
			if err != nil {
				return err
			}
			if err := trainCohmeleon(ctx, simulator(cfg), agent, train, opt.Fig6TrainIterations, opt.Seed+uint64(100*mi)); err != nil {
				return err
			}
			pol, label, wlabel = agent, "cohmeleon", w.String()
		}
		res, err := testPolicy(ctx, simulator(cfg), pol, test, opt.Seed+3)
		if err != nil {
			return err
		}
		exec, mem := geoNormalized(res, baseline)
		points[i] = Fig6Point{Label: label, Weights: wlabel, NormExec: exec, NormMem: mem}
		return nil
	}); err != nil {
		return nil, err
	}

	out := &Fig6Result{}
	out.Baselines = append(out.Baselines, points[:len(baselineMakers)]...)
	out.Cohmeleon = append(out.Cohmeleon, points[len(baselineMakers):]...)
	return out, nil
}

// Render formats the scatter as a table.
func (r *Fig6Result) Render() string {
	t := &Table{
		Title:  "Figure 6 — reward-function DSE on SoC0 (geomean over phases, normalized to fixed-non-coh-dma)",
		Header: []string{"policy", "weights (x,y,z)%", "norm exec", "norm off-chip"},
	}
	for _, p := range r.Baselines {
		t.AddRow(p.Label, "-", f2(p.NormExec), f2(p.NormMem))
	}
	for _, p := range r.Cohmeleon {
		t.AddRow(p.Label, p.Weights, f2(p.NormExec), f2(p.NormMem))
	}
	t.AddNote("paper: cohmeleon points cluster bottom-left, matching manual's exec with the lowest off-chip; only >90%%-mem rewards degrade")
	return t.Render()
}
