package experiment

import (
	"cohmeleon/internal/core"
	"cohmeleon/internal/policy"
	"cohmeleon/internal/soc"
	"cohmeleon/internal/workload"
)

// AblationPoint is one variant's geomean normalized performance.
type AblationPoint struct {
	Variant  string
	NormExec float64
	NormMem  float64
}

// AblationResult covers the design-choice ablations DESIGN.md calls
// out beyond the paper's own reward DSE: dropping each Table-3 state
// attribute, disabling the linear ε/α decay, and replacing the paper's
// DDR-attribution approximation with simulator ground truth.
type AblationResult struct {
	Points []AblationPoint
}

// Ablation trains one Cohmeleon variant per design choice on SoC0 and
// tests all of them on the same application instance.
func Ablation(opt Options) (*AblationResult, error) {
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

	// Every variant is a learner-stack configuration: the decay ablation
	// swaps the Schedule seam for the constant schedule, the state
	// ablations swap the Featurizer seam for an ablated encoder, and the
	// attribution ablation redirects the reward's mem component. The
	// pre-refactor bespoke Config booleans (NoDecay, Encoder) are gone.
	type variant struct {
		name string
		mut  func(*core.Config)
	}
	variants := []variant{
		{"full (paper)", func(*core.Config) {}},
		{"no-decay", func(c *core.Config) { c.Schedule = "const" }},
		{"true-ddr-reward", func(c *core.Config) { c.TrueDDRReward = true }},
	}
	for a := core.Attribute(0); a < core.NumAttributes; a++ {
		a := a
		variants = append(variants, variant{
			name: "drop-" + a.String(),
			mut:  func(c *core.Config) { c.Featurizer = core.NewAblatedEncoder(a) },
		})
	}

	// Each variant trains and tests its own agent from the same seeds;
	// the variants are independent and fan out on the worker pool.
	points := make([]AblationPoint, len(variants))
	if err := forEachOpt(opt, len(variants), func(i int) error {
		v := variants[i]
		agentCfg := core.DefaultConfig()
		agentCfg.DecayIterations = opt.TrainIterations
		agentCfg.Seed = opt.Seed
		v.mut(&agentCfg)
		agent, err := core.New(agentCfg)
		if err != nil {
			return err
		}
		if err := trainCohmeleon(ctx, simulator(cfg), agent, train, opt.TrainIterations, opt.Seed+7); err != nil {
			return err
		}
		res, err := testPolicy(ctx, simulator(cfg), agent, test, opt.Seed+3)
		if err != nil {
			return err
		}
		exec, mem := geoNormalized(res, baseline)
		points[i] = AblationPoint{Variant: v.name, NormExec: exec, NormMem: mem}
		return nil
	}); err != nil {
		return nil, err
	}
	return &AblationResult{Points: points}, nil
}

// Point returns a variant's measurement.
func (r *AblationResult) Point(variant string) (AblationPoint, bool) {
	for _, p := range r.Points {
		if p.Variant == variant {
			return p, true
		}
	}
	return AblationPoint{}, false
}

// Render formats the ablation table.
func (r *AblationResult) Render() string {
	t := &Table{
		Title:  "Ablations — Cohmeleon variants on SoC0 (normalized to fixed-non-coh-dma)",
		Header: []string{"variant", "norm exec", "norm off-chip"},
	}
	for _, p := range r.Points {
		t.AddRow(p.Variant, f2(p.NormExec), f2(p.NormMem))
	}
	return t.Render()
}
