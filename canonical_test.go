package jitomev

import (
	"testing"

	"jitomev/internal/report"
	"jitomev/internal/workload"
)

// TestCanonicalHeadline runs the canonical experiment — the exact
// configuration EXPERIMENTS.md reports (120 days, scale 2000, seed 1) —
// and asserts every headline statistic stays inside its paper band. This
// is the repository's master regression test: any change that silently
// drifts the reproduction out of the paper's shape fails here.
//
// ~30 s; skipped under -short.
func TestCanonicalHeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("canonical experiment takes ~30s")
	}
	out, err := Run(Config{
		Workload: workload.Params{Seed: 1, Days: 120, Scale: 2000},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := out.Results

	check := func(id string, got, lo, hi float64) {
		t.Helper()
		if got < lo || got > hi {
			t.Errorf("%s = %v, want within [%v, %v]", id, got, lo, hi)
		}
	}

	// H1: paper 521,903 scaled by 2000 and ~109/120 collected days ≈ 237.
	check("H1 sandwiches", float64(r.Sandwiches), 180, 320)
	// H3/H2: gains exceed losses (paper ratio 1.26×).
	check("H3/H2 gain-loss ratio", r.AttackerGainSOL/r.VictimLossSOL, 1.0, 1.8)
	// H4: 28% of sandwiches have no SOL leg.
	check("H4 no-SOL share", r.NoSOLShare(), 0.20, 0.40)
	// H5: >86% of length-1 bundles are defensive.
	check("H5 defensive share", r.Defense.DefensiveShare(), 0.83, 0.90)
	// H7: average defensive tip ≈ 11.6k lamports.
	check("H7 avg defensive tip", r.Defense.AvgDefensiveTipLamports(), 7_000, 16_000)
	// H8: 0.038% of bundles are sandwiches.
	check("H8 sandwich share", r.SandwichShare, 0.0002, 0.0006)
	// H9: ≈1.757 txs/bundle.
	check("H9 txs/bundle", float64(r.TotalTxs)/float64(r.TotalBundles), 1.70, 1.82)
	// H10: 2.77% length-3.
	check("H10 len-3 share", float64(r.Len3Bundles)/float64(r.TotalBundles), 0.022, 0.033)
	// H11: ~95% successive-poll overlap.
	check("H11 overlap", r.OverlapRate, 0.90, 0.985)
	// H12: median tips — benign length-3 at the 1,000 floor, sandwiches
	// three orders of magnitude above.
	check("H12 len-3 median tip", r.TipsLen3.Quantile(0.5), 1_000, 1_200)
	check("H12 sandwich median tip", r.TipsSandwich.Quantile(0.5), 1e6, 8e6)
	// H13: median loss ≈ $5, tail beyond $100.
	check("H13 median loss USD", r.LossUSD.Quantile(0.5), 2.5, 10)
	check("H13 p99 loss USD", r.LossUSD.Quantile(0.99), 100, 2_000)
	// H14/H15: trend directions.
	if r.AttacksByDay.LinearTrend() >= 0 {
		t.Error("H14: attacks/day trend not declining")
	}
	if r.DefenseByDay.LinearTrend() <= 0 {
		t.Error("H15: defensive/day trend not rising")
	}
	// §5: attacks and defense anti-correlate over the window.
	tr := report.ComputeTradeoff(r)
	check("attacks-defense correlation", tr.AttacksDefenseCorrelation, -0.9, -0.15)
	if !tr.RationalToProtect() {
		t.Error("§5: protection should be rational on expectation")
	}
	// Coverage: outages cost ~9% of days plus burst losses.
	check("coverage", out.CoverageRate, 0.75, 0.95)
}

// TestCanonicalAblation scores the full detector and the naive A-B-A
// baseline against workload ground truth on the canonical experiment,
// and pins precision and recall to bands around what EXPERIMENTS.md
// reports (full 97.4% / 100%, naive 4.8% / 100%). A heuristic detector
// can drift without any headline statistic leaving its band; this
// catches it.
//
// ~30 s; skipped under -short.
func TestCanonicalAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("canonical experiment takes ~30s")
	}
	out, err := Run(Config{
		Workload:    workload.Params{Seed: 1, Days: 120, Scale: 2000},
		RunAblation: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ab := out.Ablation
	for _, c := range []struct {
		id          string
		got, lo, hi float64
	}{
		{"full precision", ab.Full.Precision(), 0.95, 1},
		{"full recall", ab.Full.Recall(), 0.99, 1},
		{"naive precision", ab.Naive.Precision(), 0.03, 0.07},
		{"naive recall", ab.Naive.Recall(), 0.99, 1},
	} {
		if c.got < c.lo || c.got > c.hi {
			t.Errorf("%s = %v, want within [%v, %v] (full %+v, naive %+v)",
				c.id, c.got, c.lo, c.hi, ab.Full, ab.Naive)
		}
	}
}
