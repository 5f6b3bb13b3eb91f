package quality

import "testing"

// pollsThen feeds fail failed polls followed by ok successful unpaired
// ones. Failures come first so the poll-failure EWMA has decayed below
// the cumulative rate by the end, and the cumulative rate is the one
// graded.
func pollsThen(fail, ok int) func(*Sentinel) {
	return func(s *Sentinel) {
		for i := 0; i < fail; i++ {
			s.ObservePollError()
		}
		for i := 0; i < ok; i++ {
			s.ObservePoll(0, 50, 10, 0, false, false)
		}
	}
}

// pairsThen feeds gaps broken poll pairs followed by overlaps
// overlapping ones. Gaps come first so the overlap CUSUM has drained
// back under its alarm line by the end.
func pairsThen(gaps, overlaps int) func(*Sentinel) {
	return func(s *Sentinel) {
		for i := 0; i < gaps; i++ {
			s.ObservePoll(0, 50, 10, 0, true, false)
		}
		for i := 0; i < overlaps; i++ {
			s.ObservePoll(0, 50, 10, 0, true, true)
		}
	}
}

// coverageOf feeds one poll that collected collected of 10,000
// generated bundles.
func coverageOf(collected int) func(*Sentinel) {
	return func(s *Sentinel) {
		s.ObservePoll(0, 50, collected, 0, false, false)
		s.ObserveGenerated(0, 10_000)
	}
}

// analysisWith feeds the paper-shaped analysis pass of feedClean with
// edit applied.
func analysisWith(edit func(*AnalysisObs)) func(*Sentinel) {
	return func(s *Sentinel) {
		a := AnalysisObs{
			TotalBundles:      100_000,
			Len3Bundles:       2770,
			Len3WithDetails:   2770,
			Len1Bundles:       90_000,
			Sandwiches:        38,
			MedianTipLen3:     1000,
			MedianTipSandwich: 2_000_000,
			DefensiveShare:    0.86,
		}
		edit(&a)
		s.ObserveAnalysis(a)
	}
}

// TestThresholdBoundaries pins every verdict threshold of the sentinel:
// each row feeds one input just inside a threshold and one just outside
// it, and checks the graded check's status and exact reason. The reason
// strings are what /qualityz serves, so this table also pins those
// bytes. Reasons round their values, so a value just outside a
// threshold can print as the threshold itself ("coverage 50.0% < 50%").
func TestThresholdBoundaries(t *testing.T) {
	type side struct {
		feed   func(*Sentinel)
		status Status
		reason string
	}
	cases := []struct {
		threshold string
		check     string
		in, out   side
	}{
		{"PollFailWarn", "poll_failure_rate",
			side{pollsThen(200, 9801), OK, ""},
			side{pollsThen(200, 9800), WARN, "poll failure rate 0.020 >= 0.02: sustained transport faults (200 of 10000 polls failed)"}},
		{"PollFailCrit", "poll_failure_rate",
			side{pollsThen(2499, 7501), WARN, "poll failure rate 0.250 >= 0.02: sustained transport faults (2499 of 10000 polls failed)"},
			side{pollsThen(2500, 7500), CRIT, "poll failure rate 0.250 >= 0.25: the scrape is losing pages wholesale (2500 of 10000 polls failed)"}},
		{"MinPolls", "poll_failure_rate",
			side{pollsThen(1, 6), OK, "insufficient data: 7 polls < 8"},
			// 1 of 8 cumulatively, but the EWMA still reads 0.9^7.
			side{pollsThen(1, 7), CRIT, "poll failure rate 0.478 >= 0.25: the scrape is losing pages wholesale (1 of 8 polls failed)"}},
		{"OverlapWarn", "overlap_rate",
			side{pairsThen(9, 51), OK, ""},
			side{pairsThen(10, 50), WARN, "overlap 83.3% < 85% (paper ~95%)"}},
		{"OverlapCrit", "overlap_rate",
			side{pairsThen(30, 30), WARN, "overlap 50.0% < 85% (paper ~95%)"},
			side{pairsThen(31, 29), CRIT, "overlap 48.3% < 50%: most successive pages share no bundle — completeness argument void"}},
		{"GapRateWarn", "page_gaps",
			side{pairsThen(150, 850), OK, ""},
			side{pairsThen(151, 849), WARN, "15.1% of poll pairs broken (151 gaps, est. 7550 bundles missed)"}},
		{"MinPairs", "overlap_rate",
			side{pairsThen(7, 0), OK, "insufficient data: 7 pairs < 8"},
			side{pairsThen(8, 0), CRIT, "overlap 0.0% < 50%: most successive pages share no bundle — completeness argument void"}},
		{"MinPairs", "page_gaps",
			side{pairsThen(7, 0), OK, "insufficient data: 7 pairs < 8"},
			side{pairsThen(8, 0), WARN, "100.0% of poll pairs broken (8 gaps, est. 400 bundles missed)"}},
		{"CoverageWarn", "coverage",
			side{coverageOf(5000), OK, ""},
			side{coverageOf(4999), WARN, "coverage 50.0% < 50%"}},
		{"CoverageCrit", "coverage",
			side{coverageOf(2500), WARN, "coverage 25.0% < 50%"},
			side{coverageOf(2499), CRIT, "coverage 25.0% < 25%: the dataset is a thin sample of the chain"}},
		{"Len3ShareBand", "len3_share",
			side{analysisWith(func(a *AnalysisObs) { a.TotalBundles, a.Len3Bundles = 10_000_000, 426_999 }), OK, ""},
			side{analysisWith(func(a *AnalysisObs) { a.TotalBundles, a.Len3Bundles = 10_000_000, 427_001 }), WARN, "length-3 share 4.27% outside ±1.5pp of 2.77%"}},
		{"Len3ShareBand×3", "len3_share",
			side{analysisWith(func(a *AnalysisObs) { a.TotalBundles, a.Len3Bundles = 10_000_000, 726_999 }), WARN, "length-3 share 7.27% outside ±1.5pp of 2.77%"},
			side{analysisWith(func(a *AnalysisObs) { a.TotalBundles, a.Len3Bundles = 10_000_000, 727_001 }), CRIT, "length-3 share 7.27% vs paper 2.77%: collection economy is seeing a different population"}},
		{"MinLen3", "len3_share",
			side{analysisWith(func(a *AnalysisObs) { a.Len3Bundles = 49 }), OK, "insufficient data: 49 length-3 bundles < 50"},
			side{analysisWith(func(a *AnalysisObs) { a.Len3Bundles = 50 }), WARN, "length-3 share 0.05% outside ±1.5pp of 2.77%"}},
		{"DetailWarn", "detail_completeness",
			side{analysisWith(func(a *AnalysisObs) { a.Len3Bundles, a.Len3WithDetails = 10_000, 9500 }), OK, ""},
			side{analysisWith(func(a *AnalysisObs) { a.Len3Bundles, a.Len3WithDetails = 10_000, 9499 }), WARN, "95.0% of length-3 bundles have details (0 ids pending)"}},
		{"DetailCrit", "detail_completeness",
			side{analysisWith(func(a *AnalysisObs) { a.Len3Bundles, a.Len3WithDetails = 10_000, 5000 }), WARN, "50.0% of length-3 bundles have details (0 ids pending)"},
			side{analysisWith(func(a *AnalysisObs) { a.Len3Bundles, a.Len3WithDetails = 10_000, 4999 }), CRIT, "only 50.0% of length-3 bundles have details (0 batches failed, 0 ids pending)"}},
		{"SandwichShareMin", "sandwich_rate",
			side{analysisWith(func(a *AnalysisObs) { a.Sandwiches, a.TotalBundles = 5, 249_999 }), OK, ""},
			side{analysisWith(func(a *AnalysisObs) { a.Sandwiches, a.TotalBundles = 5, 250_001 }), WARN, "sandwich share 0.0020% outside [0.0020%, 0.50%] (paper 0.038%)"}},
		{"SandwichShareMax", "sandwich_rate",
			side{analysisWith(func(a *AnalysisObs) { a.Sandwiches, a.TotalBundles = 49_999, 10_000_000 }), OK, ""},
			side{analysisWith(func(a *AnalysisObs) { a.Sandwiches, a.TotalBundles = 50_001, 10_000_000 }), WARN, "sandwich share 0.5000% outside [0.0020%, 0.50%] (paper 0.038%)"}},
		{"MinSandwiches", "sandwich_rate",
			side{analysisWith(func(a *AnalysisObs) { a.Sandwiches, a.TotalBundles = 4, 1_000_000 }), OK, "insufficient data: 4 sandwiches < 5"},
			side{analysisWith(func(a *AnalysisObs) { a.Sandwiches, a.TotalBundles = 5, 1_000_000 }), WARN, "sandwich share 0.0005% outside [0.0020%, 0.50%] (paper 0.038%)"}},
		{"MinSandwiches", "tip_separation",
			side{analysisWith(func(a *AnalysisObs) { a.Sandwiches, a.MedianTipSandwich = 4, 9_900 }), OK, "insufficient data: 4 sandwiches < 5"},
			side{analysisWith(func(a *AnalysisObs) { a.Sandwiches, a.MedianTipSandwich = 5, 9_900 }), CRIT, "median sandwich tip only 9.9× the length-3 median: the Figure 4 separation has collapsed"}},
		{"DefensiveBand", "defensive_share",
			side{analysisWith(func(a *AnalysisObs) { a.DefensiveShare = 0.700001 }), OK, ""},
			side{analysisWith(func(a *AnalysisObs) { a.DefensiveShare = 0.699999 }), WARN, "defensive share 70.0% outside ±16pp of 86%"}},
		{"TipSepWarn", "tip_separation",
			side{analysisWith(func(a *AnalysisObs) { a.MedianTipSandwich = 100_000 }), OK, ""},
			side{analysisWith(func(a *AnalysisObs) { a.MedianTipSandwich = 99_990 }), WARN, "median sandwich tip 100× the length-3 median (< 100×)"}},
		{"TipSepCrit", "tip_separation",
			side{analysisWith(func(a *AnalysisObs) { a.MedianTipSandwich = 10_000 }), WARN, "median sandwich tip 10× the length-3 median (< 100×)"},
			side{analysisWith(func(a *AnalysisObs) { a.MedianTipSandwich = 9_999 }), CRIT, "median sandwich tip only 10.0× the length-3 median: the Figure 4 separation has collapsed"}},
	}
	for _, tc := range cases {
		for _, sd := range []struct {
			name string
			side
		}{{"inside", tc.in}, {"outside", tc.out}} {
			s := New(Config{}, nil)
			sd.feed(s)
			c := s.Evaluate().ByName(tc.check)
			if c.Name == "" {
				t.Errorf("%s %s: check %s missing", tc.threshold, sd.name, tc.check)
				continue
			}
			if c.Status != sd.status || c.Reason != sd.reason {
				t.Errorf("%s %s: %s = %v %q, want %v %q",
					tc.threshold, sd.name, tc.check, c.Status, c.Reason, sd.status, sd.reason)
			}
		}
	}
}
