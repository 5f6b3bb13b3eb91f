package quality

import (
	"encoding/json"
	"fmt"
)

// Status is a check verdict. The zero value is OK, so an unevaluated
// check never alarms by accident.
type Status uint8

// Verdict levels, ordered by severity.
const (
	OK Status = iota
	WARN
	CRIT
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case OK:
		return "ok"
	case WARN:
		return "warn"
	case CRIT:
		return "crit"
	}
	return fmt.Sprintf("status(%d)", uint8(s))
}

// MarshalJSON renders the status as its lowercase name.
func (s Status) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// UnmarshalJSON accepts the lowercase names.
func (s *Status) UnmarshalJSON(b []byte) error {
	var str string
	if err := json.Unmarshal(b, &str); err != nil {
		return err
	}
	switch str {
	case "ok":
		*s = OK
	case "warn":
		*s = WARN
	case "crit":
		*s = CRIT
	default:
		return fmt.Errorf("quality: unknown status %q", str)
	}
	return nil
}

// Check is one evaluated invariant.
type Check struct {
	Name   string  `json:"name"`
	Status Status  `json:"status"`
	Value  float64 `json:"value"`
	Target float64 `json:"target"`
	Reason string  `json:"reason"`
}

// Report is the full /qualityz document: the aggregate verdict, every
// check in a fixed order, the coverage ledger, and the drift-detector
// states.
type Report struct {
	Status   Status          `json:"status"`
	Checks   []Check         `json:"checks"`
	Coverage LedgerSummary   `json:"coverage"`
	Drift    []DetectorState `json:"drift"`
}

// Worst returns the most severe status among the checks.
func (r Report) Worst() Status { return r.Status }

// ByName returns the named check (zero Check when absent).
func (r Report) ByName(name string) Check {
	for _, c := range r.Checks {
		if c.Name == name {
			return c
		}
	}
	return Check{}
}

// Evaluate renders the sentinel's current state as a Report. It is a
// pure function of the observations fed so far, so two runs that fed
// identical sequences produce identical reports — the property the
// worker-count determinism tests pin. A nil sentinel evaluates to an
// empty OK report.
func (s *Sentinel) Evaluate() Report {
	if s == nil {
		return Report{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()

	sum := s.led.Summary()
	var checks []Check

	add := func(c Check) { checks = append(checks, c) }
	grade := func(name string, value, target float64, st Status, reason string) {
		add(Check{Name: name, Status: st, Value: value, Target: target, Reason: reason})
	}

	// poll_failure_rate: the worse of the cumulative rate (sustained
	// loss over the whole window) and the EWMA (a recent burst the
	// cumulative average would dilute away).
	polls := int(sum.PollsOK + sum.PollsFailed)
	fr := sum.PollFailureRate
	if ew := s.pollFail.Mean(); ew > fr {
		fr = ew
	}
	switch {
	case polls < minPolls:
		grade("poll_failure_rate", fr, 0, OK, fmt.Sprintf("insufficient data: %d polls < %d", polls, minPolls))
	case fr >= pollFailCrit:
		grade("poll_failure_rate", fr, 0, CRIT,
			fmt.Sprintf("poll failure rate %.3f >= %.2f: the scrape is losing pages wholesale (%d of %d polls failed)",
				fr, pollFailCrit, sum.PollsFailed, polls))
	case fr >= pollFailWarn:
		grade("poll_failure_rate", fr, 0, WARN,
			fmt.Sprintf("poll failure rate %.3f >= %.2f: sustained transport faults (%d of %d polls failed)",
				fr, pollFailWarn, sum.PollsFailed, polls))
	default:
		grade("poll_failure_rate", fr, 0, OK, "")
	}

	// overlap_rate: §3.1 completeness invariant (H11, ~95%).
	ov := sum.OverlapRate
	switch {
	case int(sum.Pairs) < minPairs:
		grade("overlap_rate", ov, TargetOverlapRate, OK,
			fmt.Sprintf("insufficient data: %d pairs < %d", sum.Pairs, minPairs))
	case ov < overlapCrit:
		grade("overlap_rate", ov, TargetOverlapRate, CRIT,
			fmt.Sprintf("overlap %.1f%% < %.0f%%: most successive pages share no bundle — completeness argument void",
				100*ov, 100*overlapCrit))
	case ov < overlapWarn || s.overlapCUS.InAlarm():
		reason := fmt.Sprintf("overlap %.1f%% < %.0f%% (paper ~95%%)", 100*ov, 100*overlapWarn)
		if ov >= overlapWarn {
			hi, lo := s.overlapCUS.Sides()
			reason = fmt.Sprintf("CUSUM drift alarm (hi=%.2f lo=%.2f): overlap shifting away from %.2f", hi, lo, TargetOverlapRate)
		}
		grade("overlap_rate", ov, TargetOverlapRate, WARN, reason)
	default:
		grade("overlap_rate", ov, TargetOverlapRate, OK, "")
	}

	// page_gaps: broken-pair fraction plus the missed-bundle estimate.
	gapRate := 0.0
	if sum.Pairs > 0 {
		gapRate = float64(sum.Gaps) / float64(sum.Pairs)
	}
	switch {
	case int(sum.Pairs) < minPairs:
		grade("page_gaps", gapRate, 0, OK,
			fmt.Sprintf("insufficient data: %d pairs < %d", sum.Pairs, minPairs))
	case gapRate > gapRateWarn:
		grade("page_gaps", gapRate, 0, WARN,
			fmt.Sprintf("%.1f%% of poll pairs broken (%d gaps, est. %d bundles missed)",
				100*gapRate, sum.Gaps, sum.EstimatedMissed))
	default:
		grade("page_gaps", gapRate, 0, OK, "")
	}

	// coverage: collected/generated — meaningful only when both sides of
	// the join report. A process that only sees the generation feed
	// (explorerd) has nothing collected by construction, so grading it
	// would be a permanent false CRIT.
	if sum.Generated > 0 {
		cov := sum.CoverageRate
		switch {
		case polls == 0:
			grade("coverage", cov, 1, OK, "insufficient data: no collection observed")
		case cov < coverageCrit:
			grade("coverage", cov, 1, CRIT,
				fmt.Sprintf("coverage %.1f%% < %.0f%%: the dataset is a thin sample of the chain", 100*cov, 100*coverageCrit))
		case cov < coverageWarn:
			grade("coverage", cov, 1, WARN,
				fmt.Sprintf("coverage %.1f%% < %.0f%%", 100*cov, 100*coverageWarn))
		default:
			grade("coverage", cov, 1, OK, "")
		}
	}

	// Analysis-fed invariants.
	if s.analysisSet {
		a := s.analysis

		// len3_share vs 2.77% (H10).
		if a.TotalBundles > 0 {
			share := float64(a.Len3Bundles) / float64(a.TotalBundles)
			dev := share - TargetLen3Share
			if dev < 0 {
				dev = -dev
			}
			switch {
			case int(a.Len3Bundles) < minLen3:
				grade("len3_share", share, TargetLen3Share, OK,
					fmt.Sprintf("insufficient data: %d length-3 bundles < %d", a.Len3Bundles, minLen3))
			case dev > 3*len3ShareBand:
				grade("len3_share", share, TargetLen3Share, CRIT,
					fmt.Sprintf("length-3 share %.2f%% vs paper 2.77%%: collection economy is seeing a different population", 100*share))
			case dev > len3ShareBand:
				grade("len3_share", share, TargetLen3Share, WARN,
					fmt.Sprintf("length-3 share %.2f%% outside ±%.1fpp of 2.77%%", 100*share, 100*len3ShareBand))
			default:
				grade("len3_share", share, TargetLen3Share, OK, "")
			}
		}

		// detail_completeness: fetched details over length-3 bundles.
		if int(a.Len3Bundles) >= minLen3 {
			comp := float64(a.Len3WithDetails) / float64(a.Len3Bundles)
			switch {
			case comp < detailCrit:
				grade("detail_completeness", comp, 1, CRIT,
					fmt.Sprintf("only %.1f%% of length-3 bundles have details (%d batches failed, %d ids pending)",
						100*comp, s.led.detailBatchErr, s.led.detailsPending))
			case comp < detailWarn:
				grade("detail_completeness", comp, 1, WARN,
					fmt.Sprintf("%.1f%% of length-3 bundles have details (%d ids pending)", 100*comp, s.led.detailsPending))
			default:
				grade("detail_completeness", comp, 1, OK, "")
			}
		}

		// sandwich_rate vs 0.038% (H8).
		if a.TotalBundles > 0 && int(a.Sandwiches) >= minSandwiches {
			share := float64(a.Sandwiches) / float64(a.TotalBundles)
			switch {
			case share < sandwichShareMin || share > sandwichShareMax:
				grade("sandwich_rate", share, TargetSandwichShare, WARN,
					fmt.Sprintf("sandwich share %.4f%% outside [%.4f%%, %.2f%%] (paper 0.038%%)",
						100*share, 100*sandwichShareMin, 100*sandwichShareMax))
			default:
				grade("sandwich_rate", share, TargetSandwichShare, OK, "")
			}
		} else {
			grade("sandwich_rate", 0, TargetSandwichShare, OK,
				fmt.Sprintf("insufficient data: %d sandwiches < %d", a.Sandwiches, minSandwiches))
		}

		// defensive_share vs 86% (H5).
		if a.Len1Bundles > 0 {
			dev := a.DefensiveShare - TargetDefensiveShare
			if dev < 0 {
				dev = -dev
			}
			switch {
			case dev > defensiveBand:
				grade("defensive_share", a.DefensiveShare, TargetDefensiveShare, WARN,
					fmt.Sprintf("defensive share %.1f%% outside ±%.0fpp of 86%%", 100*a.DefensiveShare, 100*defensiveBand))
			default:
				grade("defensive_share", a.DefensiveShare, TargetDefensiveShare, OK, "")
			}
		}

		// tip_separation: median sandwich tip over median length-3 tip
		// (Figure 4's three orders of magnitude, floored at 100×).
		if int(a.Sandwiches) >= minSandwiches && a.MedianTipLen3 > 0 {
			ratio := a.MedianTipSandwich / a.MedianTipLen3
			switch {
			case ratio < tipSepCrit:
				grade("tip_separation", ratio, TargetTipSeparation, CRIT,
					fmt.Sprintf("median sandwich tip only %.1f× the length-3 median: the Figure 4 separation has collapsed", ratio))
			case ratio < tipSepWarn:
				grade("tip_separation", ratio, TargetTipSeparation, WARN,
					fmt.Sprintf("median sandwich tip %.0f× the length-3 median (< %.0f×)", ratio, tipSepWarn))
			default:
				grade("tip_separation", ratio, TargetTipSeparation, OK, "")
			}
		} else {
			grade("tip_separation", 0, TargetTipSeparation, OK,
				fmt.Sprintf("insufficient data: %d sandwiches < %d", a.Sandwiches, minSandwiches))
		}
	}

	rep := Report{Checks: checks, Coverage: sum, Drift: s.driftStateLocked()}
	for _, c := range checks {
		if c.Status > rep.Status {
			rep.Status = c.Status
		}
	}
	s.publishVerdictLocked(rep)
	return rep
}

// publishVerdictLocked mirrors the report onto the registry. Caller
// holds s.mu.
func (s *Sentinel) publishVerdictLocked(rep Report) {
	if s.reg == nil {
		return
	}
	s.statusG.Set(int64(rep.Status))
	for _, c := range rep.Checks {
		g, ok := s.checkG[c.Name]
		if !ok {
			g = s.reg.Gauge("quality_check_status", "check", c.Name)
			s.checkG[c.Name] = g
		}
		g.Set(int64(c.Status))
	}
}
