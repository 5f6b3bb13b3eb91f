package quality

import (
	"encoding/json"
	"net/http"

	"jitomev/internal/obs"
)

// QualityHandler serves the /qualityz JSON document: the sentinel is
// re-evaluated on every request, so the verdict is live. A nil sentinel
// serves an empty OK report, keeping the endpoint shape stable whether
// or not the binary wired quality up.
func (s *Sentinel) QualityHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(s.Evaluate())
	})
}

// HealthSource adapts the sentinel to obs.HealthHandler, which folds it
// with the SLO engine into a single /healthz probe: unhealthy on CRIT,
// with the failing checks' reasons surfaced. A nil sentinel is always
// healthy.
func (s *Sentinel) HealthSource() obs.HealthSource {
	return obs.HealthSource{
		Name: "quality",
		Check: func() (bool, string) {
			rep := s.Evaluate()
			if rep.Status != CRIT {
				return true, ""
			}
			reason := "verdict CRIT"
			for _, c := range rep.Checks {
				if c.Status == CRIT {
					reason += "; " + c.Name + ": " + c.Reason
				}
			}
			return false, reason
		},
	}
}
