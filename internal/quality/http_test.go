package quality

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"jitomev/internal/obs"
)

// get issues a request against a handler and returns the recorder.
func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

// TestQualityzShape is the /qualityz golden-shape test: the top-level
// and per-check key sets are pinned so downstream scrapers can rely on
// them. Values are volatile; keys are not.
func TestQualityzShape(t *testing.T) {
	s := New(Config{}, nil)
	feedClean(s)
	rec := get(t, s.QualityHandler(), "/qualityz")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	wantTop := []string{"checks", "coverage", "drift", "status"}
	if got := sortedJSONKeys(doc); !equalStrings(got, wantTop) {
		t.Fatalf("top-level keys %v want %v", got, wantTop)
	}

	var checks []map[string]json.RawMessage
	if err := json.Unmarshal(doc["checks"], &checks); err != nil {
		t.Fatal(err)
	}
	if len(checks) == 0 {
		t.Fatal("no checks in document")
	}
	wantCheck := []string{"name", "reason", "status", "target", "value"}
	for _, c := range checks {
		if got := sortedJSONKeys(c); !equalStrings(got, wantCheck) {
			t.Fatalf("check keys %v want %v", got, wantCheck)
		}
	}

	var drift []map[string]json.RawMessage
	if err := json.Unmarshal(doc["drift"], &drift); err != nil {
		t.Fatal(err)
	}
	for _, d := range drift {
		for _, req := range []string{"name", "kind", "samples", "value"} {
			if _, ok := d[req]; !ok {
				t.Fatalf("drift entry missing %q: %v", req, sortedJSONKeys(d))
			}
		}
	}

	var cov map[string]json.RawMessage
	if err := json.Unmarshal(doc["coverage"], &cov); err != nil {
		t.Fatal(err)
	}
	for _, req := range []string{
		"polls_ok", "polls_failed", "pairs", "overlap_pairs", "gaps",
		"new_bundles", "duplicates", "backfill_recovered", "backfill_errors",
		"generated", "page_limit", "estimated_missed", "overlap_rate",
		"poll_failure_rate", "coverage_rate", "days",
	} {
		if _, ok := cov[req]; !ok {
			t.Fatalf("coverage missing %q: %v", req, sortedJSONKeys(cov))
		}
	}
}

// TestHealthzFlipsOnCrit serves the sentinel through obs.HealthHandler,
// the /healthz every binary mounts: 200 "ok" while the verdict is clean,
// 503 "unhealthy" with the CRIT checks as the reason on collapse.
func TestHealthzFlipsOnCrit(t *testing.T) {
	s := New(Config{}, nil)
	feedClean(s)
	if rec := get(t, obs.HealthHandler(s.HealthSource()), "/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("healthy probe status %d", rec.Code)
	}

	crit := New(Config{}, nil)
	for i := 0; i < 30; i++ {
		crit.ObservePoll(0, 50, 50, 0, i > 0, false) // overlap collapse
	}
	rec := get(t, obs.HealthHandler(crit.HealthSource()), "/healthz")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("CRIT probe status %d want 503", rec.Code)
	}
	var body struct {
		Status  string   `json:"status"`
		Reasons []string `json:"reasons"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Status != "unhealthy" || len(body.Reasons) != 1 ||
		!strings.HasPrefix(body.Reasons[0], "quality: verdict CRIT; ") {
		t.Fatalf("probe body %+v", body)
	}
}

func TestNilSentinelEndpoints(t *testing.T) {
	var s *Sentinel
	if rec := get(t, s.QualityHandler(), "/qualityz"); rec.Code != http.StatusOK {
		t.Fatalf("nil /qualityz status %d", rec.Code)
	}
	rec := get(t, obs.HealthHandler(s.HealthSource()), "/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("nil /healthz status %d", rec.Code)
	}
	if body := strings.TrimSpace(rec.Body.String()); body != "{\n  \"status\": \"ok\"\n}" {
		t.Fatalf("nil /healthz body %q", body)
	}
}

func sortedJSONKeys(m map[string]json.RawMessage) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
