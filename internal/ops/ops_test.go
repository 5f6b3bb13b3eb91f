package ops

import (
	"bytes"
	"encoding/json"
	"flag"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"jitomev/internal/obs"
	"jitomev/internal/slo"
)

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

func start(t *testing.T) *Ops {
	t.Helper()
	var f Flags
	f.Register(flag.NewFlagSet("test", flag.ContinueOnError), false)
	f.SLOTick = time.Millisecond // keep the evaluation loop busy under -race
	o := Start("test", 7, f, slo.CollectorObjectives)
	t.Cleanup(o.Close)
	return o
}

// TestOpsEndpointsMount checks that one Mux serves the whole ops
// surface plus the caller's extras, and that a CRIT quality verdict
// turns the combined /healthz into a 503 naming the sentinel.
func TestOpsEndpointsMount(t *testing.T) {
	o := start(t)
	extra := obs.Endpoint{Path: "/extraz", Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {})}
	mux := o.Mux(extra)
	for _, path := range []string{"/metrics", "/statusz", "/tracez", "/qualityz", "/sloz", "/healthz", "/extraz"} {
		if rec := get(t, mux, path); rec.Code != http.StatusOK {
			t.Errorf("%s -> %d", path, rec.Code)
		}
	}
	if rec := get(t, mux, "/debug/pprof/"); rec.Code != http.StatusNotFound {
		t.Errorf("pprof mounted without -pprof: %d", rec.Code)
	}

	for i := 0; i < 30; i++ {
		o.Quality.ObservePoll(0, 50, 50, 0, i > 0, false) // overlap collapse
	}
	rec := get(t, mux, "/healthz")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("CRIT /healthz -> %d want 503", rec.Code)
	}
	var body struct {
		Status  string   `json:"status"`
		Reasons []string `json:"reasons"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Status != "unhealthy" || len(body.Reasons) == 0 ||
		!strings.HasPrefix(body.Reasons[0], "quality: verdict CRIT") {
		t.Fatalf("CRIT /healthz body %+v", body)
	}
}

// TestMetricsAddrServes starts the -metrics-addr listener and scrapes
// /healthz over the wire until Close.
func TestMetricsAddrServes(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	o := Start("test", 7, Flags{Addr: addr, SLOTick: time.Millisecond}, slo.CollectorObjectives)
	defer o.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("/healthz -> %d", resp.StatusCode)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFlagsOwnListener pins which binaries get -metrics-addr.
func TestFlagsOwnListener(t *testing.T) {
	for _, own := range []bool{true, false} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		var f Flags
		f.Register(fs, own)
		if got := fs.Lookup("metrics-addr") != nil; got != own {
			t.Errorf("ownListener=%v: -metrics-addr registered=%v", own, got)
		}
		for _, name := range []string{"pprof", "trace-sample", "trace-cap", "slo-unit", "slo-tick"} {
			if fs.Lookup(name) == nil {
				t.Errorf("ownListener=%v: -%s missing", own, name)
			}
		}
	}
}

func TestWriteSummary(t *testing.T) {
	o := start(t)
	var buf bytes.Buffer
	o.WriteSummary(&buf)
	out := buf.String()
	if !strings.HasPrefix(out, "== Run metrics ==\n") {
		t.Fatalf("summary starts %q", out[:min(len(out), 40)])
	}
	for _, want := range []string{"\n== Data quality ==\n", "collector_poll_availability"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestProfiles(t *testing.T) {
	dir := t.TempDir()
	p := Profiles{CPU: filepath.Join(dir, "cpu.prof"), Mem: filepath.Join(dir, "mem.prof")}
	stop := p.Start("test")
	stop()
	for _, path := range []string{p.CPU, p.Mem} {
		if fi, err := os.Stat(path); err != nil {
			t.Error(err)
		} else if fi.Size() == 0 {
			t.Errorf("%s is empty", path)
		}
	}
}
