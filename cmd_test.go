package jitomev

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// CLI integration tests: every binary must work as documented. They run
// the actual `go run` commands a user would.

func runCmd(t *testing.T, args ...string) string {
	t.Helper()
	out, err := exec.Command("go", args...).CombinedOutput()
	if err != nil {
		t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return string(out)
}

func TestJitosimCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI tests run real studies")
	}
	out := runCmd(t, "run", "./cmd/jitosim", "-days", "4", "-scale", "20000", "-fig", "headline")
	for _, want := range []string{"H1", "H15", "paper: 521,903", "coverage"} {
		if !strings.Contains(out, want) {
			t.Errorf("jitosim output missing %q", want)
		}
	}
}

func TestJitosimCSVAndSave(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI tests run real studies")
	}
	dir := t.TempDir()
	csv := filepath.Join(dir, "series.csv")
	data := filepath.Join(dir, "data.snap")
	runCmd(t, "run", "./cmd/jitosim", "-days", "3", "-scale", "20000",
		"-fig", "headline", "-csv", csv, "-savedata", data)

	csvBytes, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(csvBytes), "day,len1") {
		t.Error("CSV header missing")
	}

	// The saved dataset must be loadable by cmd/report.
	out := runCmd(t, "run", "./cmd/report", "-load", data, "-fig", "headline")
	if !strings.Contains(out, "H1") {
		t.Error("report -load produced no headline")
	}
}

func TestReportTable1CLI(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI tests run real studies")
	}
	out := runCmd(t, "run", "./cmd/report", "-fig", "table1")
	for _, want := range []string{"ATTACKER", "NORMAL", "sandwich=true"} {
		if !strings.Contains(out, want) {
			t.Errorf("table1 output missing %q", want)
		}
	}
}

// TestExplorerdCollectPipeline runs the two daemons the way a user would:
// explorerd serves a generated study, collect scrapes it over HTTP.
func TestExplorerdCollectPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI tests run real studies")
	}
	// Pick a free port.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	// Pre-build so `go run` startup is fast and kill hits the real process.
	dir := t.TempDir()
	explorerd := filepath.Join(dir, "explorerd")
	runCmd(t, "build", "-o", explorerd, "./cmd/explorerd")

	srv := exec.Command(explorerd, "-addr", addr, "-days", "1", "-scale", "50000")
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		srv.Process.Kill()
		srv.Wait()
	}()

	// Wait for the server to accept connections.
	deadline := time.Now().Add(30 * time.Second)
	for {
		conn, err := net.Dial("tcp", addr)
		if err == nil {
			conn.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("explorerd did not come up")
		}
		time.Sleep(100 * time.Millisecond)
	}

	out := runCmd(t, "run", "./cmd/collect",
		"-url", fmt.Sprintf("http://%s", addr),
		"-polls", "3", "-every", "100ms", "-page", "500")
	for _, want := range []string{"bundles collected", "transaction details", "H1"} {
		if !strings.Contains(out, want) {
			t.Errorf("collect output missing %q:\n%s", want, out)
		}
	}
}

// TestCollectMergeWritesMemProfile: -memprofile is honoured by every
// collect mode, including -merge, which finishes before the polling
// loop ever starts.
func TestCollectMergeWritesMemProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI tests run real binaries")
	}
	dir := t.TempDir()
	mem := filepath.Join(dir, "mem.prof")
	runCmd(t, "run", "./cmd/collect", "-merge", "-save", filepath.Join(dir, "out.snap"),
		"-memprofile", mem, "internal/collector/testdata/v3-golden.snap")
	if fi, err := os.Stat(mem); err != nil {
		t.Fatal(err)
	} else if fi.Size() == 0 {
		t.Fatal("mem.prof is empty")
	}
}
