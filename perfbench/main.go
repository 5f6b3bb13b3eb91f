// Command perfbench is the repository's benchmark. It runs one named
// workload against the system from outside — starting the repository's
// binaries and calling the public functions of its packages — checks
// that the outputs are correct, and prints every metric BENCHMARK.json
// declares as the last line of standard output:
//
//	perfbench --workload study-http --seed 3 --seconds 30 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// makes a separate traced run and prints the per-layer metrics. Layers a
// workload never reaches read 0 in its traced run. perfbench/run.sh
// builds this command and the explorer server from source and runs it
// from the root of a checkout; see perfbench/README.md.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricSpec is one metric declared in BENCHMARK.json.
type metricSpec struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json the benchmark reads: the
// metric catalogue it must fill.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// run is what one invocation learns about its workload: values by
// metric name, correctness, and operation counts.
type run struct {
	values    map[string]float64
	attempted int
	failed    int
	problems  []string
	params    any // the workload parameters, recorded in meta
}

func newRun() *run { return &run{values: map[string]float64{}} }

func (r *run) set(name string, v float64) { r.values[name] = v }

// fail records a correctness problem; the run then reports correct=false.
func (r *run) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

type config struct {
	root    string // checkout root
	bin     string // directory holding the built explorerd
	work    string // scratch directory inside the checkout
	seed    int64
	seconds float64
	trace   bool
	params  params
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		os.Exit(childMain(os.Args[2:]))
	}
	var (
		workload = flag.String("workload", "", "workload name from BENCHMARK.json")
		seed     = flag.Int64("seed", 1, "workload seed")
		seconds  = flag.Float64("seconds", 30, "measurement time")
		trace    = flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
		root     = flag.String("root", ".", "checkout root")
		bin      = flag.String("bin", "", "directory holding the built explorerd binary")
	)
	flag.Parse()
	if err := mainErr(*workload, *seed, *seconds, *trace == 1, *root, *bin); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(workload string, seed int64, seconds float64, trace bool, root, bin string) error {
	spec, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	p, err := loadParams(filepath.Join(root, "perfbench", "params.json"))
	if err != nil {
		return err
	}
	cfg := config{
		root: root, bin: bin, seed: seed, seconds: seconds, trace: trace, params: p,
		work: filepath.Join(root, ".bench_build", "work", fmt.Sprintf("%s-%d-%d", workload, seed, os.Getpid())),
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(cfg.work)

	var r *run
	switch workload {
	case "study-http":
		r, err = runStudy(cfg)
	case "serve-api":
		r, err = runServe(cfg)
	case "reanalyze":
		r, err = runReanalyze(cfg)
	default:
		return fmt.Errorf("unknown workload %q", workload)
	}
	if err != nil {
		return err
	}
	out, err := r.result(spec, trace)
	if err != nil {
		return err
	}
	meta := collectMeta(cfg, workload, r.params)
	for _, pr := range r.problems {
		fmt.Println("check failed:", pr)
	}
	metaJSON, _ := json.Marshal(meta)
	fmt.Println("meta", string(metaJSON))
	if err := writeRecord(cfg, workload, meta, out); err != nil {
		return err
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result maps the run's values onto the metrics of its mode. An
// end-to-end metric must be measured by every workload; a per-layer
// metric the workload's traced run never reached reads 0.
func (r *run) result(spec benchSpec, trace bool) (output, error) {
	catalogue, other := spec.EndToEnd, spec.PerLayer
	if trace {
		catalogue, other = other, catalogue
	}
	out := output{
		Correct:   len(r.problems) == 0 && r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricValue, len(catalogue)),
	}
	known := map[string]bool{}
	for _, m := range other {
		known[m.Name] = true
	}
	for _, m := range catalogue {
		known[m.Name] = true
		v, ok := r.values[m.Name]
		if !ok && !trace {
			return out, fmt.Errorf("end-to-end metric %s was not measured", m.Name)
		}
		out.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	for name := range r.values {
		if !known[name] {
			return out, fmt.Errorf("metric %s is not declared in BENCHMARK.json", name)
		}
	}
	if out.Attempted < 1 {
		return out, errors.New("no operation was attempted")
	}
	return out, nil
}

func loadSpec(path string) (benchSpec, error) {
	var s benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// meta describes the machine, the code and the inputs behind a result.
type meta struct {
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Nproc      string  `json:"nproc"`
	Commit     string  `json:"commit"`
	SourceSHA  string  `json:"source_sha256"`
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Params     any     `json:"params"`
	Time       string  `json:"time"`
}

func collectMeta(cfg config, workload string, params any) meta {
	return meta{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Nproc:      commandOutput(cfg.root, "nproc"),
		Commit:     commit(cfg.root),
		SourceSHA:  sourceDigest(cfg.root),
		Workload:   workload,
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Trace:      cfg.trace,
		Params:     params,
		Time:       time.Now().UTC().Format(time.RFC3339),
	}
}

// commandOutput runs a short command and returns its trimmed output, or
// "unknown" when it fails (a checkout need not be a git repository).
func commandOutput(dir string, name string, args ...string) string {
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	b, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// commit is the checkout's git commit, or "unknown" when the checkout is
// not the top of a git work tree.
func commit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unknown"
	}
	return commandOutput(root, "git", "rev-parse", "HEAD")
}

// sourceDigest hashes the repository's Go sources and module file, so a
// result names the code it measured even where there is no git history.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// writeRecord keeps the result with its meta block under
// .bench_build/results, one file per invocation.
func writeRecord(cfg config, workload string, m meta, out output) error {
	dir := filepath.Join(cfg.root, ".bench_build", "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(struct {
		Meta   meta   `json:"meta"`
		Result output `json:"result"`
	}{m, out}, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%t-%s.json", workload, cfg.seed, cfg.trace, time.Now().UTC().Format("20060102T150405.000"))
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}
