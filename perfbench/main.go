// Command perfbench is BcWAN's benchmark: it drives one fair exchange
// (paper Fig. 3) through the deployable daemons, on-chain and through a
// payment channel, plus the city-scale radio simulation and a cold
// catch-up of exchange blocks, and prints end-to-end metrics (untraced
// run) or per-layer metrics (traced run) as one JSON object on its last
// line. See README.md for the workloads and what each metric means.
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	perfbench --workload onchain --seed 1 --seconds 15 --trace 0
//	perfbench -agree set1.jsonl set2.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// benchmarkSpec is BENCHMARK.json: the workloads and metrics this
// program must report, with their units and regression bounds.
type benchmarkSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []e2eMetric    `json:"end_to_end"`
	PerLayer   []layerMetric  `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type e2eMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (*benchmarkSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	window  time.Duration
	trace   bool
	workDir string
}

// outcome is what a workload measured. metrics holds end-to-end
// figures in an untraced run and per-layer figures in a traced one;
// report holds the same figures under the names a reader of the paper
// would use, for the human-readable lines.
type outcome struct {
	attempted, failed int
	problems          []string // failed output checks
	metrics           map[string]float64
	report            []reportLine
	spans             []span
	cpuProfile        []byte
}

type reportLine struct {
	name  string
	value float64
	unit  string
	note  string
}

func (o *outcome) line(name string, value float64, unit, note string) {
	o.report = append(o.report, reportLine{name, value, unit, note})
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"onchain": func(c runConfig) (*outcome, error) { return runExchange(c, false) },
	"channel": func(c runConfig) (*outcome, error) { return runExchange(c, true) },
	"city":    runCity,
	"catchup": runCatchup,
}

// metricValue and result are the JSON shape of the last output line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: onchain, channel, city or catchup")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "length of the measured window in seconds")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics; 0 = end-to-end metrics")
	specPath := flag.String("bench", "BENCHMARK.json", "benchmark description naming the metrics to report")
	workDir := flag.String("workdir", filepath.Join(".bench_build", "perfbench"), "directory for data dirs, the trace and the CPU profile")
	agreeMode := flag.Bool("agree", false, "check two sets of results (JSONL files given as arguments) against the bounds")
	flag.Parse()

	spec, err := loadSpec(*specPath)
	if err != nil {
		fatal(err)
	}
	if *agreeMode {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-agree needs two JSONL result files"))
		}
		ok, err := agreeFiles(os.Stdout, spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	run, ok := workloads[*workload]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *workload))
	}
	if *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fatal(fmt.Errorf("need --seconds > 0 and --trace 0 or 1"))
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fatal(err)
	}
	cfg := runConfig{
		seed:    *seed,
		window:  time.Duration(*seconds * float64(time.Second)),
		trace:   *traceFlag == 1,
		workDir: *workDir,
	}
	out, err := run(cfg)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", *workload, err))
	}
	res, err := assemble(spec, out, cfg.trace)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", *workload, err))
	}

	env := map[string]any{
		"workload":   *workload,
		"seed":       *seed,
		"seconds":    *seconds,
		"trace":      cfg.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
	}
	if cfg.trace {
		base := filepath.Join(*workDir, fmt.Sprintf("%s-seed%d", *workload, *seed))
		if err := writeChromeTrace(base+".trace.json", out.spans, env); err != nil {
			fatal(err)
		}
		if err := os.WriteFile(base+".cpu.pprof", out.cpuProfile, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("trace: %s.trace.json (%d spans), cpu profile: %s.cpu.pprof\n", base, len(out.spans), base)
	}
	units := make(map[string]string)
	for _, m := range spec.PerLayer {
		units[m.Name] = m.Unit
	}
	for _, l := range out.report {
		if l.unit == "" {
			l.unit = units[l.name]
		}
		fmt.Printf("%-8s %-30s %14.4f %-8s %s\n", *workload, l.name, l.value, l.unit, l.note)
	}
	for _, p := range out.problems {
		fmt.Printf("CHECK FAILED: %s\n", p)
	}
	envLine, _ := json.Marshal(env)
	fmt.Printf("env: %s\n", envLine)
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// assemble checks the workload's metrics against BENCHMARK.json and
// builds the result: every end-to-end metric in an untraced run, every
// per-layer metric in a traced one. A per-layer metric a workload does
// not exercise reads 0 (README.md lists which apply where).
func assemble(spec *benchmarkSpec, out *outcome, trace bool) (*result, error) {
	res := &result{
		Correct:   len(out.problems) == 0 && out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue),
	}
	known := make(map[string]string)
	if trace {
		for _, m := range spec.PerLayer {
			known[m.Name] = m.Unit
			res.Metrics[m.Name] = metricValue{Value: out.metrics[m.Name], Unit: m.Unit}
		}
	} else {
		for _, m := range spec.EndToEnd {
			known[m.Name] = m.Unit
			v, ok := out.metrics[m.Name]
			if !ok {
				return nil, fmt.Errorf("end-to-end metric %s was not measured", m.Name)
			}
			res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		}
	}
	var unknown []string
	for name := range out.metrics {
		if _, ok := known[name]; !ok {
			unknown = append(unknown, name)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return nil, fmt.Errorf("metrics missing from BENCHMARK.json: %s", strings.Join(unknown, ", "))
	}
	return res, nil
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}
