package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the end-to-end metrics every workload reports, with
// their units, in BENCHMARK.json order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"edges_per_s", "1/s"},
	{"cpu_us_per_edge", "us"},
	{"peak_rss_mb", "MB"},
	{"detect_p50_ms", "ms"},
	{"ack_p50_ms", "ms"},
}

// runConfig is one run's shape. A run sets up nine times; the
// benchmark's own test runs the smoke size, which covers every code
// path of a workload in a few seconds: one set-up and one-second
// phases.
type runConfig struct {
	dir      string // benchmark directory (queries/, oracle/)
	work     string // scratch directory for this run (WAL, logs)
	tsserved string // tsserved binary (wire-durable)
	seed     int64
	seconds  float64
	setups   int
	trace    bool
}

// phases splits the measured time: half saturation, half paced.
func (c runConfig) phases() (sat, paced time.Duration) {
	d := time.Duration(c.seconds * float64(time.Second))
	return d / 2, d / 2
}

// outcome accumulates a run's operation ledger and the reason it is
// not correct, if any.
type outcome struct {
	attempted, failed int64
	errs              []error
}

func (o *outcome) fail(err error) {
	if err != nil {
		o.errs = append(o.errs, err)
	}
}

func runMain(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "measured seconds (half saturation, half paced)")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	dir := fs.String("dir", "benchmark", "benchmark directory")
	work := fs.String("work", filepath.Join(".bench_build", "work"), "scratch directory")
	tsserved := fs.String("tsserved", "", "tsserved binary (wire-durable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	cfg := runConfig{dir: *dir, tsserved: *tsserved, seed: *seed, seconds: *seconds, setups: 9, trace: *trace == 1}
	if cfg.seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	cfg.work = filepath.Join(*work, fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(cfg.work)

	steal0 := readSteal()
	res, err := runWorkload(w, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "tsbench: %s: hypervisor steal during the run: %.1f%% of CPU time\n", w.name, steal0.since())
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runWorkload loads the stream and oracle and dispatches to the
// workload's driver.
func runWorkload(w workload, cfg runConfig) (*result, error) {
	s, err := loadStream(cfg.dir, w.stream)
	if err != nil {
		return nil, err
	}
	o, err := loadOracle(cfg.dir, s)
	if err != nil {
		return nil, err
	}
	f := newFeed(s, cfg.seed)
	var (
		out     outcome
		metrics map[string]metric
	)
	switch {
	case w.wire:
		metrics, err = runWire(w, f, o, cfg, &out)
	case cfg.trace:
		metrics, err = traceInproc(w, f, o, cfg, &out)
	default:
		metrics, err = runInproc(w, f, o, cfg, &out)
	}
	if err != nil {
		return nil, err
	}
	for _, e := range out.errs {
		fmt.Fprintf(os.Stderr, "tsbench: %s: check failed: %v\n", w.name, e)
	}
	if cfg.trace {
		metrics = withAllLayers(metrics)
	}
	return &result{Correct: len(out.errs) == 0, Attempted: out.attempted, Failed: out.failed, Metrics: metrics}, nil
}

// quantile returns the q-quantile of xs by linear interpolation
// between order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// setupMetric is setup_s: the median of a run's set-ups, each of which
// it logs.
func setupMetric(name string, setups []float64) metric {
	ms := make([]string, len(setups))
	for i, s := range setups {
		ms[i] = strconv.FormatFloat(s*1e3, 'f', 1, 64)
	}
	fmt.Fprintf(os.Stderr, "tsbench: %s: set-ups %s ms\n", name, strings.Join(ms, " "))
	return metric{median(setups), "s"}
}

// nsToMs converts nanosecond samples to milliseconds.
func nsToMs(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e6
	}
	return out
}

// selfCPU returns this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// selfPeakRSSMB returns this process's high-water RSS in MB.
func selfPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// stealSample is the machine-wide CPU time and the part of it the
// hypervisor gave to other guests, from /proc/stat. Steal explains slow
// or spread-out runs that no change to the program caused.
type stealSample struct{ steal, total int64 }

func readSteal() stealSample {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return stealSample{}
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	var s stealSample
	for i, x := range f[1:] {
		v, _ := strconv.ParseInt(x, 10, 64)
		s.total += v
		if i == 7 {
			s.steal = v
		}
	}
	return s
}

// since returns the steal share of CPU time since s, in percent.
func (s stealSample) since() float64 {
	now := readSteal()
	if now.total == s.total {
		return 0
	}
	return 100 * float64(now.steal-s.steal) / float64(now.total-s.total)
}
