package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the steadiness command
// reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// quartiles returns Q1 and Q3 the way Python's
// statistics.quantiles(data, n=4) computes them (the default
// "exclusive" method).
func quartiles(xs []float64) (q1, q3 float64) {
	d := slices.Clone(xs)
	slices.Sort(d)
	ld := len(d)
	if ld < 2 {
		return d[0], d[0]
	}
	m := ld + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), ld-1)
		delta := float64(i*m - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q(1), q(3)
}

// steadyMain runs every workload of BENCHMARK.json n times for its
// run_seconds, with seeds seed..seed+n-1, alternating the workload
// order from one round to the next, and prints per metric the median,
// quartiles and (Q3−Q1)/median next to the bound in BENCHMARK.json.
func steadyMain(args []string) error {
	fs := flag.NewFlagSet("steady", flag.ContinueOnError)
	n := fs.Int("n", 10, "runs per workload")
	seed := fs.Int64("seed", 1, "first seed")
	benchPath := fs.String("bench", "BENCHMARK.json", "BENCHMARK.json path")
	dir := fs.String("dir", "benchmark", "benchmark directory")
	tsserved := fs.String("tsserved", "", "tsserved binary")
	work := fs.String("work", ".bench_build/work", "scratch directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	raw, err := os.ReadFile(*benchPath)
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("%s: %w", *benchPath, err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	type sample struct {
		metrics           map[string][]float64
		attempted, failed []int64
		incorrect         int
	}
	samples := map[string]*sample{}
	for _, name := range names {
		samples[name] = &sample{metrics: map[string][]float64{}}
	}
	for i := range *n {
		order := slices.Clone(names)
		if i%2 == 1 {
			slices.Reverse(order)
		}
		for _, name := range order {
			cmd := exec.Command(self, "run", "-workload", name, "-seed", strconv.FormatInt(*seed+int64(i), 10),
				"-seconds", strconv.Itoa(bf.RunSeconds), "-trace", "0", "-dir", *dir, "-tsserved", *tsserved, "-work", *work)
			var stdout bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s seed %d: %w", name, *seed+int64(i), err)
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return fmt.Errorf("%s: bad result line: %w", name, err)
			}
			s := samples[name]
			s.attempted = append(s.attempted, res.Attempted)
			s.failed = append(s.failed, res.Failed)
			if !res.Correct {
				s.incorrect++
			}
			var line []string
			for _, e := range bf.EndToEnd {
				v := res.Metrics[e.Name].Value
				s.metrics[e.Name] = append(s.metrics[e.Name], v)
				line = append(line, fmt.Sprintf("%s=%.4g", e.Name, v))
			}
			fmt.Fprintf(os.Stderr, "steady: run %d/%d %s: %s\n", i+1, *n, name, strings.Join(line, " "))
		}
	}
	for _, name := range names {
		s := samples[name]
		fmt.Printf("%s: %d runs, %d incorrect, failed/attempted %v/%v\n", name, *n, s.incorrect, s.failed, s.attempted)
		fmt.Printf("  %-16s %12s %12s %12s %8s %6s\n", "metric", "median", "q1", "q3", "spread", "bound")
		for _, e := range bf.EndToEnd {
			xs := s.metrics[e.Name]
			if len(xs) == 0 {
				fmt.Printf("  %-16s missing\n", e.Name)
				continue
			}
			q1, q3 := quartiles(xs)
			med := median(xs)
			flag := ""
			if (q3-q1)/med > e.Bound/3 {
				flag = "  > bound/3"
			}
			fmt.Printf("  %-16s %12.4f %12.4f %12.4f %8.4f %6.2f%s\n", e.Name, med, q1, q3, (q3-q1)/med, e.Bound, flag)
		}
	}
	return nil
}
