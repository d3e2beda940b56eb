package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"timingsubg/internal/graph"
	"timingsubg/internal/query"
)

// tinyFeed is a hand-made stream over which every soundness property
// can be broken with real stream edges:
//
//	#0 C→D follows   #1 A→B follows   #2 B→C follows   #3 B→C likes
//	#4 D→C follows   #5 B→A follows   #6..#19 E→F likes   #20 B→E follows
//
// against the query u0 -follows-> u1 -follows-> u2, edge 0 before edge
// 1, window 10.
func tinyFeed(t *testing.T) (*feed, *query.Query) {
	t.Helper()
	labels := graph.NewLabels()
	user, follows, likes := labels.Intern("user"), labels.Intern("follows"), labels.Intern("likes")
	const A, B, C, D, E, F = 1, 2, 3, 4, 5, 6
	e := func(from, to graph.VertexID, l graph.Label) graph.Edge {
		return graph.Edge{From: from, To: to, FromLabel: user, ToLabel: user, EdgeLabel: l}
	}
	base := []graph.Edge{e(C, D, follows), e(A, B, follows), e(B, C, follows), e(B, C, likes), e(D, C, follows), e(B, A, follows)}
	for len(base) < 20 {
		base = append(base, e(E, F, likes))
	}
	base = append(base, e(B, E, follows))
	text := "v 0 user\nv 1 user\nv 2 user\ne 0 1 follows\ne 1 2 follows\no 0 < 1\n"
	q, err := query.Parse(strings.NewReader(text), labels)
	if err != nil {
		t.Fatal(err)
	}
	s := &stream{spec: streamSpec{name: "tiny", window: 10, length: len(base)}, labels: labels, base: base,
		queries: []namedQuery{{name: "chain", text: text, q: q}}}
	return newFeed(s, 42), q
}

func TestSoundnessRejectsCorruptMatches(t *testing.T) {
	f, q := tinyFeed(t)
	bound := func(ids ...int64) []graph.Edge {
		var out []graph.Edge
		for _, id := range ids {
			out = append(out, f.edge(id))
		}
		return out
	}
	valid := bound(1, 2)
	fresh := func() *checker {
		var fed atomic.Int64
		fed.Store(int64(len(f.base)))
		return newChecker(f, q, &fed)
	}
	if _, err := fresh().verify(valid, nil, true); err != nil {
		t.Fatalf("a sound match was rejected: %v", err)
	}
	moved := bound(1, 2)
	moved[1].To++
	vtx := []graph.VertexID{valid[0].From, valid[0].To, valid[0].From}

	cases := []struct {
		name  string
		edges []graph.Edge
		vtx   []graph.VertexID
		want  string
	}{
		{"edge is not the stream edge with its ID", moved, nil, "is not stream edge"},
		{"edge ID never fed", append(bound(1), graph.Edge{ID: 25}), nil, "outside the"},
		{"edge label disagrees with the query", bound(1, 3), nil, "labels of edge"},
		{"query vertex bound twice", bound(1, 4), nil, "bound to both"},
		{"data vertex bound twice", bound(1, 5), nil, "both bound to"},
		{"vertex binding disagrees with the edges", valid, vtx, "disagrees with the bound edges"},
		{"timing order violated", bound(2, 0), nil, "timing order"},
		{"edges span the window", bound(1, 20), nil, "window is"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := fresh().verify(tc.edges, tc.vtx, true)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want an error containing %q", err, tc.want)
			}
		})
	}
	t.Run("match delivered twice", func(t *testing.T) {
		c := fresh()
		c.observe(valid, nil, true)
		c.observe(valid, nil, true)
		if c.count != 1 || c.errs != 1 || !strings.Contains(c.first.Error(), "delivered twice") {
			t.Fatalf("count %d errs %d first %v, want the second delivery rejected", c.count, c.errs, c.first)
		}
	})
}

// TestOracleAgreesWithEngine recomputes the oracle over a short prefix
// of each stream, checks it against the stored oracle file, and checks
// the engine's matches over the same prefix against both.
func TestOracleAgreesWithEngine(t *testing.T) {
	for _, tc := range []struct {
		spec streamSpec
		w    workload
		n    int64
	}{
		{socialStream, workloads[0], 4 * chunk},
		{flowStream, workloads[2], 8 * chunk},
	} {
		t.Run(tc.spec.name, func(t *testing.T) {
			s, err := loadStream(".", tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			stored, err := loadOracle(".", s)
			if err != nil {
				t.Fatal(err)
			}
			fresh := computeOracle(s, tc.n)
			for i := range stored.Queries {
				wc, wd := stored.Queries[i].expect(stored.Length, 0, tc.n)
				gc, gd := fresh.Queries[i].expect(fresh.Length, 0, tc.n)
				if wc != gc || wd != gd {
					t.Errorf("%s: stored oracle %d/%016x, recomputed %d/%016x", s.queries[i].name, wc, wd, gc, gd)
				}
			}
			var out outcome
			f := newFeed(s, 7)
			fl, err := newFacadeLane(tc.w, f, newClock())
			if err != nil {
				t.Fatal(err)
			}
			for p := int64(0); p < tc.n; p += chunk {
				if err := fl.feedChunk(p, &out); err != nil {
					t.Fatal(err)
				}
			}
			fl.finish(stored, tc.n, &out)
			for _, err := range out.errs {
				t.Error(err)
			}
		})
	}
}

var (
	tsservedOnce sync.Once
	tsservedPath string
	tsservedErr  error
)

func TestMain(m *testing.M) {
	code := m.Run()
	if tsservedPath != "" {
		os.RemoveAll(filepath.Dir(tsservedPath))
	}
	os.Exit(code)
}

func buildTsserved(t *testing.T) string {
	t.Helper()
	tsservedOnce.Do(func() {
		dir, err := os.MkdirTemp("", "tsbench-test")
		if err != nil {
			tsservedErr = err
			return
		}
		tsservedPath = filepath.Join(dir, "tsserved")
		out, err := exec.Command("go", "build", "-o", tsservedPath, "timingsubg/cmd/tsserved").CombinedOutput()
		if err != nil {
			tsservedErr = err
			t.Log(string(out))
		}
	})
	if tsservedErr != nil {
		t.Fatal(tsservedErr)
	}
	return tsservedPath
}

// TestSmoke runs every workload at the smoke size, plain and traced,
// and expects a correct run that reports every metric.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs take a few seconds each")
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			name := w.name
			if trace {
				name += "/trace"
			}
			t.Run(name, func(t *testing.T) {
				cfg := runConfig{dir: ".", work: t.TempDir(), seed: 3, seconds: 2, setups: 1, trace: trace}
				if w.wire {
					cfg.tsserved = buildTsserved(t)
				}
				res, err := runWorkload(w, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct %v, %d of %d operations failed", res.Correct, res.Failed, res.Attempted)
				}
				want := endToEnd
				if trace {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.name]
					if !ok || got.Unit != m.unit {
						t.Errorf("metric %s: got %+v, want unit %s", m.name, got, m.unit)
					}
					if !trace && got.Value <= 0 {
						t.Errorf("metric %s = %v, want > 0", m.name, got.Value)
					}
				}
			})
		}
	}
}
