package main

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"timingsubg/internal/datagen"
	"timingsubg/internal/graph"
	"timingsubg/internal/query"
)

// chunk is the granularity of every feed loop and of the oracle's
// tables: runs stop only at chunk boundaries, so the expected match
// count and digest of any run is a sum of whole oracle chunks.
const chunk = 1024

// streamSpec pins one generated base stream. Its shape is fixed (the
// oracle's stored answer is for exactly this graph); a run's --seed
// relabels its vertices and shifts its clock (see newFeed).
type streamSpec struct {
	name     string
	dataset  datagen.Dataset
	vertices int
	genSeed  int64
	window   int64
	// length is the number of edges in one round. A run replays the
	// round with fresh timestamps for as long as it needs edges; the
	// window is far shorter than a round, so every round after the
	// first sees the same state and completes the same matches, and
	// any round-long span of the stream past the first window costs
	// the same work.
	length  int
	queries []string // query files under queries/
}

var (
	socialStream = streamSpec{
		name: "social", dataset: datagen.SocialStream, vertices: 500, genSeed: 11,
		window: 5000, length: 16 * chunk, queries: []string{"social-cycle4"},
	}
	flowStream = streamSpec{
		name: "flow", dataset: datagen.NetworkFlow, vertices: 2000, genSeed: 12,
		window: 4000, length: 16 * chunk,
		queries: []string{"flow-ssh", "flow-smtp", "flow-http", "flow-https", "flow-dns", "flow-proxy"},
	}
)

// workload is one named benchmark configuration.
type workload struct {
	name   string
	stream streamSpec
	// batch is the number of edges per FeedBatch call or POST.
	batch int
	// pacedRate is the paced phase's offered load in edges/s, about 40%
	// of the saturation rate measured on a 2-core machine.
	pacedRate float64
	// workers > 1 runs the engine with the Section V lock scheduler.
	workers int
	wire    bool
}

var workloads = []workload{
	{name: "social-join", stream: socialStream, batch: 512, pacedRate: 18000},
	{name: "social-concurrent", stream: socialStream, batch: 512, pacedRate: 13000, workers: 2},
	{name: "wire-durable", stream: flowStream, batch: 1024, pacedRate: 40000, wire: true},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// namedQuery is one compiled query with the text it came from.
type namedQuery struct {
	name string
	text string
	q    *query.Query
}

// stream is a generated base round plus its compiled queries, sharing
// one label table.
type stream struct {
	spec    streamSpec
	labels  *graph.Labels
	base    []graph.Edge // one round, IDs = positions, Time = position+1
	queries []namedQuery
	digest  string // fingerprint of base, recorded with the oracle
}

// loadStream generates spec's base round and parses its queries from
// dir/queries.
func loadStream(dir string, spec streamSpec) (*stream, error) {
	labels := graph.NewLabels()
	gen := datagen.New(spec.dataset, labels, datagen.Config{Vertices: spec.vertices, Seed: spec.genSeed})
	s := &stream{spec: spec, labels: labels, base: gen.Take(spec.length)}
	h := fnv.New64a()
	for _, e := range s.base {
		fmt.Fprintf(h, "%d %d %s %s %s\n", e.From, e.To,
			labels.String(e.FromLabel), labels.String(e.ToLabel), labels.String(e.EdgeLabel))
	}
	s.digest = fmt.Sprintf("%016x", h.Sum64())
	for _, name := range spec.queries {
		text, err := os.ReadFile(filepath.Join(dir, "queries", name+".q"))
		if err != nil {
			return nil, err
		}
		q, err := query.Parse(strings.NewReader(string(text)), labels)
		if err != nil {
			return nil, fmt.Errorf("query %s: %w", name, err)
		}
		s.queries = append(s.queries, namedQuery{name: name, text: string(text), q: q})
	}
	sort.Slice(s.queries, func(i, j int) bool { return s.queries[i].name < s.queries[j].name })
	return s, nil
}

func (s *stream) queryIndex(name string) int {
	for i, q := range s.queries {
		if q.name == name {
			return i
		}
	}
	return -1
}

// feed is one run's view of a stream: the base round relabeled by the
// run's seed. Edge p of the run (p counts from 0 across rounds) is
// base edge p mod length with vertices permuted and Time = t0 + p + 1,
// so its engine-assigned ID is p.
type feed struct {
	*stream
	round []graph.Edge // relabeled base round; Time/ID set per position
	t0    int64
}

func newFeed(s *stream, seed int64) *feed {
	f := &feed{stream: s, round: make([]graph.Edge, len(s.base))}
	key := uint32(splitmix(uint64(seed)))
	for i, e := range s.base {
		e.From = graph.VertexID(permute(uint32(e.From), key))
		e.To = graph.VertexID(permute(uint32(e.To), key))
		f.round[i] = e
	}
	f.t0 = 1_000_000 * (1 + int64(splitmix(uint64(seed)^0x5eed)%1000))
	return f
}

// edge returns stream position p as the engine will store it.
func (f *feed) edge(p int64) graph.Edge {
	e := f.round[p%int64(len(f.round))]
	e.ID = graph.EdgeID(p)
	e.Time = graph.Timestamp(f.t0 + p + 1)
	return e
}

// fill writes positions [p, p+len(buf)) into buf.
func (f *feed) fill(buf []graph.Edge, p int64) {
	for i := range buf {
		buf[i] = f.edge(p + int64(i))
	}
}

// permute is a bijection on uint32 keyed by key: every step (xor with a
// constant, odd multiply, xor-shift) is invertible, so distinct vertices
// stay distinct and every match of the base stream maps to exactly one
// match of the relabeled stream.
func permute(v, key uint32) uint32 {
	v ^= key
	v *= 0x9e3779b1
	v ^= v >> 15
	v *= 0x85ebca77
	v ^= v >> 13
	return v
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
