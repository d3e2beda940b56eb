package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"timingsubg/internal/baseline/incmat"
	"timingsubg/internal/graph"
	"timingsubg/internal/iso"
	"timingsubg/internal/match"
)

// oracleFile is the independent oracle's answer for one stream: per
// query and per chunk of stream positions, how many matches have their
// latest edge in that chunk and the sum of their keys. Rounds 0 and 1
// are tabulated; every later round repeats round 1.
type oracleFile struct {
	Stream       string        `json:"stream"`
	Dataset      string        `json:"dataset"`
	Vertices     int           `json:"vertices"`
	GenSeed      int64         `json:"gen_seed"`
	Window       int64         `json:"window"`
	Length       int           `json:"length"`
	Chunk        int           `json:"chunk"`
	StreamDigest string        `json:"stream_digest"`
	Algorithm    string        `json:"algorithm"`
	Queries      []oracleQuery `json:"queries"`
}

type oracleQuery struct {
	Name       string      `json:"name"`
	TextDigest string      `json:"text_digest"`
	Count      [2][]int64  `json:"count"`
	Digest     [2][]string `json:"digest"`
	digest     [2][]uint64
}

// expect sums the oracle's chunks over stream positions [from, to);
// both ends are chunk-aligned.
func (o *oracleQuery) expect(length int, from, to int64) (int64, uint64) {
	per := int64(length / chunk)
	var n int64
	var d uint64
	for k := from / chunk; k < to/chunk; k++ {
		r, c := min(k/per, 1), k%per
		n += o.Count[r][c]
		d += o.digest[r][c]
	}
	return n, d
}

func textDigest(text string) string {
	h := fnv.New64a()
	h.Write([]byte(text))
	return fmt.Sprintf("%016x", h.Sum64())
}

func oraclePath(dir, stream string) string {
	return filepath.Join(dir, "oracle", stream+".json")
}

// loadOracle reads the stored oracle for s and refuses it if the
// stream or a query changed since it was computed.
func loadOracle(dir string, s *stream) (*oracleFile, error) {
	raw, err := os.ReadFile(oraclePath(dir, s.spec.name))
	if err != nil {
		return nil, fmt.Errorf("oracle: %w (run the oracle command)", err)
	}
	var o oracleFile
	if err := json.Unmarshal(raw, &o); err != nil {
		return nil, fmt.Errorf("oracle %s: %w", s.spec.name, err)
	}
	if o.StreamDigest != s.digest || o.Length != s.spec.length || o.Window != s.spec.window || o.Chunk != chunk {
		return nil, fmt.Errorf("oracle %s is stale: the stream changed since it was computed", s.spec.name)
	}
	if len(o.Queries) != len(s.queries) {
		return nil, fmt.Errorf("oracle %s is stale: it has %d queries, the stream %d", s.spec.name, len(o.Queries), len(s.queries))
	}
	for i := range o.Queries {
		oq := &o.Queries[i]
		if oq.Name != s.queries[i].name || oq.TextDigest != textDigest(s.queries[i].text) {
			return nil, fmt.Errorf("oracle %s is stale for query %s", s.spec.name, s.queries[i].name)
		}
		for r := range 2 {
			oq.digest[r] = make([]uint64, len(oq.Digest[r]))
			for c, h := range oq.Digest[r] {
				if oq.digest[r][c], err = strconv.ParseUint(h, 16, 64); err != nil {
					return nil, fmt.Errorf("oracle %s: %w", s.spec.name, err)
				}
			}
		}
	}
	return &o, nil
}

// oracleJobs is how many queries the oracle computes at once.
const oracleJobs = 2

// computeOracle runs IncMat (TurboISO over the affected area) — which
// shares no code with core, explist or mstree — over the first n
// positions of s, one query per goroutine, oracleJobs at a time.
func computeOracle(s *stream, n int64) *oracleFile {
	per := s.spec.length / chunk
	o := &oracleFile{
		Stream: s.spec.name, Dataset: s.spec.dataset.String(), Vertices: s.spec.vertices,
		GenSeed: s.spec.genSeed, Window: s.spec.window, Length: s.spec.length, Chunk: chunk,
		StreamDigest: s.digest, Algorithm: "incmat/turboiso",
		Queries: make([]oracleQuery, len(s.queries)),
	}
	f := newFeed(s, 0)
	sem := make(chan struct{}, oracleJobs)
	var wg sync.WaitGroup
	for i, nq := range s.queries {
		oq := &o.Queries[i]
		oq.Name, oq.TextDigest = nq.name, textDigest(nq.text)
		for r := range 2 {
			oq.Count[r] = make([]int64, per)
			oq.digest[r] = make([]uint64, per)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			im := incmat.New(nq.q, iso.TurboISO, func(m *match.Match) {
				maxID := int64(-1)
				for _, d := range m.Edges {
					maxID = max(maxID, int64(d.ID))
				}
				k := maxID / chunk
				r, c := min(k/int64(per), 1), k%int64(per)
				oq.Count[r][c]++
				oq.digest[r][c] += matchKey(m.Edges, maxID-maxID%int64(s.spec.length))
			})
			win := graph.NewStream(graph.Timestamp(s.spec.window))
			for p := range n {
				stored, expired, err := win.Push(f.edge(p))
				if err != nil {
					panic(err)
				}
				im.Process(stored, expired)
			}
		}()
	}
	wg.Wait()
	for i := range o.Queries {
		oq := &o.Queries[i]
		for r := range 2 {
			oq.Digest[r] = make([]string, per)
			for c, d := range oq.digest[r] {
				oq.Digest[r][c] = fmt.Sprintf("%016x", d)
			}
		}
	}
	return o
}

// oracleMain is the oracle command: it recomputes and stores the
// expected answers of every stream the workloads use.
func oracleMain(args []string) error {
	fs := flag.NewFlagSet("oracle", flag.ContinueOnError)
	dir := fs.String("dir", "benchmark", "benchmark directory (holds queries/ and oracle/)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	for _, spec := range []streamSpec{socialStream, flowStream} {
		s, err := loadStream(*dir, spec)
		if err != nil {
			return err
		}
		start := time.Now()
		o := computeOracle(s, 2*int64(spec.length))
		raw, err := json.Marshal(o)
		if err != nil {
			return err
		}
		if err := os.WriteFile(oraclePath(*dir, spec.name), append(raw, '\n'), 0o644); err != nil {
			return err
		}
		for _, oq := range o.Queries {
			c, _ := oq.expect(spec.length, 0, 2*int64(spec.length))
			fmt.Fprintf(os.Stderr, "oracle %s/%s: %d matches over 2 rounds\n", spec.name, oq.Name, c)
		}
		fmt.Fprintf(os.Stderr, "oracle %s: %v\n", spec.name, time.Since(start).Round(time.Second))
	}
	return nil
}
