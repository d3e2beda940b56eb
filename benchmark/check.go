package main

import (
	"fmt"
	"sync/atomic"

	"timingsubg/internal/graph"
	"timingsubg/internal/query"
)

// checker verifies every delivered match of one query against the
// benchmark's own copy of the stream, and folds the accepted matches
// into a count and an order-independent digest for the oracle
// comparison. It is used by one consumer goroutine at a time.
type checker struct {
	f   *feed
	q   *query.Query
	win int64
	// fed is the number of stream positions handed to the engine so
	// far; a match may only bind edges below it.
	fed *atomic.Int64

	count  int64
	digest uint64
	errs   int64
	first  error

	// seen holds the key hashes of recent matches in two generations,
	// rotated every 4 windows of stream positions: a duplicate delivery
	// is caught as long as it arrives within that horizon (a later one
	// still breaks the count/digest comparison with the oracle).
	seen, prev map[uint64]struct{}
	genEnd     int64

	vmap  map[query.VertexID]graph.VertexID
	vused map[graph.VertexID]query.VertexID
}

func newChecker(f *feed, q *query.Query, fed *atomic.Int64) *checker {
	return &checker{
		f: f, q: q, win: f.spec.window, fed: fed,
		seen: map[uint64]struct{}{}, prev: map[uint64]struct{}{},
		vmap: map[query.VertexID]graph.VertexID{}, vused: map[graph.VertexID]query.VertexID{},
	}
}

// observe checks one match given as its bound edges in query-edge
// order. vtx is the engine's vertex binding when the consumer has it
// (nil over the wire). vlabels says whether the edges carry vertex
// labels (the wire format does not). It records a failure instead of
// returning it, so a consumer keeps draining.
func (c *checker) observe(edges []graph.Edge, vtx []graph.VertexID, vlabels bool) {
	key, err := c.verify(edges, vtx, vlabels)
	if err != nil {
		c.fail(err)
		return
	}
	c.count++
	c.digest += key
}

// fail records one unsound delivery.
func (c *checker) fail(err error) {
	c.errs++
	if c.first == nil {
		c.first = err
	}
}

// verify runs the soundness checks and returns the match's digest key.
func (c *checker) verify(edges []graph.Edge, vtx []graph.VertexID, vlabels bool) (uint64, error) {
	q := c.q
	if len(edges) != q.NumEdges() {
		return 0, fmt.Errorf("match binds %d edges, query has %d", len(edges), q.NumEdges())
	}
	fed := c.fed.Load()
	var maxID int64 = -1
	minT, maxT := int64(1<<62), int64(-1<<62)
	for qe, d := range edges {
		id := int64(d.ID)
		if id < 0 || id >= fed {
			return 0, fmt.Errorf("query edge %d bound to edge %d, outside the %d edges fed", qe, id, fed)
		}
		s := c.f.edge(id)
		if d.From != s.From || d.To != s.To || d.EdgeLabel != s.EdgeLabel || d.Time != s.Time ||
			(vlabels && (d.FromLabel != s.FromLabel || d.ToLabel != s.ToLabel)) {
			return 0, fmt.Errorf("query edge %d: bound edge %v is not stream edge %v", qe, d, s)
		}
		if !q.MatchesData(query.EdgeID(qe), s) {
			return 0, fmt.Errorf("query edge %d: labels of edge %d do not match", qe, id)
		}
		maxID = max(maxID, id)
		minT, maxT = min(minT, int64(s.Time)), max(maxT, int64(s.Time))
	}
	clear(c.vmap)
	clear(c.vused)
	bind := func(qv query.VertexID, dv graph.VertexID) error {
		if prev, ok := c.vmap[qv]; ok && prev != dv {
			return fmt.Errorf("query vertex %d bound to both %d and %d", qv, prev, dv)
		}
		if other, ok := c.vused[dv]; ok && other != qv {
			return fmt.Errorf("query vertices %d and %d both bound to %d", other, qv, dv)
		}
		c.vmap[qv], c.vused[dv] = dv, qv
		return nil
	}
	for qe, d := range edges {
		e := q.Edge(query.EdgeID(qe))
		if err := bind(e.From, d.From); err != nil {
			return 0, err
		}
		if err := bind(e.To, d.To); err != nil {
			return 0, err
		}
	}
	if vtx != nil {
		for qv, dv := range vtx {
			if c.vmap[query.VertexID(qv)] != dv {
				return 0, fmt.Errorf("vertex binding %d→%d disagrees with the bound edges", qv, dv)
			}
		}
	}
	for _, p := range q.OrderPairs() {
		if edges[p[0]].Time >= edges[p[1]].Time {
			return 0, fmt.Errorf("timing order %d < %d violated", p[0], p[1])
		}
	}
	if maxT-minT >= c.win {
		return 0, fmt.Errorf("bound edges span %d time units, window is %d", maxT-minT, c.win)
	}
	abs := matchKey(edges, 0)
	if maxID >= c.genEnd {
		c.prev, c.seen = c.seen, c.prev
		clear(c.seen)
		c.genEnd = maxID + 4*c.win
	}
	if _, dup := c.seen[abs]; dup {
		return 0, fmt.Errorf("match %s delivered twice", keyString(edges))
	}
	if _, dup := c.prev[abs]; dup {
		return 0, fmt.Errorf("match %s delivered twice", keyString(edges))
	}
	c.seen[abs] = struct{}{}
	return c.key(edges, maxID), nil
}

// key hashes a match by its edge IDs taken relative to the round that
// holds its latest edge, so the same match in any later round hashes
// alike (the oracle tabulates rounds 0 and 1 only).
func (c *checker) key(edges []graph.Edge, maxID int64) uint64 {
	return matchKey(edges, maxID-maxID%int64(c.f.spec.length))
}

func matchKey(edges []graph.Edge, base int64) uint64 {
	h := uint64(0xcbf29ce484222325)
	for qe, d := range edges {
		h = splitmix(h ^ uint64(qe)<<56 ^ uint64(int64(d.ID)-base))
	}
	return h
}

func keyString(edges []graph.Edge) string {
	s := ""
	for qe, d := range edges {
		if qe > 0 {
			s += ","
		}
		s += fmt.Sprintf("%d=%d", qe, d.ID)
	}
	return s
}

// result is a checker's verdict against the oracle over positions
// [from, to).
func (c *checker) result(o *oracleQuery, length int, from, to int64) error {
	if c.first != nil {
		return fmt.Errorf("%d unsound matches, first: %w", c.errs, c.first)
	}
	wc, wd := o.expect(length, from, to)
	if c.count != wc || c.digest != wd {
		return fmt.Errorf("positions [%d,%d): got %d matches (digest %016x), oracle has %d (digest %016x)",
			from, to, c.count, c.digest, wc, wd)
	}
	return nil
}
