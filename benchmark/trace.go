package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"time"

	"timingsubg"
	"timingsubg/client"
	"timingsubg/internal/core"
	"timingsubg/internal/graph"
	"timingsubg/internal/match"
)

// perLayer lists every per-layer metric with its unit, in
// BENCHMARK.json order. A traced run reports all of them; a metric
// whose layer the workload does not exercise reads 0.
var perLayer = []struct{ name, unit string }{
	{"graph.push_us_per_edge", "us"},
	{"core.insert_us_per_edge", "us"},
	{"core.expiry_us_per_edge", "us"},
	{"core.partials_per_edge", "count"},
	{"core.matches_per_edge", "count"},
	{"core.candidates_per_edge", "count"},
	{"core.join_yield", "ratio"},
	{"core.ns_per_partial", "ns"},
	{"core.ns_per_match", "ns"},
	{"core.bytes_per_partial", "B"},
	{"core.allocs_per_edge", "count"},
	{"mstree.live_partials", "count"},
	{"mstree.space_mb", "MB"},
	{"lock.submit_us_per_edge", "us"},
	{"lock.drain_ms", "ms"},
	{"dispatch.delivered_per_edge", "count"},
	{"dispatch.dropped", "count"},
	{"dispatch.stage_us_p50", "us"},
	{"facade.overhead_us_per_edge", "us"},
	{"server.post_ms_p50", "ms"},
	{"server.overhead_us_per_edge", "us"},
	{"server.sse_us_p50", "us"},
	{"wal.append_us_p50", "us"},
	{"wal.sync_us_p50", "us"},
	{"wal.group_commit_us_p50", "us"},
	{"wal.syncs_per_post", "count"},
	{"wal.bytes_per_edge", "B"},
	{"recovery.listen_s", "s"},
	{"recovery.replay_s", "s"},
	{"recovery.replayed_edges", "count"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"runtime.gc_cycles_per_kedge", "count"},
}

// withAllLayers returns exactly the per-layer metrics, 0 for those a
// workload's traced run did not measure.
func withAllLayers(got map[string]metric) map[string]metric {
	out := make(map[string]metric, len(perLayer))
	for _, l := range perLayer {
		v := got[l.name]
		out[l.name] = metric{v.Value, l.unit}
	}
	return out
}

// spanKind names one traced layer call.
type spanKind int

const (
	spanPush spanKind = iota
	spanInsert
	spanExpiry
	spanEmit
	spanSubmit
	spanDrain
	spanFeed
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"graph.push", "core.insert", "core.expiry", "core.emit", "lock.submit", "lock.drain", "facade.feed"}

// span is one traced call: its layer function, its start and end on
// the run's clock, and the index of the enclosing span (-1 at top
// level).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// tracer records spans around calls into each layer's public
// functions. It keeps the first keptSpans spans verbatim and folds
// every span into per-kind totals of inclusive time and of self time
// (inclusive minus the enclosed spans).
type tracer struct {
	clk   clock
	keep  []span
	stack []frame
	self  [numSpanKinds]int64
	incl  [numSpanKinds]int64
}

type frame struct {
	kind         spanKind
	start, child int64
	idx          int
}

const keptSpans = 4096

func newTracer(clk clock) *tracer { return &tracer{clk: clk} }

func (t *tracer) begin(k spanKind) {
	idx := -1
	if len(t.keep) < keptSpans {
		parent := -1
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1].idx
		}
		idx = len(t.keep)
		t.keep = append(t.keep, span{Name: spanNames[k], Parent: parent})
	}
	t.stack = append(t.stack, frame{kind: k, idx: idx, start: t.clk.now()})
}

func (t *tracer) end() {
	now := t.clk.now()
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	d := now - f.start
	t.self[f.kind] += d - f.child
	t.incl[f.kind] += d
	if f.idx >= 0 {
		t.keep[f.idx].Start, t.keep[f.idx].End = f.start, now
	}
	if n := len(t.stack); n > 0 {
		t.stack[n-1].child += d
	}
}

// spanCostNs measures what one begin/end pair costs, to state the
// tracing overhead next to the figures it distorts.
func spanCostNs(clk clock) float64 {
	t := newTracer(clk)
	t.keep = make([]span, keptSpans) // measure the aggregate-only path
	const n = 100000
	start := clk.now()
	for range n {
		t.begin(spanPush)
		t.end()
	}
	return float64(clk.now()-start) / n
}

// writeSpans saves the kept spans of a traced run.
func (t *tracer) writeSpans(dir, name string) {
	raw, err := json.Marshal(t.keep)
	if err == nil {
		err = os.WriteFile(filepath.Join(dir, "spans-"+name+".json"), raw, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tsbench: spans:", err)
	}
}

// directResult is what a direct lane measured.
type directResult struct {
	edges                 int64
	push, insert, expiry  int64 // ns; insert and expiry exclude the match callback
	partials, matches     int64
	candidates            int64
	allocBytes, allocs    uint64
	livePartials, spaceMB []float64
	submitNs              int64
	drainMs               []float64
}

// directLane re-drives the stream through graph.Stream and one
// core.Engine per query, as the façade does, with a span around every
// layer call. With workers > 1 the engine runs under core.Parallel
// instead: each edge is a ProcessBatch submission and each batch ends
// with a Wait.
type directLane struct {
	f       *feed
	tr      *tracer
	batch   int
	win     *graph.Stream
	engines []*core.Engine
	fed     atomic.Int64
	checks  []*checker
	par     *core.Parallel
	res     directResult
	allocs  []metrics.Sample
}

func newDirectLane(f *feed, workers, batch int, clk clock) *directLane {
	l := &directLane{f: f, tr: newTracer(clk), batch: batch, win: graph.NewStream(graph.Timestamp(f.spec.window)),
		allocs: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}}
	for _, nq := range f.queries {
		c := newChecker(f, nq.q, &l.fed)
		l.checks = append(l.checks, c)
		l.engines = append(l.engines, core.New(nq.q, core.Config{OnMatch: func(m *match.Match) {
			// Under core.Parallel the callback runs on a worker (serialized
			// by the engine) while the producer holds the tracer, so only
			// the sequential lane traces it.
			if l.par != nil {
				c.observe(m.Edges, m.Vtx, true)
				return
			}
			l.tr.begin(spanEmit)
			c.observe(m.Edges, m.Vtx, true)
			l.tr.end()
		}}))
	}
	if workers > 1 {
		l.par = core.NewParallel(l.engines[0], core.FineGrained, workers)
	}
	return l
}

// feedChunk feeds positions [p, p+chunk).
func (l *directLane) feedChunk(p int64) error {
	tr := l.tr
	l.fed.Store(p + chunk)
	metrics.Read(l.allocs)
	b0, o0 := l.allocs[0].Value.Uint64(), l.allocs[1].Value.Uint64()
	for range chunk / l.batch {
		for i := range l.batch {
			tr.begin(spanPush)
			stored, expired, err := l.win.Push(l.f.edge(p + int64(i)))
			tr.end()
			if err != nil {
				return err
			}
			if l.par != nil {
				tr.begin(spanSubmit)
				l.par.ProcessBatch(stored, expired)
				tr.end()
				continue
			}
			for _, eng := range l.engines {
				if len(expired) > 0 {
					tr.begin(spanExpiry)
					eng.DeleteBatch(expired)
					tr.end()
				}
				tr.begin(spanInsert)
				eng.Insert(stored)
				tr.end()
			}
		}
		if l.par != nil {
			d0 := tr.clk.now()
			tr.begin(spanDrain)
			l.par.Wait()
			tr.end()
			l.res.drainMs = append(l.res.drainMs, float64(tr.clk.now()-d0)/1e6)
		}
		p += int64(l.batch)
	}
	metrics.Read(l.allocs)
	l.res.allocBytes += l.allocs[0].Value.Uint64() - b0
	l.res.allocs += l.allocs[1].Value.Uint64() - o0
	var live, space int64
	for _, eng := range l.engines {
		live += eng.PartialMatchCount()
		space += eng.SpaceBytes()
	}
	l.res.livePartials = append(l.res.livePartials, float64(live))
	l.res.spaceMB = append(l.res.spaceMB, float64(space)/1e6)
	l.res.edges = p
	return nil
}

// finish checks the lane's matches over the positions it fed against
// the oracle and returns its measurements.
func (l *directLane) finish(o *oracleFile, out *outcome) directResult {
	res := l.res
	res.push, res.insert, res.expiry = l.tr.incl[spanPush], l.tr.self[spanInsert], l.tr.self[spanExpiry]
	res.submitNs = l.tr.incl[spanSubmit]
	what := "direct lane"
	if l.par != nil {
		l.par.Wait()
		what = "parallel direct lane"
	}
	for i, eng := range l.engines {
		st := eng.Stats()
		res.partials += st.PartialIns.Load()
		res.matches += st.Matches.Load()
		res.candidates += st.JoinCandidates.Load()
		if err := l.checks[i].result(&o.Queries[i], o.Length, 0, res.edges); err != nil {
			out.fail(fmt.Errorf("%s %s: %w", what, l.f.queries[i].name, err))
		}
	}
	return res
}

// facadeResult is what the façade lane measured.
type facadeResult struct {
	feedNs int64
	stats  timingsubg.Stats
}

// facadeLane feeds the stream through timingsubg.Open with a blocking
// subscription whose consumer runs the soundness check.
type facadeLane struct {
	w      workload
	f      *feed
	tr     *tracer
	eng    timingsubg.Engine
	sub    *timingsubg.Subscription
	buf    []timingsubg.Edge
	fed    atomic.Int64
	recv   atomic.Int64
	checks []*checker
	done   chan struct{}
}

func newFacadeLane(w workload, f *feed, clk clock) (*facadeLane, error) {
	cfg := timingsubg.Config{Window: timingsubg.Timestamp(f.spec.window), Workers: w.workers}
	if len(f.queries) == 1 {
		cfg.Query = f.queries[0].q
	} else {
		for _, nq := range f.queries {
			cfg.Queries = append(cfg.Queries, timingsubg.QuerySpec{Name: nq.name, Query: nq.q})
		}
	}
	eng, err := timingsubg.Open(cfg)
	if err != nil {
		return nil, err
	}
	sub, err := eng.Subscribe(timingsubg.SubscribeOptions{Buffer: 1024, Policy: timingsubg.Block})
	if err != nil {
		eng.Close()
		return nil, err
	}
	l := &facadeLane{w: w, f: f, tr: newTracer(clk), eng: eng, sub: sub, buf: make([]timingsubg.Edge, w.batch), done: make(chan struct{})}
	for _, nq := range f.queries {
		l.checks = append(l.checks, newChecker(f, nq.q, &l.fed))
	}
	go func() {
		defer close(l.done)
		for dv := range sub.C() {
			qi := 0
			if dv.Query != "" {
				qi = f.queryIndex(dv.Query)
			}
			l.checks[max(qi, 0)].observe(dv.Match.Edges, dv.Match.Vtx, true)
			l.recv.Add(1)
		}
	}()
	return l, nil
}

// feedChunk feeds positions [p, p+chunk) and waits until the consumer
// holds every match delivered so far, so its work does not run into
// the next lane's chunk.
func (l *facadeLane) feedChunk(p int64, out *outcome) error {
	for q := p; q < p+chunk; q += int64(l.w.batch) {
		l.f.fill(l.buf, q)
		l.fed.Store(q + int64(l.w.batch))
		out.attempted++
		l.tr.begin(spanFeed)
		k, err := l.eng.FeedBatch(l.buf)
		l.tr.end()
		if err != nil || k != len(l.buf) {
			out.failed++
			return fmt.Errorf("façade FeedBatch at %d: %v", q, err)
		}
	}
	for l.recv.Load() < l.sub.Stats().Delivered {
		time.Sleep(50 * time.Microsecond)
	}
	return nil
}

func (l *facadeLane) finish(o *oracleFile, n int64, out *outcome) facadeResult {
	out.fail(l.eng.Close())
	<-l.done
	res := facadeResult{feedNs: l.tr.incl[spanFeed], stats: l.eng.Stats()}
	for i, c := range l.checks {
		out.fail(c.result(&o.Queries[i], o.Length, 0, n))
	}
	out.fail(dropCheck(res.stats.SubscriptionDropped))
	return res
}

// laneRun is a traced run's result: every lane fed the same positions.
type laneRun struct {
	direct, par            directResult
	facade                 facadeResult
	gcFraction, gcPerKEdge float64
}

// runLanes interleaves a direct lane, a parallel direct lane (workers >
// 1) and a façade lane chunk by chunk for dur, so all three run under
// the same machine conditions and their differences are the layers',
// not the moment's. It reads the runtime's GC accounting across the
// whole run and saves the direct lane's first spans under spanDir.
func runLanes(w workload, f *feed, o *oracleFile, dur time.Duration, spanDir string, out *outcome) laneRun {
	clk := newClock()
	var res laneRun
	direct := newDirectLane(f, 1, w.batch, clk)
	var par *directLane
	if w.workers > 1 {
		par = newDirectLane(f, w.workers, w.batch, clk)
	}
	fl, err := newFacadeLane(w, f, clk)
	if err != nil {
		out.fail(err)
		return res
	}
	gc := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"}}
	runtime.GC()
	metrics.Read(gc)
	gc0, cpu0, cyc0 := gc[0].Value.Float64(), gc[1].Value.Float64(), gc[2].Value.Uint64()
	start, p := clk.now(), int64(0)
	for err == nil && (p == 0 || time.Duration(clk.now()-start) < dur) {
		err = direct.feedChunk(p)
		if err == nil && par != nil {
			err = par.feedChunk(p)
		}
		if err == nil {
			err = fl.feedChunk(p, out)
		}
		p += chunk
	}
	out.fail(err)
	res.facade = fl.finish(o, p, out)
	metrics.Read(gc)
	res.gcFraction = (gc[0].Value.Float64() - gc0) / (gc[1].Value.Float64() - cpu0)
	res.gcPerKEdge = float64(gc[2].Value.Uint64()-cyc0) / (float64(p) / 1000)
	res.direct = direct.finish(o, out)
	if par != nil {
		res.par = par.finish(o, out)
	}
	direct.tr.writeSpans(spanDir, w.name)
	return res
}

// layerMetrics turns a traced run into the core, mstree, lock,
// dispatch, façade and runtime metrics.
func layerMetrics(r laneRun) map[string]metric {
	d, fr := r.direct, r.facade
	e := float64(d.edges)
	core := float64(d.insert + d.expiry)
	m := map[string]metric{
		"graph.push_us_per_edge":      {float64(d.push) / e / 1e3, ""},
		"core.insert_us_per_edge":     {float64(d.insert) / e / 1e3, ""},
		"core.expiry_us_per_edge":     {float64(d.expiry) / e / 1e3, ""},
		"core.partials_per_edge":      {float64(d.partials) / e, ""},
		"core.matches_per_edge":       {float64(d.matches) / e, ""},
		"core.candidates_per_edge":    {float64(d.candidates) / e, ""},
		"core.join_yield":             {float64(d.partials+d.matches) / float64(max(d.candidates, 1)), ""},
		"core.ns_per_partial":         {core / float64(max(d.partials, 1)), ""},
		"core.ns_per_match":           {core / float64(max(d.matches, 1)), ""},
		"core.bytes_per_partial":      {float64(d.allocBytes) / float64(max(d.partials, 1)), ""},
		"core.allocs_per_edge":        {float64(d.allocs) / e, ""},
		"mstree.live_partials":        {median(d.livePartials), ""},
		"mstree.space_mb":             {median(d.spaceMB), ""},
		"dispatch.delivered_per_edge": {float64(fr.stats.SubscriptionDelivered) / e, ""},
		"dispatch.dropped":            {float64(fr.stats.SubscriptionDropped), ""},
		"runtime.gc_cpu_fraction":     {r.gcFraction, ""},
		"runtime.gc_cycles_per_kedge": {r.gcPerKEdge, ""},
	}
	if st := fr.stats.Stages; st != nil {
		m["dispatch.stage_us_p50"] = metric{float64(st.Dispatch.P50) / 1e3, ""}
	}
	if p := r.par; p.edges > 0 {
		m["lock.submit_us_per_edge"] = metric{float64(p.submitNs) / float64(p.edges) / 1e3, ""}
		m["lock.drain_ms"] = metric{median(p.drainMs), ""}
	} else {
		// Only a sequential façade does the same work inside FeedBatch
		// as the direct lane: with workers, FeedBatch returns with
		// transactions still in flight, while the parallel lane waits
		// for them at the end of every batch.
		m["facade.overhead_us_per_edge"] = metric{(float64(fr.feedNs) - float64(d.push) - core) / e / 1e3, ""}
	}
	return m
}

// traceInproc is the traced run of social-join and social-concurrent.
func traceInproc(w workload, f *feed, o *oracleFile, cfg runConfig, out *outcome) (map[string]metric, error) {
	r := runLanes(w, f, o, time.Duration(cfg.seconds*float64(time.Second)/2), filepath.Dir(cfg.work), out)
	fmt.Fprintf(os.Stderr, "tsbench: %s: traced %d edges, %.0f ns per span pair\n", w.name, r.direct.edges, spanCostNs(newClock()))
	return layerMetrics(r), nil
}

// wireLayers adds the server, WAL and recovery metrics of a traced
// wire run, then re-drives the same stream in process for the layers
// tsserved hosts (window, core, MS-tree, dispatch, façade, runtime).
func wireLayers(r *wireRun, cfg runConfig, tr *wireTrace, final client.EngineStats, m map[string]metric, out *outcome) map[string]metric {
	lm := layerMetrics(runLanes(r.w, r.f, r.o, 4*time.Second, filepath.Dir(cfg.work), out))
	if tr.before.Stages == nil || tr.after.Stages == nil || final.Stages == nil {
		out.fail(errors.New("tsserved reports no stage histograms"))
		return lm
	}
	edges := float64(tr.satEdges)
	ingest := float64(tr.after.Stages.Ingest.Sum - tr.before.Stages.Ingest.Sum)
	lm["server.post_ms_p50"] = metric{median(nsToMs(r.postNs)), ""}
	lm["server.overhead_us_per_edge"] = metric{(tr.satPostNs - ingest) / edges / 1e3, ""}
	lm["server.sse_us_p50"] = metric{(m["detect_p50_ms"].Value*1e6 - float64(final.Stages.Detection.P50)) / 1e3, ""}
	lm["wal.append_us_p50"] = metric{float64(tr.after.Stages.WALAppend.P50) / 1e3, ""}
	lm["wal.sync_us_p50"] = metric{float64(tr.after.Stages.WALSync.P50) / 1e3, ""}
	lm["wal.group_commit_us_p50"] = metric{float64(tr.after.Stages.GroupCommit.P50) / 1e3, ""}
	lm["wal.syncs_per_post"] = metric{float64(tr.after.WALSyncs-tr.before.WALSyncs) / float64(tr.satPosts), ""}
	lm["wal.bytes_per_edge"] = metric{tr.walBytes, ""}
	lm["recovery.listen_s"] = metric{median(tr.listen), ""}
	lm["recovery.replay_s"] = metric{median(tr.replay), ""}
	lm["recovery.replayed_edges"] = metric{float64(tr.replayed), ""}
	return lm
}
