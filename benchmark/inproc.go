package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"timingsubg"
)

// drainTimeout bounds how long a run waits for the consumer to receive
// every match the oracle expects.
const drainTimeout = 30 * time.Second

// session is one engine of an in-process run with its subscription
// consumer.
type session struct {
	eng  timingsubg.Engine
	sub  *timingsubg.Subscription
	chk  *checker
	clk  clock
	fed  atomic.Int64
	recv atomic.Int64
	done chan struct{}
	pc   *paced
}

func openSession(w workload, f *feed, clk clock, pc *paced) (*session, error) {
	eng, err := timingsubg.Open(timingsubg.Config{
		Query:      f.queries[0].q,
		Window:     timingsubg.Timestamp(f.spec.window),
		Workers:    w.workers,
		LockScheme: timingsubg.FineGrained,
	})
	if err != nil {
		return nil, err
	}
	sub, err := eng.Subscribe(timingsubg.SubscribeOptions{Buffer: 1024, Policy: timingsubg.Block})
	if err != nil {
		eng.Close()
		return nil, err
	}
	s := &session{eng: eng, sub: sub, clk: clk, done: make(chan struct{}), pc: pc}
	s.chk = newChecker(f, f.queries[0].q, &s.fed)
	go s.consume()
	return s, nil
}

func (s *session) consume() {
	defer close(s.done)
	for dv := range s.sub.C() {
		now := s.clk.now()
		m := dv.Match
		s.chk.observe(m.Edges, m.Vtx, true)
		if len(m.Edges) > 0 {
			s.pc.observe(now, int64(maxEdgeID(m.Edges)))
		}
		s.recv.Add(1)
	}
}

// feedBatch feeds stream positions [p, p+len(buf)).
func (s *session) feedBatch(f *feed, buf []timingsubg.Edge, p int64, out *outcome) error {
	f.fill(buf, p)
	s.fed.Store(p + int64(len(buf)))
	out.attempted++
	if n, err := s.eng.FeedBatch(buf); err != nil || n != len(buf) {
		out.failed++
		return fmt.Errorf("FeedBatch at position %d fed %d of %d edges: %v", p, n, len(buf), err)
	}
	return nil
}

// waitRecv waits until a consumer's received count reaches n; the
// oracle says how many matches to expect, so running out of time is a
// check failure.
func waitRecv(recv *atomic.Int64, n int64) error {
	deadline := time.Now().Add(drainTimeout)
	for recv.Load() < n {
		if time.Now().After(deadline) {
			return fmt.Errorf("received %d matches, the oracle expects %d", recv.Load(), n)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// finish closes the engine, drains the consumer and checks everything
// delivered over positions [0, to) against the oracle.
func (s *session) finish(o *oracleFile, to int64) error {
	err := s.eng.Close()
	<-s.done
	st := s.eng.Stats()
	return errors.Join(err,
		s.chk.result(&o.Queries[0], o.Length, 0, to),
		dropCheck(st.SubscriptionDropped))
}

func dropCheck(dropped int64) error {
	if dropped != 0 {
		return fmt.Errorf("%d deliveries dropped", dropped)
	}
	return nil
}

// warmEdges is the warm-up feed: the first window of edges, rounded up
// to whole chunks.
func warmEdges(f *feed) int64 {
	return (f.spec.window + chunk - 1) / chunk * chunk
}

// setupInproc opens cfg.setups engines in turn — Open, Subscribe and a
// warm-up feed of the first window, until the consumer holds every
// warm-up match — checking and closing all but the last, which it
// returns together with the set-up times.
func setupInproc(w workload, f *feed, o *oracleFile, cfg runConfig, clk clock, pc *paced, out *outcome) (*session, []float64, error) {
	warm := warmEdges(f)
	want, _ := o.Queries[0].expect(o.Length, 0, warm)
	buf := make([]timingsubg.Edge, w.batch)
	var times []float64
	for r := range cfg.setups {
		start := clk.now()
		s, err := openSession(w, f, clk, pc)
		if err != nil {
			return nil, nil, err
		}
		for p := int64(0); p < warm; p += int64(w.batch) {
			if err := s.feedBatch(f, buf, p, out); err != nil {
				out.fail(err)
				break
			}
		}
		out.fail(waitRecv(&s.recv, want))
		times = append(times, float64(clk.now()-start)/1e9)
		if r == cfg.setups-1 {
			return s, times, nil
		}
		out.fail(s.finish(o, warm))
		runtime.GC()
	}
	panic("unreachable")
}

// runInproc is social-join and social-concurrent: set-up, a closed-loop
// saturation phase and an open-loop paced phase on one engine.
func runInproc(w workload, f *feed, o *oracleFile, cfg runConfig, out *outcome) (map[string]metric, error) {
	clk := newClock()
	satDur, pacedDur := cfg.phases()
	pc := newPaced(w, pacedDur)
	s, setups, err := setupInproc(w, f, o, cfg, clk, pc, out)
	if err != nil {
		return nil, err
	}
	buf := make([]timingsubg.Edge, w.batch)
	feedAt := func(p int64) error { return s.feedBatch(f, buf, p, out) }

	sat, err := saturate(clk, warmEdges(f), w.batch, satDur, selfCPU, feedAt)
	out.fail(err)
	end, acks, late, err := pc.run(clk, satEnd(sat), w.pacedRate, pacedDur, feedAt)
	out.fail(err)
	want, _ := o.Queries[0].expect(o.Length, 0, end)
	out.fail(waitRecv(&s.recv, want))
	out.fail(s.finish(o, end))

	rate, cpu := satMetrics(sat, int64(f.spec.length))
	m := map[string]metric{
		"setup_s":         setupMetric(w.name, setups),
		"edges_per_s":     {rate, "1/s"},
		"cpu_us_per_edge": {cpu, "us"},
		"peak_rss_mb":     {selfPeakRSSMB(), "MB"},
	}
	pc.latencyMetrics(m, w.name, int64(f.spec.length), acks, late)
	return m, nil
}

func maxEdgeID(edges []timingsubg.Edge) timingsubg.EdgeID {
	m := edges[0].ID
	for _, e := range edges[1:] {
		m = max(m, e.ID)
	}
	return m
}
