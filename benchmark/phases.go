package main

import (
	"fmt"
	"os"
	"sync/atomic"
	"syscall"
	"time"
)

// Both measured phases are cut into slices of one stream round each
// (see streamSpec.length): every slice past the first window does
// exactly the same work, whichever position it starts at. Each figure
// is computed per slice and reported from the best quarter of the
// complete slices — the upper quartile of throughput, the lower
// quartile of costs and latencies. Interference from outside the
// benchmark (other tenants of the machine, hypervisor steal) only ever
// makes a slice slower, so the best quarter tracks the program, while a
// change to the program moves every slice.
const bestQuarter = 0.25

// clock is the run's monotonic time base in nanoseconds.
type clock struct{ epoch time.Time }

func newClock() clock      { return clock{epoch: time.Now()} }
func (c clock) now() int64 { return int64(time.Since(c.epoch)) }

// sleepUntil blocks the calling thread in nanosleep(2) until t. The
// runtime's own timers (time.Sleep) wake a sleeper up to a millisecond
// late, which would show as ack latency; the kernel's high-resolution
// timer wakes it within about a tenth of that.
func (c clock) sleepUntil(t int64) {
	for d := t - c.now(); d > 0; d = t - c.now() {
		ts := syscall.NsecToTimespec(d)
		syscall.Nanosleep(&ts, nil)
	}
}

// satSample is the state at one chunk boundary of the saturation phase.
type satSample struct {
	t, p int64
	cpu  time.Duration
}

// saturate feeds whole chunks as fast as they are accepted until dur
// has passed, starting at position p, and samples time, position and
// the engine process's CPU time at every chunk boundary.
func saturate(clk clock, p int64, batch int, dur time.Duration, cpu func() time.Duration,
	feedAt func(p int64) error) ([]satSample, error) {
	samples := []satSample{{clk.now(), p, cpu()}}
	for {
		for range chunk / batch {
			if err := feedAt(p); err != nil {
				return samples, err
			}
			p += int64(batch)
		}
		s := satSample{clk.now(), p, cpu()}
		samples = append(samples, s)
		if time.Duration(s.t-samples[0].t) >= dur {
			return samples, nil
		}
	}
}

// satMetrics returns the saturation phase's throughput (edges/s) from
// the best quarter of its round-long slices, and its CPU cost (µs per
// edge) over the whole phase: CPU time is not stretched by other
// guests' load the way wall time is, and the per-process counters
// tick at 10ms, too coarse to read per slice. A phase shorter than one
// slice is measured whole.
func satMetrics(samples []satSample, round int64) (rate, cpuUs float64) {
	first, last := samples[0], samples[len(samples)-1]
	edges := float64(last.p - first.p)
	cpuUs = (last.cpu - first.cpu).Seconds() / edges * 1e6
	var rates []float64
	from := first
	for _, s := range samples[1:] {
		if s.p-from.p >= round {
			rates = append(rates, float64(s.p-from.p)/(float64(s.t-from.t)/1e9))
			from = s
		}
	}
	if len(rates) == 0 {
		return edges / (float64(last.t-first.t) / 1e9), cpuUs
	}
	return quantile(rates, 1-bestQuarter), cpuUs
}

func satEnd(samples []satSample) int64 { return samples[len(samples)-1].p }

// paced is the open-loop phase's bookkeeping: the first paced
// position, each batch's due time, and the detection samples the
// match consumer takes.
type paced struct {
	batch  int64
	from   atomic.Int64
	due    []atomic.Int64
	detect []latSample
}

// latSample is one latency sample, tagged with the paced batch it
// belongs to.
type latSample struct {
	k  int
	ns int64
}

func newPaced(w workload, dur time.Duration) *paced {
	// Room for twice the planned batches, in whole chunks.
	perChunk := chunk / w.batch
	n := (int(2*w.pacedRate*dur.Seconds())/w.batch/perChunk + 2) * perChunk
	pc := &paced{batch: int64(w.batch), due: make([]atomic.Int64, n)}
	pc.from.Store(1 << 62)
	return pc
}

// observe records the detection latency of a match received at now
// whose latest edge is maxID, if that edge was fed in the paced phase.
// Only the consumer goroutine calls it.
func (pc *paced) observe(now, maxID int64) {
	k := (maxID - pc.from.Load()) / pc.batch
	if k < 0 || k >= int64(len(pc.due)) {
		return
	}
	if due := pc.due[k].Load(); due > 0 {
		pc.detect = append(pc.detect, latSample{int(k), now - due})
	}
}

// run feeds batch k at start + k·batch/rate, waiting for each due time,
// until dur has passed and a chunk is complete (or the due table is
// full). It records each batch's due time before feeding it and returns
// the end position, the ack latencies (feed return minus due) and how
// late the producer started each batch.
func (pc *paced) run(clk clock, p int64, rate float64, dur time.Duration,
	feedAt func(p int64) error) (end int64, acks []latSample, late []int64, err error) {
	period := float64(pc.batch) / rate * 1e9
	start := clk.now() + int64(2*time.Millisecond)
	perChunk := chunk / int(pc.batch)
	pc.from.Store(p)
	for k := range pc.due {
		at := start + int64(float64(k)*period)
		clk.sleepUntil(at)
		pc.due[k].Store(at)
		late = append(late, max(0, clk.now()-at))
		if err := feedAt(p); err != nil {
			return p, acks, late, err
		}
		acks = append(acks, latSample{k, clk.now() - at})
		p += pc.batch
		if (k+1)%perChunk == 0 && time.Duration(clk.now()-start) >= dur {
			break
		}
	}
	return p, acks, late, nil
}

// sliceQuantile cuts samples into round-long slices by the batch they
// belong to and returns the best quarter (lower quartile) over complete
// slices of each slice's q-quantile, in ms. batches is the number of paced batches
// fed; with fewer than a slice of them, all samples form one slice.
func (pc *paced) sliceQuantile(samples []latSample, q float64, batches int, round int64) float64 {
	per := int(round / pc.batch)
	slices := max(batches/per, 1)
	by := make([][]float64, slices)
	for _, s := range samples {
		if i := min(s.k/per, slices-1); s.k < slices*per || slices == 1 {
			by[i] = append(by[i], float64(s.ns)/1e6)
		}
	}
	var qs []float64
	for _, xs := range by {
		if len(xs) > 0 {
			qs = append(qs, quantile(xs, q))
		}
	}
	return quantile(qs, bestQuarter)
}

// latencyMetrics fills the paced-phase metrics (the p50s) and logs the
// p90s, the plain p99s with their tail counts and how late the
// producer ran.
func (pc *paced) latencyMetrics(m map[string]metric, name string, round int64, acks []latSample, late []int64) {
	n := len(acks)
	m["detect_p50_ms"] = metric{pc.sliceQuantile(pc.detect, 0.5, n, round), "ms"}
	m["ack_p50_ms"] = metric{pc.sliceQuantile(acks, 0.5, n, round), "ms"}
	all := func(xs []latSample) []float64 {
		out := make([]float64, len(xs))
		for i, s := range xs {
			out[i] = float64(s.ns) / 1e6
		}
		return out
	}
	d, a, l := all(pc.detect), all(acks), nsToMs(late)
	fmt.Fprintf(os.Stderr, "tsbench: %s: paced detect p90 %.3f ms (best-quarter slices), p99 %.3f ms over %d matches (%d beyond); ack p90 %.3f ms, p99 %.3f ms over %d batches (%d beyond)\n",
		name, pc.sliceQuantile(pc.detect, 0.9, n, round), quantile(d, 0.99), len(d), beyond(d, 0.99),
		pc.sliceQuantile(acks, 0.9, n, round), quantile(a, 0.99), len(a), beyond(a, 0.99))
	fmt.Fprintf(os.Stderr, "tsbench: %s: paced producer lateness p50 %.3f ms, p90 %.3f ms, max %.3f ms\n",
		name, median(l), quantile(l, 0.9), quantile(l, 1))
}

func beyond(xs []float64, q float64) int {
	return len(xs) - int(q*float64(len(xs)))
}
