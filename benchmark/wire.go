package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"timingsubg/client"
	"timingsubg/internal/graph"
)

// Wire-durable layout: the predecessor ingests walPrefix edges and is
// SIGKILLed, and the state directory it leaves is copied. Each set-up
// restores that copy and restarts tsserved over it, so every restart
// recovers the same log; every set-up but the last is SIGKILLed in
// turn. tsserved checkpoints every walCheckpoint edges and starts a new
// WAL segment once one holds walSegment bytes (every second POST), so
// segment rotation, checkpoints and the truncation they allow all recur
// within every round-long slice of the measured phases.
const (
	walPrefix     = 12 * chunk
	walCheckpoint = 8 * chunk
	walSegment    = 32 << 10
)

// daemon is one tsserved incarnation.
type daemon struct {
	cmd  *exec.Cmd
	base string
	hc   *http.Client // POSTs: one keep-alive connection
	api  *client.Client
	done chan struct{}
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func spawnDaemon(cfg runConfig, addr, walDir string, n int) (*daemon, error) {
	logf, err := os.Create(filepath.Join(cfg.work, fmt.Sprintf("tsserved-%d.log", n)))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(cfg.tsserved, "-listen", addr, "-wal", walDir, "-sync-every", "1",
		"-checkpoint-every", strconv.Itoa(walCheckpoint), "-segment-bytes", strconv.Itoa(walSegment),
		"-subscriber-buffer", "4096")
	cmd.Stdout, cmd.Stderr = logf, logf
	// A daemon must not outlive a benchmark that dies before killing it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start tsserved: %w", err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, done: make(chan struct{}),
		hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}}
	d.api = client.New(d.base, &http.Client{Transport: &http.Transport{DisableCompression: true}})
	go func() { cmd.Wait(); close(d.done) }()
	return d, nil
}

// kill SIGKILLs the daemon and waits for it to exit.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.done
	d.hc.CloseIdleConnections()
}

// waitStatus polls path until it answers 200.
func (d *daemon) waitStatus(path string) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := d.hc.Get(d.base + path)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-d.done:
			return fmt.Errorf("tsserved exited before %s answered 200", path)
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("tsserved: %s not 200 after 60s", path)
		}
		// nanosleep(2): the runtime's timers would add up to a
		// millisecond to every set-up.
		ts := syscall.NsecToTimespec(int64(200 * time.Microsecond))
		syscall.Nanosleep(&ts, nil)
	}
}

// procCPU returns the process's user+system CPU time, from
// /proc/<pid>/stat (clock ticks of 10ms).
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(raw[bytes.LastIndexByte(raw, ')')+1:]))
	// Fields after the command name start at field 3 (state); utime
	// and stime are fields 14 and 15.
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// procPeakRSSMB returns VmHWM of the process in MB.
func procPeakRSSMB(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return float64(kb) / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// wireRun is the state of one wire-durable run shared by its
// incarnations: the stream, the per-query checkers and the paced
// bookkeeping the SSE consumer reads.
type wireRun struct {
	w      workload
	f      *feed
	o      *oracleFile
	clk    clock
	fed    atomic.Int64
	checks []*checker
	// labels maps each label ID of the stream to its JSON string.
	labels map[graph.Label][]byte
	body   []byte

	batch     int64
	pc        *paced
	recv      atomic.Int64
	postNs    []int64 // per-POST durations (traced runs)
	tracePOST bool
}

// encode writes positions [p, p+batch) as an NDJSON ingest body.
func (r *wireRun) encode(p int64) []byte {
	b := r.body[:0]
	for i := range r.w.batch {
		e := r.f.edge(p + int64(i))
		b = append(b, `{"from":`...)
		b = strconv.AppendInt(b, int64(e.From), 10)
		b = append(b, `,"to":`...)
		b = strconv.AppendInt(b, int64(e.To), 10)
		b = append(b, `,"from_label":`...)
		b = append(b, r.labels[e.FromLabel]...)
		b = append(b, `,"to_label":`...)
		b = append(b, r.labels[e.ToLabel]...)
		b = append(b, `,"label":`...)
		b = append(b, r.labels[e.EdgeLabel]...)
		b = append(b, `,"time":`...)
		b = strconv.AppendInt(b, int64(e.Time), 10)
		b = append(b, "}\n"...)
	}
	r.body = b
	return b
}

// post ingests positions [p, p+batch) and checks every line landed.
func (r *wireRun) post(d *daemon, p int64, out *outcome) error {
	body := r.encode(p)
	r.fed.Store(p + r.batch)
	out.attempted++
	start := r.clk.now()
	resp, err := d.hc.Post(d.base+"/ingest", "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		out.failed++
		return fmt.Errorf("POST at position %d: %w", p, err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if r.tracePOST {
		r.postNs = append(r.postNs, r.clk.now()-start)
	}
	var res client.IngestResult
	if err == nil && resp.StatusCode == http.StatusOK {
		err = json.Unmarshal(raw, &res)
	}
	if err != nil || resp.StatusCode != http.StatusOK || res.Accepted != r.w.batch || res.Rejected != 0 {
		out.failed++
		return fmt.Errorf("POST at position %d: status %d, %d accepted, %d rejected: %v %s",
			p, resp.StatusCode, res.Accepted, res.Rejected, err, bytes.TrimSpace(raw))
	}
	return nil
}

// subscribe attaches the SSE consumer to d; it runs until the stream
// ends and closes the returned channel.
func (r *wireRun) subscribe(d *daemon) (*client.Subscription, chan struct{}, error) {
	sub, err := d.api.SubscribeOpts(context.Background(), client.SubscribeOptions{})
	if err != nil {
		return nil, nil, err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		edges := []graph.Edge{}
		for ev := range sub.Events {
			now := r.clk.now()
			qi := r.f.queryIndex(ev.Query)
			if qi < 0 {
				r.checks[0].fail(fmt.Errorf("match for unknown query %q", ev.Query))
				r.recv.Add(1)
				continue
			}
			edges = edges[:0]
			for _, me := range ev.Edges {
				lbl, ok := r.f.labels.Lookup(me.Label)
				if !ok {
					lbl = -1
				}
				edges = append(edges, graph.Edge{ID: graph.EdgeID(me.ID), From: graph.VertexID(me.From),
					To: graph.VertexID(me.To), EdgeLabel: lbl, Time: graph.Timestamp(me.Time)})
			}
			r.checks[qi].observe(edges, nil, false)
			if len(edges) > 0 {
				r.pc.observe(now, int64(maxEdgeID(edges)))
			}
			r.recv.Add(1)
		}
	}()
	return sub, done, nil
}

// expect sums the oracle over positions [from, to) for every query.
func (r *wireRun) expect(from, to int64) int64 {
	var n int64
	for i := range r.o.Queries {
		c, _ := r.o.Queries[i].expect(r.o.Length, from, to)
		n += c
	}
	return n
}

// incarnation is one live daemon with its SSE consumer.
type incarnation struct {
	d    *daemon
	sub  *client.Subscription
	done chan struct{}
}

// end kills the daemon and waits for its consumer, if attached, to
// finish.
func (in *incarnation) end() {
	in.d.kill()
	if in.sub != nil {
		in.sub.Close()
		<-in.done
	}
}

// walLog tallies the WAL's closed segments, listed after every POST
// of a traced saturation phase. A segment file is named by the LSN of
// its first record and is closed once a later one exists, so the names
// of consecutive segments count the records, one per edge, that the
// earlier one holds. Checkpoints let the WAL truncate its front, so the
// directory's growth would not measure the log.
type walLog map[int64][2]int64 // first LSN → bytes, records

func (wl walLog) list(dir string) error {
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil {
		return err
	}
	slices.Sort(segs) // names are zero-padded LSNs
	prev, prevBytes := int64(-1), int64(0)
	for _, path := range segs {
		lsn, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimPrefix(filepath.Base(path), "wal-"), ".seg"), 10, 64)
		if err != nil {
			return err
		}
		info, err := os.Stat(path)
		if errors.Is(err, fs.ErrNotExist) { // truncated since the listing
			prev = -1
			continue
		}
		if err != nil {
			return err
		}
		if prev >= 0 {
			wl[prev] = [2]int64{prevBytes, lsn - prev}
		}
		prev, prevBytes = lsn, info.Size()
	}
	return nil
}

func (wl walLog) bytesPerEdge() float64 {
	var bytes, records int64
	for _, v := range wl {
		bytes += v[0]
		records += v[1]
	}
	return float64(bytes) / float64(max(records, 1))
}

// wireTrace holds the per-layer figures a traced wire run collects.
type wireTrace struct {
	listen, replay []float64
	replayed       int64
	before, after  client.EngineStats
	walBytes       float64 // per edge
	satPosts       int64
	satPostNs      float64
	satEdges       int64
}

// runWire is wire-durable: tsserved as a separate process with a WAL
// synced per POST, NDJSON POSTs on one connection and an SSE consumer
// on another; set-up is recovery after a SIGKILL.
func runWire(w workload, f *feed, o *oracleFile, cfg runConfig, out *outcome) (map[string]metric, error) {
	if cfg.tsserved == "" {
		return nil, errors.New("wire-durable needs -tsserved")
	}
	satDur, pacedDur := cfg.phases()
	r := &wireRun{w: w, f: f, o: o, clk: newClock(), batch: int64(w.batch),
		pc: newPaced(w, pacedDur), labels: map[graph.Label][]byte{}, tracePOST: cfg.trace}
	for _, nq := range f.queries {
		r.checks = append(r.checks, newChecker(f, nq.q, &r.fed))
	}
	for _, e := range f.base {
		for _, l := range []graph.Label{e.FromLabel, e.ToLabel, e.EdgeLabel} {
			if _, ok := r.labels[l]; !ok {
				r.labels[l], _ = json.Marshal(f.labels.String(l))
			}
		}
	}
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	walDir := filepath.Join(cfg.work, "state")
	var tr wireTrace
	var live *incarnation
	defer func() {
		if live != nil {
			live.end()
		}
	}()

	// postRange ingests [from, to) on the live daemon and waits for the
	// SSE consumer to hold every match the oracle expects so far.
	var recvBase, incFrom int64
	postRange := func(from, to int64) error {
		for p := from; p < to; p += r.batch {
			if err := r.post(live.d, p, out); err != nil {
				return err
			}
		}
		return waitRecv(&r.recv, recvBase+r.expect(incFrom, to))
	}
	startInc := func(n int, from int64) (float64, error) {
		start := r.clk.now()
		d, err := spawnDaemon(cfg, addr, walDir, n)
		if err != nil {
			return 0, err
		}
		live = &incarnation{d: d}
		if err := d.waitStatus("/healthz"); err != nil {
			return 0, err
		}
		healthy := r.clk.now()
		if err := d.waitStatus("/readyz"); err != nil {
			return 0, err
		}
		ready := r.clk.now()
		if n == 0 {
			for _, nq := range f.queries {
				if err := d.api.AddQuery(context.Background(), client.QueryRequest{
					Name: nq.name, Text: nq.text, Window: f.spec.window}); err != nil {
					return 0, err
				}
			}
		}
		if live.sub, live.done, err = r.subscribe(d); err != nil {
			return 0, err
		}
		attached := r.clk.now()
		tr.listen = append(tr.listen, float64(healthy-start)/1e9)
		tr.replay = append(tr.replay, float64(ready-healthy)/1e9)
		recvBase, incFrom = r.recv.Load(), from
		return float64(attached-start) / 1e9, nil
	}

	// The predecessor: a cold start, a prefix of the stream, SIGKILL.
	if _, err := startInc(0, 0); err != nil {
		return nil, err
	}
	tr.listen, tr.replay = nil, nil
	if err := postRange(0, walPrefix); err != nil {
		return nil, err
	}
	live.end()
	live = nil
	killed := filepath.Join(cfg.work, "state-killed")
	if err := os.CopyFS(killed, os.DirFS(walDir)); err != nil {
		return nil, err
	}

	var setups []float64
	for i := range cfg.setups {
		if err := os.RemoveAll(walDir); err != nil {
			return nil, err
		}
		if err := os.CopyFS(walDir, os.DirFS(killed)); err != nil {
			return nil, err
		}
		s, err := startInc(i+1, walPrefix)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
		if i < cfg.setups-1 {
			live.end()
			live = nil
		}
	}
	p := int64(walPrefix)
	if cfg.trace {
		st, err := live.d.api.EngineStats(context.Background())
		out.fail(err)
		tr.replayed = st.Replayed
	}

	pid := live.d.cmd.Process.Pid
	feedAt := func(p int64) error { return r.post(live.d, p, out) }
	statsNow := func() client.EngineStats {
		st, err := live.d.api.EngineStats(context.Background())
		out.fail(err)
		return st
	}
	if cfg.trace {
		tr.before = statsNow()
	}
	var cpuErr error
	cpu := func() time.Duration {
		c, err := procCPU(pid)
		if err != nil {
			cpuErr = err
		}
		return c
	}
	posts0 := len(r.postNs)
	wl, satFeed := walLog{}, feedAt
	if cfg.trace {
		satFeed = func(p int64) error {
			return errors.Join(feedAt(p), wl.list(walDir))
		}
	}
	sat, err := saturate(r.clk, p, w.batch, satDur, cpu, satFeed)
	out.fail(errors.Join(err, cpuErr))
	if cfg.trace {
		tr.after = statsNow()
		tr.walBytes = wl.bytesPerEdge()
		tr.satPosts = int64(len(r.postNs) - posts0)
		for _, ns := range r.postNs[posts0:] {
			tr.satPostNs += float64(ns)
		}
		tr.satEdges = satEnd(sat) - p
	}

	end, acks, late, err := r.pc.run(r.clk, satEnd(sat), w.pacedRate, pacedDur, feedAt)
	out.fail(err)
	out.fail(waitRecv(&r.recv, recvBase+r.expect(incFrom, end)))
	final := statsNow()
	out.fail(dropCheck(final.SubscriptionDropped))
	rss, err := procPeakRSSMB(pid)
	out.fail(err)
	live.end()
	live = nil
	// Every incarnation's consumer has ended; the checkers hold all
	// matches delivered while attached, i.e. over [walPrefix, end)
	// plus the predecessor's [0, walPrefix).
	for i, c := range r.checks {
		out.fail(c.result(&o.Queries[i], o.Length, 0, end))
	}

	rate, cpuUs := satMetrics(sat, int64(f.spec.length))
	m := map[string]metric{
		"setup_s":         setupMetric(w.name, setups),
		"edges_per_s":     {rate, "1/s"},
		"cpu_us_per_edge": {cpuUs, "us"},
		"peak_rss_mb":     {rss, "MB"},
	}
	r.pc.latencyMetrics(m, w.name, int64(f.spec.length), acks, late)
	if cfg.trace {
		return wireLayers(r, cfg, &tr, final, m, out), nil
	}
	return m, nil
}
