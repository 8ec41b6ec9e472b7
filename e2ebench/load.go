package main

import (
	"bytes"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// phase is what one closed-loop run observed from the client side.
type phase struct {
	elapsed time.Duration
	// attempted and failed count every session request the loop sent.
	// A failure is a transport error, a non-2xx answer (429s included),
	// or a ?wait=1 request answered 202 with X-Cesc-Shed: wait.
	attempted, failed int
	tickPosts         int
	appliedTicks      int
	// confirmedTicks are ticks whose verdicts a ?wait=1 answer covered.
	confirmedTicks int
	// waitLat holds one client round trip per ?wait=1 request; failed
	// ones are recorded as missing (missingLatency).
	waitLat []time.Duration
	waits   int // ?wait=1 requests sent
	// Round trips of every tick POST, for the HTTP-overhead ledger.
	postRT time.Duration
	// traceRT maps each traced ?wait=1 request's id to its round trip.
	traceRT map[string]time.Duration
}

// missingLatency stands for a failed or shed ?wait=1 request in the
// latency sample: it misses any latency limit.
const missingLatency = 1000 * time.Second

func (p *phase) merge(o *phase) {
	p.attempted += o.attempted
	p.failed += o.failed
	p.tickPosts += o.tickPosts
	p.appliedTicks += o.appliedTicks
	p.confirmedTicks += o.confirmedTicks
	p.waits += o.waits
	p.waitLat = append(p.waitLat, o.waitLat...)
	p.postRT += o.postRT
	for k, v := range o.traceRT {
		p.traceRT[k] = v
	}
}

// outcome classifies one answer. applied means the daemon took the
// batch; ambiguous means the client cannot tell.
func outcome(status int, shed bool, err error) (applied, ambiguous, failed bool) {
	switch {
	case err != nil:
		return false, true, true
	case status >= 200 && status < 300:
		return true, false, shed
	case status == http.StatusInternalServerError, status == http.StatusBadGateway:
		// 500 after the enqueue (journal append) and 502 (proxy hop)
		// may or may not have applied the batch.
		return false, true, true
	default:
		return false, false, true
	}
}

// worker is one closed-loop client with its own connection pool: it
// sends its next request only after reading the previous answer.
type worker struct {
	r      *rig
	hc     *http.Client
	mine   []*group
	traced bool
	buf    bytes.Buffer
}

func newWorker(r *rig, mine []*group, traced bool) *worker {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &worker{r: r, mine: mine, traced: traced,
		hc: &http.Client{Timeout: 30 * time.Second, Transport: tr}}
}

// do sends one request and reads the whole answer. The round trip runs
// from send until the last body byte is read.
func (w *worker) do(method, url string, body []byte, traceID string) (int, bool, time.Duration, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, false, 0, err
	}
	if traceID != "" {
		req.Header.Set("X-Cesc-Trace", traceID)
	}
	start := time.Now()
	resp, err := w.hc.Do(req)
	if err != nil {
		return 0, false, time.Since(start), err
	}
	w.buf.Reset()
	_, err = io.Copy(&w.buf, resp.Body)
	resp.Body.Close()
	rt := time.Since(start)
	return resp.StatusCode, resp.Header.Get("X-Cesc-Shed") == "wait", rt, err
}

// post sends the session's next batch to entry and books the answer.
func (w *worker) post(p *phase, s *session, entry *node, wait bool) (ticks int, ok bool) {
	k := s.next
	idx := k % len(s.stream.batches)
	s.next++
	url := entry.url + "/sessions/" + s.id + "/ticks"
	sep := "?"
	if w.r.w.ring {
		s.seq++
		url += "?seq=" + strconv.FormatUint(s.seq, 10)
		sep = "&"
	}
	if wait {
		url += sep + "wait=1"
	}
	traceID := ""
	if w.traced {
		traceID = "t" + strconv.FormatUint(w.r.traces.Add(1), 36)
	}
	status, shed, rt, err := w.do(http.MethodPost, url, s.stream.batches[idx], traceID)
	applied, ambiguous, failed := outcome(status, shed && wait, err)
	p.attempted++
	p.tickPosts++
	p.postRT += rt
	if failed {
		p.failed++
	}
	if wait {
		p.waits++
		if failed {
			p.waitLat = append(p.waitLat, missingLatency)
		} else {
			p.waitLat = append(p.waitLat, rt)
			if traceID != "" {
				p.traceRT[traceID] = rt
			}
		}
	}
	switch {
	case applied:
		s.markApplied(k)
		ticks = w.r.w.batch
		p.appliedTicks += ticks
	case ambiguous:
		s.ambiguous = idx
	}
	return ticks, applied && !failed
}

// run drives the worker's groups until stop is set or no group is left
// whose state the client still knows.
func (w *worker) run(p *phase, stop *atomic.Bool) {
	for j, idle := 0, 0; !stop.Load() && idle < len(w.mine); j++ {
		g := w.mine[j%len(w.mine)]
		if !g.live() {
			idle++
			continue
		}
		idle = 0
		if !w.r.w.ring {
			if ticks, ok := w.post(p, g.sessions[0], w.r.nodes[0], true); ok {
				p.confirmedTicks += ticks
			}
			continue
		}
		w.cycle(p, g)
	}
}

// cycle is one ring round over a group: asyncPerCycle async batches
// alternating between the group's sessions, a ?wait=1 barrier on the
// first of them, then a read of that session's verdicts. The first
// session thus takes an odd number of batches per cycle, and so does the
// second, so the daemon's every-256th-batch snapshot lands on barriers
// no more often than on any other batch. The entry node alternates per
// request as a round-robin load balancer would, phased so that the
// barrier enters through the owner: about half the requests take the
// proxy hop, and the verdict latency measures the owner's path rather
// than the proxy client's connection-reuse tail. The barrier's answer
// confirms every batch of the cycle: all of them went to one shard queue
// ahead of it.
func (w *worker) cycle(p *phase, g *group) {
	covered := 0
	entry := func(j int) *node { return w.r.nodes[(g.owner+j+1)%len(w.r.nodes)] }
	for j := 0; j <= asyncPerCycle; j++ {
		s := g.sessions[j%len(g.sessions)]
		barrier := j == asyncPerCycle
		if barrier {
			s = g.sessions[0]
		}
		ticks, ok := w.post(p, s, entry(j), barrier)
		if s.ambiguous >= 0 {
			return
		}
		covered += ticks
		if barrier && ok {
			p.confirmedTicks += covered
		}
	}
	status, _, _, err := w.do(http.MethodGet, entry(asyncPerCycle+1).url+"/sessions/"+g.sessions[0].id+"/verdicts", nil, "")
	p.attempted++
	if err != nil || status != http.StatusOK {
		p.failed++
	}
}

// drive runs the rig's sessions for d with conns closed-loop workers;
// worker k owns groups k, k+conns, ...
func drive(r *rig, conns int, d time.Duration, traced bool) *phase {
	total := &phase{traceRT: map[string]time.Duration{}}
	var stop atomic.Bool
	var wg sync.WaitGroup
	parts := make([]*phase, conns)
	start := time.Now()
	timer := time.AfterFunc(d, func() { stop.Store(true) })
	defer timer.Stop()
	for k := 0; k < conns; k++ {
		var mine []*group
		for i := k; i < len(r.groups); i += conns {
			mine = append(mine, r.groups[i])
		}
		parts[k] = &phase{traceRT: map[string]time.Duration{}}
		wk := newWorker(r, mine, traced)
		wg.Add(1)
		go func(p *phase) {
			defer wg.Done()
			defer wk.hc.CloseIdleConnections()
			wk.run(p, &stop)
		}(parts[k])
	}
	wg.Wait()
	total.elapsed = time.Since(start)
	for _, p := range parts {
		total.merge(p)
	}
	return total
}
