package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"
)

// options fix one benchmark run.
type options struct {
	root    string // checkout root: charts and corpora are read from here
	workDir string // journals of ring runs go under here
	seed    int64
	measure time.Duration
	warmup  time.Duration
	// windows splits the measured phase; end-to-end figures are medians
	// over windows.
	windows int
	conns   int
	// setupReps is how many times set-up runs; setup_s is their median.
	setupReps int
}

// traceDepth is the per-shard span ring of the traced phase. It is kept
// small because GET /debug/trace orders the merged rings with an
// insertion sort, quadratic in the spans it returns.
const traceDepth = 2048

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's verdict line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// samples counts the ?wait=1 latencies behind the percentiles.
	samples int
	// checkErr is why the correctness gate failed, if it did.
	checkErr error
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank percentile of the latency sample.
func percentile(lat []time.Duration, p float64) time.Duration {
	if len(lat) == 0 {
		return missingLatency
	}
	s := append([]time.Duration(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(p*float64(len(s))+0.999999) - 1
	return s[min(max(k, 0), len(s)-1)]
}

// setUp starts the workload's rig reps times and keeps the last one;
// it returns the median set-up time.
func setUp(w *workload, t *traffic, workDir string, reps, depth int) (*rig, float64, error) {
	var times []float64
	var r *rig
	for i := 0; i < max(reps, 1); i++ {
		if r != nil {
			r.close()
		}
		start := time.Now()
		var err error
		if r, err = startRig(w, t, workDir, depth); err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return r, median(times), nil
}

// window is one slice of a measured phase, reduced to the rate figures.
// A run reports the median over its windows, so a short stall on a shared
// machine moves one window, not the result. Latency percentiles are taken
// over the samples of all windows pooled.
type window struct {
	ticksPerS, cpuPerKtick, allocsPerBatch float64
}

// measured is one warmed-up closed-loop phase with its counters.
type measured struct {
	p        *phase // all windows merged
	windows  []window
	procs    [2]proc
	daemon   counters
	proxied  uint64 // proxy hops during the phase, summed over nodes
	handler  float64
	handlerN int64
}

// measure warms the rig up, then drives it for o.measure in o.windows
// equal windows while taking process and daemon counters around them.
func measure(r *rig, o options, traced bool) (*measured, error) {
	drive(r, o.conns, o.warmup, false)
	m := &measured{p: &phase{traceRT: map[string]time.Duration{}}}
	var err error
	if m.daemon.before, err = r.scrape(); err != nil {
		return nil, err
	}
	proxied0, _, err := r.clusterStatus()
	if err != nil {
		return nil, err
	}
	var h0, n0 int64
	for _, n := range r.nodes {
		h0 += n.handlerNs.Load()
		n0 += n.handlerN.Load()
	}
	m.procs[0] = readProc()
	windows := max(o.windows, 1)
	for i := 0; i < windows; i++ {
		before := readProc()
		p := drive(r, o.conns, o.measure/time.Duration(windows), traced)
		after := readProc()
		m.windows = append(m.windows, window{
			ticksPerS:      float64(p.confirmedTicks) / p.elapsed.Seconds(),
			cpuPerKtick:    us(after.cpu-before.cpu) / float64(max(p.appliedTicks, 1)) * 1000,
			allocsPerBatch: float64(after.allocs-before.allocs) / float64(max(p.tickPosts, 1)),
		})
		m.p.merge(p)
		m.p.elapsed += p.elapsed
	}
	m.procs[1] = readProc()
	var h1, n1 int64
	for _, n := range r.nodes {
		h1 += n.handlerNs.Load()
		n1 += n.handlerN.Load()
	}
	if m.handlerN = n1 - n0; m.handlerN > 0 {
		m.handler = float64(h1-h0) / float64(m.handlerN) / 1e3
	}
	if m.daemon.after, err = r.scrape(); err != nil {
		return nil, err
	}
	proxied1, _, err := r.clusterStatus()
	if err != nil {
		return nil, err
	}
	m.proxied = proxied1 - proxied0
	return m, nil
}

// windowMedian is the median over the phase's windows of one figure.
func (m *measured) windowMedian(f func(window) float64) float64 {
	xs := make([]float64, len(m.windows))
	for i, w := range m.windows {
		xs[i] = f(w)
	}
	return median(xs)
}

func (m *measured) ticksPerS() float64 {
	return m.windowMedian(func(w window) float64 { return w.ticksPerS })
}

// liveHeap is the heap in use after a forced collection. endToEnd reads
// it once the traffic exists and before set-up, and reports the growth
// from there, so heap_mb leaves out the generator's request bodies.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// endToEnd is the untraced run: it reports what a user of the daemon
// sees, then holds the daemon to the correctness gate.
func endToEnd(w *workload, t *traffic, o options) (*report, error) {
	base := liveHeap()
	r, setupS, err := setUp(w, t, o.workDir, o.setupReps, 0)
	if err != nil {
		return nil, err
	}
	defer r.close()
	m, err := measure(r, o, false)
	if err != nil {
		return nil, err
	}
	p := m.p
	p50, p90 := us(percentile(p.waitLat, 0.50)), us(percentile(p.waitLat, 0.90))
	p.waitLat = nil // not to be counted as the daemon's heap
	heapMB := float64(int64(liveHeap())-int64(base)) / (1 << 20)
	rep := &report{Attempted: p.attempted, Failed: p.failed, samples: p.waits}
	rep.Metrics = map[string]metric{
		"ticks_per_s":      {m.ticksPerS(), "1/s"},
		"verdict_p50_us":   {p50, "us"},
		"verdict_p90_us":   {p90, "us"},
		"cpu_us_per_ktick": {m.windowMedian(func(w window) float64 { return w.cpuPerKtick }), "us"},
		"allocs_per_batch": {m.windowMedian(func(w window) float64 { return w.allocsPerBatch }), "count"},
		"heap_mb":          {heapMB, "MB"},
		"setup_s":          {setupS, "s"},
	}
	rep.checkErr = checkVerdicts(r, t)
	rep.Correct = rep.checkErr == nil
	return rep, nil
}

// untracedLayers is the first half of the traced run: with span tracing
// off, it reads the daemon's own stage histograms and the process and
// cluster counters around a measured phase, then times the decode,
// step and compile layers directly on the workload's own inputs.
type untracedLayers struct {
	m                           *measured
	lagBytes                    float64
	decodeNs, stepNs, fastShare float64
	compileMs, createUs         float64
	checkErr                    error
}

func measureUntraced(w *workload, t *traffic, o options) (*untracedLayers, error) {
	r, _, err := setUp(w, t, o.workDir, 1, 0)
	if err != nil {
		return nil, err
	}
	defer r.close()
	u := &untracedLayers{createUs: us(r.createNs)}
	var lag *lagSampler
	if w.ring {
		lag = sampleLag(r, 100*time.Millisecond)
	}
	u.m, err = measure(r, o, false)
	if lag != nil {
		lagBytes, lerr := lag.mean()
		if err == nil {
			u.lagBytes, err = lagBytes, lerr
		}
	}
	if err != nil {
		return nil, err
	}
	u.checkErr = checkVerdicts(r, t)
	c := u.m.daemon
	laneShare := 0.0
	if ticks := c.delta("cescd_ticks_total"); ticks > 0 {
		laneShare = c.delta("cescd_lane_group_ticks_total") / ticks
	}
	if u.decodeNs, u.stepNs, u.fastShare, err = directLayers(t, r.sessions, laneShare); err != nil {
		return nil, err
	}
	if u.compileMs, err = compileMs(t, 5); err != nil {
		return nil, err
	}
	return u, nil
}

// tracedLayers is the second half: a fresh rig with span tracing on and
// a trace id on every request, whose spans are joined per request.
type tracedLayers struct {
	m        *measured
	ledger   *spanLedger
	checkErr error
}

func measureTraced(w *workload, t *traffic, o options) (*tracedLayers, error) {
	r, _, err := setUp(w, t, o.workDir, 1, traceDepth)
	if err != nil {
		return nil, err
	}
	defer r.close()
	tl := &tracedLayers{}
	if tl.m, err = measure(r, o, true); err != nil {
		return nil, err
	}
	if tl.ledger, err = r.buildLedger(tl.m.p); err != nil {
		return nil, err
	}
	tl.checkErr = checkVerdicts(r, t)
	return tl, nil
}

// layered is the traced run that fills the per-layer ledger: half the
// run length untraced (daemon counters, direct layer timings, baseline
// throughput), half traced (span ledger, traced throughput).
func layered(w *workload, t *traffic, o options) (*report, error) {
	half := o
	half.measure = o.measure / 2
	u, err := measureUntraced(w, t, half)
	if err != nil {
		return nil, err
	}
	tl, err := measureTraced(w, t, half)
	if err != nil {
		return nil, err
	}
	checkErr := u.checkErr
	if checkErr == nil {
		checkErr = tl.checkErr
	}
	mt, ledger := tl.m, tl.ledger

	m := u.m
	p, c := m.p, m.daemon
	rtUs := us(p.postRT) / float64(max(p.tickPosts, 1))
	ticks := c.delta("cescd_ticks_total")
	batches := c.delta("cescd_batches_total")
	share := func(n, d float64) float64 {
		if d == 0 {
			return 0
		}
		return n / d
	}
	coverage := 0.0
	if ledger.rtUs > 0 {
		coverage = 1 - ledger.unattributedUs/ledger.rtUs
	}
	untraced, traced := m.ticksPerS(), mt.ticksPerS()
	rep := &report{
		Attempted: p.attempted + mt.p.attempted,
		Failed:    p.failed + mt.p.failed,
		samples:   p.waits,
		checkErr:  checkErr,
		Correct:   checkErr == nil,
	}
	rep.Metrics = map[string]metric{
		"client.rt_us":                {rtUs, "us"},
		"server.handler_us":           {m.handler, "us"},
		"server.http_overhead_us":     {rtUs - m.handler, "us"},
		"event.decode_us":             {c.stageUs("decode"), "us"},
		"server.enqueue_us":           {c.stageUs("enqueue"), "us"},
		"server.queue_wait_us":        {c.stageUs("queue_wait"), "us"},
		"monitor.step_us":             {c.stageUs("step"), "us"},
		"wal.append_us":               {c.stageUs("wal_append"), "us"},
		"server.verdict_read_us":      {c.stageUs("verdict"), "us"},
		"runtime.gc_cpu_frac":         {share(m.procs[1].gcCPU-m.procs[0].gcCPU, m.procs[1].totalCPU-m.procs[0].totalCPU), "frac"},
		"event.decode_ns_per_tick":    {u.decodeNs, "ns"},
		"event.fastpath_share":        {u.fastShare, "frac"},
		"monitor.step_ns_per_tick":    {u.stepNs, "ns"},
		"monitor.lane_tick_share":     {share(c.delta("cescd_lane_group_ticks_total"), ticks), "frac"},
		"wal.bytes_per_batch":         {share(c.delta("cescd_wal_bytes_total"), batches), "bytes"},
		"wal.fsyncs_per_s":            {c.delta("cescd_wal_syncs_total") / p.elapsed.Seconds(), "1/s"},
		"cluster.proxy_us":            {ledger.proxySelfUs, "us"},
		"cluster.proxied_share":       {share(float64(m.proxied), float64(p.attempted)), "frac"},
		"cluster.replication_lag":     {u.lagBytes, "bytes"},
		"synth.compile_ms":            {u.compileMs, "ms"},
		"server.session_create_us":    {u.createUs, "us"},
		"server.unattributed_us":      {ledger.unattributedUs, "us"},
		"server.ledger_coverage_frac": {coverage, "frac"},
		"server.rejected_frac":        {share(c.delta("cescd_rejected_total"), float64(p.tickPosts)), "frac"},
		"failed_frac":                 {share(float64(rep.Failed), float64(rep.Attempted)), "frac"},
		"trace.ticks_per_s_untraced":  {untraced, "1/s"},
		"trace.ticks_per_s_traced":    {traced, "1/s"},
		"trace.overhead_frac":         {share(untraced-traced, untraced), "frac"},
		"trace.joined_requests":       {float64(ledger.joined), "count"},
		"client.verdict_samples":      {float64(p.waits), "count"},
		"client.verdict_p99_us":       {us(percentile(p.waitLat, 0.99)), "us"},
	}
	return rep, nil
}

// runWorkload builds the workload's traffic from the seed and runs it
// untraced (the end-to-end metrics) or traced (the per-layer ledger).
func runWorkload(w *workload, o options, traced bool) (*report, error) {
	t, err := w.traffic(o.root, o.seed, w)
	if err != nil {
		return nil, fmt.Errorf("generating traffic: %w", err)
	}
	if traced {
		return layered(w, t, o)
	}
	return endToEnd(w, t, o)
}
