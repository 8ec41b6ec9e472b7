package main

import (
	"bufio"
	"fmt"
	"net/http"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/event"
	"repro/internal/monitor"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/synth"
)

// --- process counters -----------------------------------------------------

// proc is a reading of the process-wide counters the end-to-end metrics
// are deltas of. Daemon and load generator share the process, so CPU
// and allocations cover both.
type proc struct {
	cpu             time.Duration
	allocs          uint64
	gcCPU, totalCPU float64
}

var procSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readProc() proc {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := make([]metrics.Sample, len(procSamples))
	copy(s, procSamples)
	metrics.Read(s)
	return proc{
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocs:   s[0].Value.Uint64(),
		gcCPU:    s[1].Value.Float64(),
		totalCPU: s[2].Value.Float64(),
	}
}

// --- daemon-side counters ---------------------------------------------------

// scrape reads every node's Prometheus exposition and sums each series
// across nodes.
func (r *rig) scrape() (map[string]float64, error) {
	out := map[string]float64{}
	for _, n := range r.nodes {
		resp, err := r.ctl.Get(n.url + "/metrics")
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			if line == "" || line[0] == '#' {
				continue
			}
			i := strings.LastIndexByte(line, ' ')
			if i < 0 {
				continue
			}
			if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
				out[line[:i]] += v
			}
		}
		err = sc.Err()
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("GET %s/metrics: %d", n.url, resp.StatusCode)
		}
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// counters is a pair of scrapes bracketing a phase.
type counters struct{ before, after map[string]float64 }

func (c counters) delta(series string) float64 { return c.after[series] - c.before[series] }

// stageUs is the mean latency of one daemon pipeline stage over the
// phase, from the stage histogram's sum and count deltas.
func (c counters) stageUs(stage string) float64 {
	l := `{stage="` + stage + `"}`
	n := c.delta("cescd_stage_latency_seconds_count" + l)
	if n == 0 {
		return 0
	}
	return c.delta("cescd_stage_latency_seconds_sum"+l) / n * 1e6
}

// clusterStatus sums the proxy counter and replication lag over nodes.
func (r *rig) clusterStatus() (proxied uint64, lag int64, err error) {
	for _, n := range r.nodes {
		if n.cn == nil {
			continue
		}
		var st cluster.StatusJSON
		if err := r.get(n.url+"/cluster/status", &st); err != nil {
			return 0, 0, err
		}
		proxied += st.Proxied
		for _, b := range st.ReplicationLag {
			lag += b
		}
	}
	return proxied, lag, nil
}

// lagSampler polls the ring's replication lag during a phase.
type lagSampler struct {
	stop chan struct{}
	done chan struct{}
	sum  float64
	n    int
	err  error
}

func sampleLag(r *rig, every time.Duration) *lagSampler {
	ls := &lagSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(ls.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-ls.stop:
				return
			case <-t.C:
				_, lag, err := r.clusterStatus()
				if err != nil {
					ls.err = err
					return
				}
				ls.sum += float64(lag)
				ls.n++
			}
		}
	}()
	return ls
}

// mean stops the sampler and returns the mean lag in bytes.
func (ls *lagSampler) mean() (float64, error) {
	close(ls.stop)
	<-ls.done
	if ls.n == 0 {
		return 0, ls.err
	}
	return ls.sum / float64(ls.n), ls.err
}

// --- span ledger --------------------------------------------------------------

// spanLedger joins each traced ?wait=1 request's client round trip with
// the entry node's handler time and the daemon's spans for its trace id.
type spanLedger struct {
	joined               int
	rtUs, unattributedUs float64 // means over joined requests
	// proxySelfUs is the proxy hop's self time (proxy span minus the
	// owner's ingest span) averaged over every traced request that took
	// the hop, async ones included.
	proxySelfUs float64
}

// ledgerStages are the daemon spans that lie on a ?wait=1 request's
// blocking path, besides the proxy hop. The journal append runs while
// the shard steps the batch, so the ledger takes the union of their
// intervals rather than the sum of their durations.
var ledgerStages = map[string]bool{
	obs.StageDecode: true, obs.StageEnqueue: true, obs.StageQueueWait: true,
	obs.StageStep: true, obs.StageWALAppend: true,
}

func (r *rig) pullSpans() (map[string][]obs.Span, error) {
	byTrace := map[string][]obs.Span{}
	for _, n := range r.nodes {
		var body struct {
			Spans []obs.Span `json:"spans"`
		}
		if err := r.get(n.url+"/debug/trace", &body); err != nil {
			return nil, err
		}
		for _, sp := range body.Spans {
			if sp.Trace != "" {
				byTrace[sp.Trace] = append(byTrace[sp.Trace], sp)
			}
		}
	}
	return byTrace, nil
}

// covered is the length of the union of the spans' intervals.
func covered(spans []obs.Span) time.Duration {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
	var total time.Duration
	var end time.Time
	for _, sp := range spans {
		s, e := sp.Start, sp.Start.Add(sp.Dur)
		if s.Before(end) {
			s = end
		}
		if e.After(s) {
			total += e.Sub(s)
		}
		if e.After(end) {
			end = e
		}
	}
	return total
}

// proxySelf is a request's proxy hop self time: its proxy span minus
// the owner's ingest span. ok is false unless both were recorded.
func proxySelf(spans []obs.Span) (self time.Duration, ok bool) {
	var proxy, ingest time.Duration
	for _, sp := range spans {
		switch sp.Stage {
		case obs.StageProxy:
			proxy = sp.Dur
		case obs.StageIngest:
			ingest = sp.Dur
		}
	}
	return proxy - ingest, proxy > 0 && ingest > 0
}

// buildLedger attributes each joined request's round trip to the HTTP
// layer (round trip minus entry handler time), the proxy hop's self
// time, and the pipeline stages; what remains is unattributed and
// reported as such.
func (r *rig) buildLedger(p *phase) (*spanLedger, error) {
	byTrace, err := r.pullSpans()
	if err != nil {
		return nil, err
	}
	l := &spanLedger{}
	var rtSum, unSum, proxySum time.Duration
	proxied := 0
	for _, spans := range byTrace {
		if self, ok := proxySelf(spans); ok {
			proxySum += self
			proxied++
		}
	}
	if proxied > 0 {
		l.proxySelfUs = us(proxySum) / float64(proxied)
	}
	for id, rt := range p.traceRT {
		var handler time.Duration
		found := false
		for _, n := range r.nodes {
			if v, ok := n.byTrace.Load(id); ok {
				handler, found = v.(time.Duration), true
				break
			}
		}
		if !found {
			continue
		}
		var stages []obs.Span
		hasStep, hasDecode, hasIngest := false, false, false
		for _, sp := range byTrace[id] {
			if ledgerStages[sp.Stage] {
				stages = append(stages, sp)
			}
			hasStep = hasStep || sp.Stage == obs.StageStep
			hasDecode = hasDecode || sp.Stage == obs.StageDecode
			hasIngest = hasIngest || sp.Stage == obs.StageIngest
		}
		// A request whose spans the trace rings already overwrote in
		// part cannot be attributed; only complete chains count.
		if !hasStep || !hasDecode || !hasIngest {
			continue
		}
		attributed := covered(stages)
		if self, ok := proxySelf(byTrace[id]); ok {
			attributed += self
		}
		// round trip - (HTTP overhead + proxy self time + stages), with
		// HTTP overhead = round trip - entry handler time.
		unSum += handler - attributed
		rtSum += rt
		l.joined++
	}
	if l.joined > 0 {
		l.rtUs = us(rtSum) / float64(l.joined)
		l.unattributedUs = us(unSum) / float64(l.joined)
	}
	return l, nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// --- direct layer calls -----------------------------------------------------

// tier is the monitor execution path a session's ticks take in the
// daemon, decided from the session's spec and mode the way the daemon
// decides it.
type tier int

const (
	tierMap    tier = iota // lenient decode, map-state Engine.Step
	tierPacked             // strict BatchDecoder, Engine.StepPacked
	tierLane               // strict BatchDecoder, Table.Fired + Engine.StepFired
)

// kind is the compiled form of one (spec, mode) session shape.
type kind struct {
	mode  monitor.Mode
	mon   *monitor.Monitor
	cs    *synth.CompiledSpec // nil when guard programs do not compile
	vocab *event.Vocabulary   // non-nil on the strict-decode tiers
	tab   *monitor.Table      // non-nil on the lane tier
	tier  tier
}

// assertDiagDepth is the diagnostics window the daemon arms on
// assert-mode sessions by default.
const assertDiagDepth = 8

func newKind(mon *monitor.Monitor, mode monitor.Mode) *kind {
	k := &kind{mode: mode, mon: mon}
	cs, err := synth.NewCompiledSpec(mon)
	if err != nil {
		return k
	}
	k.cs = cs
	if mode != monitor.ModeDetect {
		return k
	}
	v := event.NewVocabulary()
	if v.DeclareSupport(cs.Support()) != nil {
		return k
	}
	k.vocab, k.tier = v, tierPacked
	if tab, err := cs.Table(); err == nil && tab.ChkFree() && sameOrder(v, tab.Support()) {
		k.tab, k.tier = tab, tierLane
	}
	return k
}

func sameOrder(v *event.Vocabulary, sup *event.Support) bool {
	if v.Len() != sup.Len() {
		return false
	}
	for i, sym := range sup.Symbols() {
		if v.Symbol(i) != sym {
			return false
		}
	}
	return true
}

// engine builds the engine a daemon session of this kind steps.
func (k *kind) engine() (*monitor.Engine, error) {
	var eng *monitor.Engine
	switch {
	case k.vocab != nil:
		e, err := k.cs.Program.NewEngineVocab(nil, k.mode, k.vocab)
		if err != nil {
			return nil, err
		}
		eng = e
	case k.cs != nil:
		eng = k.cs.Program.NewEngine(nil, k.mode)
	default:
		eng = monitor.NewEngine(k.mon, nil, k.mode)
	}
	if k.mode == monitor.ModeAssert {
		eng.EnableDiagnostics(assertDiagDepth)
	}
	return eng, nil
}

// strictAccepts reports whether the daemon's strict decoder takes body
// for a session of this kind.
func (k *kind) strictAccepts(body []byte, pb *event.PackedBatch) bool {
	if k.vocab == nil {
		return false
	}
	n, err := event.NewBatchDecoder(k.vocab).Decode(body, pb, 0)
	return err == nil && n > 0
}

// minTimed is how long each direct layer timing repeats its inputs.
const minTimed = 100 * time.Millisecond

// decodeNsPerTick times the decode path the daemon runs for this kind
// over the given bodies: BatchDecoder.Decode on the strict tiers, the
// encoding/json + StateJSON.ToState path otherwise.
func (k *kind) decodeNsPerTick(bodies [][]byte) (float64, error) {
	pb := new(event.PackedBatch)
	var bd *event.BatchDecoder
	if k.vocab != nil {
		bd = event.NewBatchDecoder(k.vocab)
	}
	ticks := 0
	start := time.Now()
	for time.Since(start) < minTimed {
		for _, body := range bodies {
			if bd != nil {
				n, err := bd.Decode(body, pb, 0)
				if err != nil {
					return 0, err
				}
				ticks += n
				continue
			}
			states, err := decodeStates(body)
			if err != nil {
				return 0, err
			}
			ticks += len(states)
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(ticks), nil
}

// stepNsPerTick times one stepping tier of this kind over the given
// bodies, decoded beforehand. tierLane is timed on one session's engine,
// since Table.Fired and StepFired cost the same per lane.
func (k *kind) stepNsPerTick(bodies [][]byte, t tier) (float64, error) {
	eng, err := k.engine()
	if err != nil {
		return 0, err
	}
	var packed []*event.PackedBatch
	var states [][]event.State
	for _, body := range bodies {
		if k.vocab != nil {
			pb := new(event.PackedBatch)
			if _, err := event.NewBatchDecoder(k.vocab).Decode(body, pb, 0); err != nil {
				return 0, err
			}
			packed = append(packed, pb)
			continue
		}
		st, err := decodeStates(body)
		if err != nil {
			return 0, err
		}
		states = append(states, st)
	}
	ticks := 0
	start := time.Now()
	for time.Since(start) < minTimed {
		switch t {
		case tierLane:
			for _, pb := range packed {
				for i := 0; i < pb.Len(); i++ {
					eng.StepFired(k.tab.Fired(eng.State(), pb.Word(i, 0)))
				}
				ticks += pb.Len()
			}
		case tierPacked:
			for _, pb := range packed {
				for i := 0; i < pb.Len(); i++ {
					eng.StepPacked(pb.Tick(i))
				}
				ticks += pb.Len()
			}
		default:
			for _, batch := range states {
				for _, st := range batch {
					eng.Step(st)
				}
				ticks += len(batch)
			}
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(ticks), nil
}

// compileMs times what loading the workload's charts costs the
// synthesizer: parse, synthesize, table compile and guard-program
// compile of every chart, as the daemon's spec registry does them. It
// returns the median of reps totals.
func compileMs(t *traffic, reps int) (float64, error) {
	totals := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		for _, sp := range t.specs {
			f, err := parser.Parse(sp.src)
			if err != nil {
				return 0, err
			}
			for _, n := range f.Charts {
				m, err := synth.Synthesize(n.Chart, nil)
				if err != nil {
					return 0, err
				}
				_, _ = monitor.Compile(m)       // too-wide monitors still load; so does the benchmark
				_, _ = synth.NewCompiledSpec(m) // likewise: failure degrades to interpretation
			}
		}
		totals = append(totals, float64(time.Since(start).Nanoseconds())/1e6)
	}
	return median(totals), nil
}

// layerKinds compiles one kind per (spec, mode) the traffic uses.
func layerKinds(t *traffic) (map[string]*kind, error) {
	mons, err := synthesize(t)
	if err != nil {
		return nil, err
	}
	kinds := map[string]*kind{}
	for _, st := range t.streams {
		key := st.spec + "/" + st.mode
		if _, ok := kinds[key]; ok {
			continue
		}
		mode, err := parseMode(st.mode)
		if err != nil {
			return nil, err
		}
		kinds[key] = newKind(mons[st.spec], mode)
	}
	return kinds, nil
}

// directLayers times the decode and step layers on the workload's own
// bodies, weighting each session shape by its share of sessions (every
// session gets the same traffic), and models the share of sent batches
// the strict decoder takes by running the daemon's tier rules (newKind)
// over them. laneShare is the daemon's reported share of ticks it stepped
// in lane groups.
//
// A lane-eligible batch steps in a lane group only when a batch of
// another session on the same table shares its drain window; alone, it
// takes the scalar StepPacked path. Lane-eligible kinds are therefore
// timed on both tiers, weighted by the share of lane-eligible ticks that
// laneShare implies went through lane groups.
func directLayers(t *traffic, sessions []*session, laneShare float64) (decodeNs, stepNs, fastShare float64, err error) {
	kinds, err := layerKinds(t)
	if err != nil {
		return 0, 0, 0, err
	}
	var applied, eligible int
	for _, s := range sessions {
		s.eachApplied(func(int) {
			applied++
			if kinds[s.stream.spec+"/"+s.stream.mode].tier == tierLane {
				eligible++
			}
		})
	}
	laneFrac := 0.0
	if eligible > 0 {
		laneFrac = min(1, laneShare*float64(applied)/float64(eligible))
	}
	// Bodies of up to samplePerKind sessions stand for each kind.
	const samplePerKind = 8
	bodies := map[string][][]byte{}
	weight := map[string]int{}
	for _, st := range t.streams {
		key := st.spec + "/" + st.mode
		weight[key]++
		if weight[key] <= samplePerKind {
			bodies[key] = append(bodies[key], st.batches...)
		}
	}
	keys := make([]string, 0, len(weight))
	for key := range weight {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		k := kinds[key]
		d, err := k.decodeNsPerTick(bodies[key])
		if err != nil {
			return 0, 0, 0, fmt.Errorf("%s decode: %w", key, err)
		}
		s, err := k.stepNsPerTick(bodies[key], k.tier)
		if err != nil {
			return 0, 0, 0, fmt.Errorf("%s step: %w", key, err)
		}
		if k.tier == tierLane {
			scalar, err := k.stepNsPerTick(bodies[key], tierPacked)
			if err != nil {
				return 0, 0, 0, fmt.Errorf("%s step: %w", key, err)
			}
			s = laneFrac*s + (1-laneFrac)*scalar
		}
		w := float64(weight[key]) / float64(len(t.streams))
		decodeNs += w * d
		stepNs += w * s
	}
	// Strict-decoder acceptance over the batches actually sent, as the
	// daemon's tier rules decide it.
	pb := new(event.PackedBatch)
	var sent, strict int
	accepts := map[*stream][]bool{}
	for _, s := range sessions {
		flags, ok := accepts[s.stream]
		if !ok {
			k := kinds[s.stream.spec+"/"+s.stream.mode]
			for _, body := range s.stream.batches {
				flags = append(flags, k.strictAccepts(body, pb))
			}
			accepts[s.stream] = flags
		}
		s.eachApplied(func(idx int) {
			sent++
			if flags[idx] {
				strict++
			}
		})
	}
	if sent > 0 {
		fastShare = float64(strict) / float64(sent)
	}
	return decodeNs, stepNs, fastShare, nil
}
