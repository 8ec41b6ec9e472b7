package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/amba"
	"repro/internal/chart"
	"repro/internal/ocp"
	"repro/internal/parser"
	"repro/internal/server"
	"repro/internal/trace"
)

// workload is one traffic mix: the charts the daemon loads, the session
// population, the request shape, and the daemon topology it runs on.
type workload struct {
	name string
	// why is the one-line rationale recorded with every result.
	why      string
	sessions int
	// batch is the number of ticks in one tick request.
	batch int
	// conns is the number of closed-loop client connections (at most the
	// processor count). The generator shares the processors with the
	// daemon, so a second connection pays only where stepping keeps a
	// shard busy while its client waits: on 2 vCPUs it added no ticks/s on
	// 64-tick batches and turned their p99 into a measure of scheduler
	// contention (1.4 ms against 0.17 ms on ocp-detect-wait64), while on
	// 1024-tick batches it raised ticks/s from 0.30 M to 0.49 M.
	conns int
	// pool is the number of distinct batches generated per session; a
	// session's stream cycles through its pool, so the request bodies
	// exist before timing starts and generation never runs in the loop.
	pool int
	// ring runs a 2-node cluster with the WAL and standby replication on,
	// and drives it in cycles of asyncPerCycle async ?seq batches, one
	// ?wait=1 barrier and one verdict read, entering through alternating
	// nodes. Otherwise one standalone daemon takes ?wait=1 requests only.
	ring bool
	// wal turns on the WAL of a standalone daemon (a ring always has it).
	// The benchmark's tests use it to read back the decode path the daemon
	// took from the record kinds it journaled.
	wal bool
	// traffic builds the charts and per-session streams from a seed.
	traffic func(root string, seed int64, w *workload) (*traffic, error)
}

// asyncPerCycle is the number of async batches a ring cycle sends before
// its barrier.
const asyncPerCycle = 7

// specDef is one chart the daemon loads, as .cesc source.
type specDef struct {
	name  string
	src   string
	chart chart.Chart
}

// stream is one session's traffic: its spec, its mode, and the NDJSON
// bodies it cycles through.
type stream struct {
	spec    string
	mode    string
	batches [][]byte
}

// traffic is everything a workload sends, generated before set-up.
type traffic struct {
	specs   []specDef
	streams []stream
}

// workloads are the mixes the benchmark runs by name; BENCHMARK.json
// lists them with the same rationale.
var workloads = []*workload{
	{
		name: "ocp-detect-wait64",
		why: "per-request cost dominates: HTTP framing, body read, strict batch decode, " +
			"shard handoff and response write on small ?wait=1 batches; lanes, WAL and cluster are bypassed",
		sessions: 256, batch: 64, conns: 1, pool: 8,
		traffic: ocpDetectTraffic,
	},
	{
		name: "burst-assert-bulk1024",
		why: "stepping dominates: assert sessions take the map-state Engine.Step path with diagnostics " +
			"and the lenient decoder, with per-request cost amortized over 1024-tick batches",
		sessions: 64, batch: 1024, conns: 2, pool: 2,
		traffic: burstAssertTraffic,
	},
	{
		name: "mined-stream-ring",
		why: "the only mix with lane grouping (chk-free mined implies views), journaling, " +
			"proxying, standby replication and verdict reads beside writes",
		sessions: 256, batch: 64, conns: 1, pool: 8, ring: true,
		traffic: minedRingTraffic,
	},
}

func lookupWorkload(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// sessionSeed derives a per-session seed, so one session's stream does
// not depend on how many other sessions the workload has.
func sessionSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i)*7919 + 1 }

func newSpec(name string, c chart.Chart) specDef {
	return specDef{name: name, src: parser.Print(name, c), chart: c}
}

// encodeBatches renders a trace as compact NDJSON bodies of n ticks each
// (the trace length must be a multiple of n).
func encodeBatches(tr trace.Trace, n int) ([][]byte, error) {
	var out [][]byte
	var buf bytes.Buffer
	for i, st := range tr {
		line, err := json.Marshal(server.EncodeState(st))
		if err != nil {
			return nil, fmt.Errorf("encoding tick %d: %w", i, err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
		if (i+1)%n == 0 {
			out = append(out, bytes.Clone(buf.Bytes()))
			buf.Reset()
		}
	}
	return out, nil
}

// ocpDetectTraffic: every session runs the Fig. 6 simple read in detect
// mode over its own OCP model run with a few injected faults.
func ocpDetectTraffic(_ string, seed int64, w *workload) (*traffic, error) {
	sp := newSpec("OcpSimpleRead", ocp.SimpleReadChart())
	t := &traffic{specs: []specDef{sp}}
	for i := 0; i < w.sessions; i++ {
		s := sessionSeed(seed, i)
		m := ocp.NewModel(ocp.Config{Gap: int(s % 3), FaultRate: 0.05, Seed: s})
		bodies, err := encodeBatches(m.GenerateTrace(w.pool*w.batch), w.batch)
		if err != nil {
			return nil, err
		}
		t.streams = append(t.streams, stream{spec: sp.name, mode: "detect", batches: bodies})
	}
	return t, nil
}

// burstAssertTraffic: half the sessions assert the Fig. 7 OCP burst read
// over burst traffic, half the Fig. 8 AHB CLI write over AHB traffic,
// both with injected faults so violations and their provenance occur.
func burstAssertTraffic(_ string, seed int64, w *workload) (*traffic, error) {
	burst := newSpec("OcpBurstRead", ocp.BurstReadChart())
	ahb := newSpec("AmbaAhbCli", amba.TransactionChart())
	t := &traffic{specs: []specDef{burst, ahb}}
	for i := 0; i < w.sessions; i++ {
		s := sessionSeed(seed, i)
		n := w.pool * w.batch
		var tr trace.Trace
		spec := burst.name
		if i%2 == 0 {
			tr = ocp.NewModel(ocp.Config{Burst: true, Gap: int(s % 2), FaultRate: 0.1, Seed: s}).GenerateTrace(n)
		} else {
			spec = ahb.name
			tr = amba.NewModel(amba.Config{Gap: int(s % 2), FaultRate: 0.1, Seed: s}).GenerateTrace(n)
		}
		bodies, err := encodeBatches(tr, w.batch)
		if err != nil {
			return nil, err
		}
		t.streams = append(t.streams, stream{spec: spec, mode: "assert", batches: bodies})
	}
	return t, nil
}

// minedRingTraffic: every chart of the golden mining corpus (scenario
// and implies views alike) backs an equal share of single-spec detect
// sessions, each replaying lines of the chart's own corpus from seeded
// offsets.
func minedRingTraffic(root string, seed int64, w *workload) (*traffic, error) {
	files, err := filepath.Glob(filepath.Join(root, "testdata", "corpus", "golden", "*.cesc"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no golden charts under %s", filepath.Join(root, "testdata", "corpus", "golden"))
	}
	sort.Strings(files)
	t := &traffic{}
	var corpora [][]string // corpus lines, parallel to t.specs
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		parsed, err := parser.Parse(string(src))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		corpus := filepath.Join(filepath.Dir(filepath.Dir(f)), strings.TrimSuffix(filepath.Base(f), ".cesc")+".ndjson")
		raw, err := os.ReadFile(corpus)
		if err != nil {
			return nil, err
		}
		var lines []string
		for _, l := range strings.Split(string(raw), "\n") {
			if l = strings.TrimSpace(l); l != "" {
				lines = append(lines, l)
			}
		}
		if len(lines) == 0 {
			return nil, fmt.Errorf("%s: empty corpus", corpus)
		}
		for _, n := range parsed.Charts {
			t.specs = append(t.specs, newSpec(n.Name, n.Chart))
			corpora = append(corpora, lines)
		}
	}
	for i := 0; i < w.sessions; i++ {
		// Sessions are created on alternating nodes; pairing sessions
		// 2j and 2j+1 on one chart puts every chart on both nodes.
		k := (i / 2) % len(t.specs)
		lines := corpora[k]
		rng := rand.New(rand.NewSource(sessionSeed(seed, i)))
		var bodies [][]byte
		for b := 0; b < w.pool; b++ {
			var buf bytes.Buffer
			off := rng.Intn(len(lines))
			for j := 0; j < w.batch; j++ {
				buf.WriteString(lines[(off+j)%len(lines)])
				buf.WriteByte('\n')
			}
			bodies = append(bodies, buf.Bytes())
		}
		t.streams = append(t.streams, stream{spec: t.specs[k].name, mode: "detect", batches: bodies})
	}
	return t, nil
}
