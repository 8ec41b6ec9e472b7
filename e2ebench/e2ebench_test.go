package main

import (
	"path/filepath"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/wal"
)

// smoke runs a short fixed-seed traced run of one workload and returns
// its per-layer metrics. It fails the test on any failed request or a
// failed correctness gate.
func smoke(t *testing.T, name string, d time.Duration) map[string]float64 {
	t.Helper()
	w, ok := lookupWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	o := options{root: "..", workDir: t.TempDir(), seed: 7, measure: d,
		warmup: 200 * time.Millisecond, conns: w.conns, setupReps: 1}
	rep, err := runWorkload(w, o, true)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct {
		t.Fatalf("correctness gate: %v", rep.checkErr)
	}
	if rep.Attempted == 0 || rep.Failed != 0 {
		t.Fatalf("attempted %d, failed %d", rep.Attempted, rep.Failed)
	}
	got := map[string]float64{}
	for k, m := range rep.Metrics {
		got[k] = m.Value
	}
	if got["trace.joined_requests"] == 0 {
		t.Errorf("no traced request joined its spans")
	}
	return got
}

// journaledFastShare drives a workload briefly on a daemon with the WAL
// on, then reads back from the journals the daemon wrote which decode
// path it took: fast-path batches are journaled as raw frames, lenient
// ones as re-encoded batch records. event.fastpath_share models the
// daemon's choice from its tier rules; this observes it.
func journaledFastShare(t *testing.T, name string) float64 {
	t.Helper()
	w, ok := lookupWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	jw := *w
	jw.wal = true
	tr, err := jw.traffic("..", 7, &jw)
	if err != nil {
		t.Fatal(err)
	}
	r, err := startRig(&jw, tr, t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	drive(r, 2, 300*time.Millisecond, false)
	r.stop()
	var raw, batches int
	for _, n := range r.nodes {
		mgr, err := wal.OpenManager(wal.Options{Dir: filepath.Join(r.dir, n.name, "wal")})
		if err != nil {
			t.Fatal(err)
		}
		ids, err := mgr.List()
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			j, err := mgr.OpenJournal(id, func(rec wal.Record) error {
				switch rec.Kind {
				case server.RecordBatchRaw, server.RecordBatchRawTraced:
					raw++
					batches++
				case server.RecordBatch:
					batches++
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if batches == 0 {
		t.Fatal("no batches journaled")
	}
	return float64(raw) / float64(batches)
}

// The mechanism checks keep every workload on the layer it exists to
// measure: a change that silently routes a workload around its layer
// fails here rather than producing a plausible number.

func TestOCPDetectTakesStrictDecoderWithoutLanes(t *testing.T) {
	m := smoke(t, "ocp-detect-wait64", time.Second)
	if m["event.fastpath_share"] < 0.99 {
		t.Errorf("event.fastpath_share = %v, want ~1", m["event.fastpath_share"])
	}
	if got := journaledFastShare(t, "ocp-detect-wait64"); got < 0.99 {
		t.Errorf("daemon journaled %v of batches as fast-path frames, want ~1", got)
	}
	if m["monitor.lane_tick_share"] != 0 {
		t.Errorf("monitor.lane_tick_share = %v, want 0", m["monitor.lane_tick_share"])
	}
	if m["wal.bytes_per_batch"] != 0 || m["cluster.proxied_share"] != 0 {
		t.Errorf("WAL or proxy active on a standalone WAL-less daemon: %v bytes/batch, %v proxied",
			m["wal.bytes_per_batch"], m["cluster.proxied_share"])
	}
}

func TestBurstAssertTakesLenientDecoder(t *testing.T) {
	m := smoke(t, "burst-assert-bulk1024", time.Second)
	if m["event.fastpath_share"] != 0 {
		t.Errorf("event.fastpath_share = %v, want 0", m["event.fastpath_share"])
	}
	if got := journaledFastShare(t, "burst-assert-bulk1024"); got != 0 {
		t.Errorf("daemon journaled %v of batches as fast-path frames, want 0", got)
	}
}

func TestMinedRingExercisesLanesProxyAndWAL(t *testing.T) {
	m := smoke(t, "mined-stream-ring", 3*time.Second)
	if m["monitor.lane_tick_share"] <= 0 {
		t.Errorf("monitor.lane_tick_share = %v, want > 0", m["monitor.lane_tick_share"])
	}
	if p := m["cluster.proxied_share"]; p <= 0 || p >= 1 {
		t.Errorf("cluster.proxied_share = %v, want strictly between 0 and 1", p)
	}
	if m["wal.bytes_per_batch"] <= 0 {
		t.Errorf("wal.bytes_per_batch = %v, want > 0", m["wal.bytes_per_batch"])
	}
	if m["server.verdict_read_us"] <= 0 {
		t.Errorf("no verdict reads timed")
	}
}

// TestGateCatchesMismatch shows the correctness gate can fail: with one
// acknowledged batch dropped from the client's record, the daemon's
// verdicts no longer match the reference.
func TestGateCatchesMismatch(t *testing.T) {
	w, _ := lookupWorkload("ocp-detect-wait64")
	tr, err := w.traffic("..", 3, w)
	if err != nil {
		t.Fatal(err)
	}
	r, err := startRig(w, tr, t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	drive(r, 2, 200*time.Millisecond, false)
	if err := checkVerdicts(r, tr); err != nil {
		t.Fatalf("gate failed on an honest record: %v", err)
	}
	s := r.sessions[0]
	if len(s.applied) == 0 {
		t.Fatal("session 0 got no traffic")
	}
	s.applied[len(s.applied)-1].to--
	if err := checkVerdicts(r, tr); err == nil {
		t.Fatal("gate passed with a batch missing from the reference")
	}
}

func TestCoveredUnionsOverlaps(t *testing.T) {
	t0 := time.Unix(0, 0)
	spans := []obs.Span{
		{Start: t0, Dur: 10},
		{Start: t0.Add(5), Dur: 10}, // overlaps the first: adds 5
		{Start: t0.Add(30), Dur: 4}, // disjoint: adds 4
		{Start: t0.Add(31), Dur: 1}, // inside the third: adds 0
	}
	if got := covered(spans); got != 19 {
		t.Fatalf("covered = %v, want 19ns", got)
	}
}
