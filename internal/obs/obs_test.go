package obs

import (
	"bytes"
	"log/slog"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestTracerDisabledIsNoop(t *testing.T) {
	var zero Tracer
	for _, tr := range []*Tracer{nil, &zero, NewTracer(4, 0)} {
		if tr.Enabled() {
			t.Fatalf("tracer %v enabled, want disabled", tr)
		}
		tr.Record(0, Span{Stage: StageStep})
		if got := tr.Snapshot(nil, 0); got != nil {
			t.Fatalf("snapshot of disabled tracer = %v, want nil", got)
		}
		if tr.Spans() != 0 {
			t.Fatalf("disabled tracer counted spans")
		}
	}
}

func TestTracerRecordSnapshotOrder(t *testing.T) {
	tr := NewTracer(2, 8)
	tr.Record(0, Span{Stage: StageDecode, Session: "a", Ticks: 3})
	tr.Record(1, Span{Stage: StageStep, Session: "b"})
	tr.Record(0, Span{Stage: StageStep, Session: "a"})
	tr.Record(-1, Span{Stage: StageWALReplay})
	got := tr.Snapshot(nil, 0)
	if len(got) != 4 {
		t.Fatalf("snapshot = %d spans, want 4", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Seq <= got[i-1].Seq {
			t.Fatalf("snapshot out of order: %+v", got)
		}
	}
	if got[0].Stage != StageDecode || got[0].Ticks != 3 || got[0].Shard != 0 {
		t.Errorf("first span = %+v", got[0])
	}
	if got[3].Shard != -1 {
		t.Errorf("unpinned span shard = %d, want -1", got[3].Shard)
	}
	if tr.Spans() != 4 {
		t.Errorf("Spans() = %d, want 4", tr.Spans())
	}

	// Filter + tail.
	sess := tr.Snapshot(func(sp *Span) bool { return sp.Session == "a" }, 1)
	if len(sess) != 1 || sess[0].Stage != StageStep {
		t.Errorf("filtered tail = %+v, want the newest session-a span", sess)
	}

	// Multi-shard, wrapped rings: each ring keeps only its newest depth
	// spans and snapshots them in slot order (a rotation), so the merged
	// snapshot must still come back in strict Seq order, and the
	// newest-n cut must take the globally newest retained spans.
	const shards, depth = 3, 8
	tr = NewTracer(shards, depth)
	route := []int{0, 1, 0, 2, -1} // uneven, so the rings wrap at different seqs
	perRing := make([][]uint64, shards+1)
	for i := 0; i < 157; i++ {
		shard := route[i%len(route)]
		tr.Record(shard, Span{Stage: StageStep})
		ring := shard
		if ring < 0 {
			ring = shards
		}
		perRing[ring] = append(perRing[ring], uint64(i+1))
	}
	var want []uint64
	for _, seqs := range perRing {
		if len(seqs) <= depth {
			t.Fatalf("ring holds %d spans, want it wrapped past depth %d", len(seqs), depth)
		}
		want = append(want, seqs[len(seqs)-depth:]...)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for _, n := range []int{0, 5, len(want), len(want) + 3} {
		got := tr.Snapshot(nil, n)
		exp := want
		if n > 0 && n < len(want) {
			exp = want[len(want)-n:]
		}
		if len(got) != len(exp) {
			t.Fatalf("wrapped snapshot n=%d: %d spans, want %d", n, len(got), len(exp))
		}
		for i, sp := range got {
			if sp.Seq != exp[i] {
				t.Fatalf("wrapped snapshot n=%d: span %d has seq %d, want %d", n, i, sp.Seq, exp[i])
			}
		}
	}
}

func TestRingOverwritesOldest(t *testing.T) {
	r := NewRing(4)
	for i := 1; i <= 10; i++ {
		r.Put(&Span{Seq: uint64(i)})
	}
	snap := r.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot = %d, want 4", len(snap))
	}
	min := snap[0].Seq
	for _, sp := range snap {
		if sp.Seq < min {
			min = sp.Seq
		}
	}
	if min != 7 {
		t.Errorf("oldest retained seq = %d, want 7 (newest 4 of 10)", min)
	}
}

func TestPromWriterFormat(t *testing.T) {
	w := NewPromWriter()
	w.Family("cescd_ticks_total", "counter", "ticks processed")
	w.Sample("cescd_ticks_total", nil, 42)
	w.Family("cescd_accepts_total", "counter", "per-spec accepts")
	w.Sample("cescd_accepts_total", []L{{"spec", `we"ird\na-me`}}, 7)
	w.Family("cescd_lat_seconds", "histogram", "latency")
	w.Histogram("cescd_lat_seconds", []L{{"stage", "step"}},
		[]float64{0.001, 0.01}, []uint64{3, 2, 1}, 0.05)
	text := w.String()

	n, err := ValidatePromText(text)
	if err != nil {
		t.Fatalf("invalid exposition: %v\n%s", err, text)
	}
	if n != 7 { // 2 plain samples + 3 buckets + sum + count
		t.Errorf("parsed %d samples, want 7\n%s", n, text)
	}
	for _, want := range []string{
		"# TYPE cescd_ticks_total counter",
		`cescd_accepts_total{spec="we\"ird\\na-me"} 7`,
		`cescd_lat_seconds_bucket{stage="step",le="+Inf"} 6`,
		"cescd_lat_seconds_count{stage=\"step\"} 6",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

func TestPromValidatorCatchesGarbage(t *testing.T) {
	for _, bad := range []string{
		"no_declaration 1\n",
		"# HELP x h\n# TYPE x counter\nx{unterminated=\"v 1\n",
		"# HELP x h\n# TYPE x counter\nx notanumber\n",
	} {
		if _, err := ValidatePromText(bad); err == nil {
			t.Errorf("validator accepted %q", bad)
		}
	}
}

func TestWatchdog(t *testing.T) {
	var buf bytes.Buffer
	wd := NewWatchdog(time.Millisecond, slog.New(slog.NewTextHandler(&buf, nil)))
	if wd.Observe(10*time.Millisecond, 100, "t1", "s1", 0) {
		t.Error("100µs/tick flagged slow at 1ms threshold")
	}
	if !wd.Observe(500*time.Millisecond, 10, "t2", "s2", 1) {
		t.Error("50ms/tick not flagged slow at 1ms threshold")
	}
	if wd.Slow() != 1 {
		t.Errorf("slow count = %d, want 1", wd.Slow())
	}
	out := buf.String()
	for _, want := range []string{"slow tick batch", "trace=t2", "session=s2"} {
		if !strings.Contains(out, want) {
			t.Errorf("log missing %q: %s", want, out)
		}
	}

	// Disabled watchdogs never flag.
	var nilWd *Watchdog
	if nilWd.Observe(time.Hour, 1, "", "", 0) || nilWd.Enabled() {
		t.Error("nil watchdog flagged a batch")
	}
	off := NewWatchdog(0, nil)
	if off.Observe(time.Hour, 1, "", "", 0) || off.Enabled() {
		t.Error("zero-threshold watchdog flagged a batch")
	}
}

func TestWatchdogRateLimit(t *testing.T) {
	var buf bytes.Buffer
	wd := NewWatchdog(time.Nanosecond, slog.New(slog.NewTextHandler(&buf, nil)))
	for i := 0; i < 50; i++ {
		wd.Observe(time.Second, 1, "t", "s", 0)
	}
	if wd.Slow() != 50 {
		t.Errorf("slow count = %d, want 50", wd.Slow())
	}
	if got := strings.Count(buf.String(), "slow tick batch"); got != 1 {
		t.Errorf("logged %d warnings in one second, want 1 (rate limit)", got)
	}
}

// TestTracerRecordBatch checks the amortized batch write path matches
// per-span Record semantics: sequencing interleaves correctly with
// scalar records, shard routing holds, and the span count is exact.
func TestTracerRecordBatch(t *testing.T) {
	tr := NewTracer(2, 16)
	var none *Tracer
	none.RecordBatch(0, []Span{{Stage: StageStep}}) // nil tracer is inert
	tr.RecordBatch(0, nil)                          // empty batch is free

	tr.Record(0, Span{Stage: StageDecode, Session: "a"})
	tr.RecordBatch(1, []Span{
		{Stage: StageQueueWait, Session: "b", Ticks: 64},
		{Stage: StageStep, Session: "b", Ticks: 64},
	})
	tr.Record(-1, Span{Stage: StageWALReplay})
	got := tr.Snapshot(nil, 0)
	if len(got) != 4 {
		t.Fatalf("snapshot = %d spans, want 4", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Seq != got[i-1].Seq+1 {
			t.Fatalf("sequence not dense: %+v", got)
		}
	}
	if got[1].Stage != StageQueueWait || got[2].Stage != StageStep {
		t.Fatalf("batch order not preserved: %+v", got)
	}
	if got[1].Shard != 1 || got[2].Shard != 1 {
		t.Fatalf("batch spans not pinned to shard: %+v", got)
	}
	if tr.Spans() != 4 {
		t.Errorf("Spans() = %d, want 4", tr.Spans())
	}
}
