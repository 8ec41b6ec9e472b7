package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"repro/internal/event"
	"repro/internal/monitor"
	"repro/internal/ocp"
	"repro/internal/parser"
	"repro/internal/synth"
	"repro/internal/wal"
)

// getBody fetches url and returns the raw response body.
func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, data)
	}
	return data
}

// journalKinds counts the record kinds in a session's journal.
func journalKinds(t *testing.T, dir, id string) map[byte]int {
	t.Helper()
	mgr, err := wal.OpenManager(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[byte]int{}
	j, err := mgr.OpenJournal(id, func(rec wal.Record) error {
		kinds[rec.Kind]++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	j.Abandon()
	return kinds
}

// TestAssertSessionJournalsRawFrames checks that an assert-mode session
// rides the packed fast path: compact NDJSON batches are journaled as
// raw-body frames, never re-encoded as map-state batch records.
func TestAssertSessionJournalsRawFrames(t *testing.T) {
	dir := t.TempDir()
	s, ts := newWALServer(t, dir, Config{Shards: 1, QueueDepth: 16, SnapshotEvery: -1})
	sess := createSession(t, ts.URL, "assert", "OcpSimpleRead", "OcpSimpleReadB")
	if live, ok := s.session(sess.ID); !ok || !live.fastPath {
		t.Fatal("assert session is not on the packed fast path")
	}
	tr := ocp.NewModel(ocp.Config{Gap: 2, Seed: 4, FaultRate: 0.2}).GenerateTrace(200)
	streamTicks(t, ts.URL, sess.ID, tr, 25)
	if v := verdictFor(t, ts.URL, sess.ID, "OcpSimpleRead"); v.Violations == 0 {
		t.Fatal("faulty trace raised no violations; diagnostics are not exercised")
	}
	s.Crash()
	ts.Close()
	kinds := journalKinds(t, dir, sess.ID)
	if kinds[RecordBatchRaw] != 8 || kinds[RecordBatch] != 0 {
		t.Fatalf("journal holds %d raw and %d map batch records, want 8 and 0", kinds[RecordBatchRaw], kinds[RecordBatch])
	}
}

// TestAssertDiagnosticsMatchMapReference compares an assert session's
// /diagnostics, for every monitor of a two-spec session (so the shared
// vocabulary's slot order differs from each support's), against a
// map-fed interpreted engine over in-vocabulary input. Input outside the
// vocabulary is then shown to be projected away.
func TestAssertDiagnosticsMatchMapReference(t *testing.T) {
	s, err := New(Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	src := parser.Print("OcpBurstRead", ocp.BurstReadChart()) + parser.Print("OcpSimpleRead", ocp.SimpleReadChart())
	if _, err := s.LoadSpecSource(src); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	tr := append(ocp.NewModel(ocp.Config{Gap: 2, Seed: 7, FaultRate: 0.25}).GenerateTrace(250),
		ocp.NewModel(ocp.Config{Gap: 2, Seed: 8, FaultRate: 0.25, Burst: true}).GenerateTrace(250)...)
	sess := createSession(t, ts.URL, "assert", "OcpBurstRead", "OcpSimpleRead")
	streamTicks(t, ts.URL, sess.ID, tr, 64)
	var got DiagnosticsJSON
	doJSON(t, "GET", fmt.Sprintf("%s/sessions/%s/diagnostics", ts.URL, sess.ID), nil, http.StatusOK, &got)

	charts := map[string]*monitor.Monitor{}
	for _, sp := range []struct {
		name string
		mon  func() (*monitor.Monitor, error)
	}{
		{"OcpBurstRead", func() (*monitor.Monitor, error) { return synth.Synthesize(ocp.BurstReadChart(), nil) }},
		{"OcpSimpleRead", func() (*monitor.Monitor, error) { return synth.Synthesize(ocp.SimpleReadChart(), nil) }},
	} {
		m, err := sp.mon()
		if err != nil {
			t.Fatal(err)
		}
		charts[sp.name] = m
	}
	for _, md := range got.Monitors {
		ref := monitor.NewEngine(charts[md.Spec], nil, monitor.ModeAssert)
		ref.EnableDiagnostics(defaultDiagDepth)
		ref.Run(tr)
		var want []DiagnosticJSON
		for _, d := range ref.Diagnostics() {
			want = append(want, diagnosticJSON(d))
		}
		gotJSON, _ := json.Marshal(md.Diagnostics)
		wantJSON, _ := json.Marshal(want)
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Errorf("%s: /diagnostics diverge from the map-path reference:\n got %s\nwant %s", md.Spec, gotJSON, wantJSON)
		}
		if len(md.Diagnostics) == 0 {
			t.Errorf("%s: no diagnostics recorded; the comparison is vacuous", md.Spec)
		}
	}

	// Out-of-vocabulary input: the session reports vocabulary projections.
	noisy := make([]event.State, len(tr))
	for i, st := range tr {
		noisy[i] = st.WithEvents("Noise")
	}
	quiet := createSession(t, ts.URL, "assert", "OcpSimpleRead")
	streamTicks(t, ts.URL, quiet.ID, noisy[:200], 50)
	body := getBody(t, fmt.Sprintf("%s/sessions/%s/diagnostics", ts.URL, quiet.ID))
	if !bytes.Contains(body, []byte(`"valuation"`)) {
		t.Fatalf("no diagnostics recorded: %s", body)
	}
	if bytes.Contains(body, []byte("Noise")) {
		t.Fatalf("out-of-vocabulary event reported in diagnostics: %s", body)
	}
}

// TestAssertRecoveryKeepsVerdictsAndDiagnostics checks that crash
// recovery and page-out/revival of an assert session leave /verdicts and
// /diagnostics byte-identical, with checkpoints small enough that the
// packed diagnostics ring goes through snapshot restore, and that the
// stream then continues exactly like an uninterrupted one.
func TestAssertRecoveryKeepsVerdictsAndDiagnostics(t *testing.T) {
	tr := ocp.NewModel(ocp.Config{Gap: 2, Seed: 13, FaultRate: 0.2}).GenerateTrace(480)
	cfg := Config{Shards: 1, QueueDepth: 16, SnapshotEvery: 3}
	_, refTS := newWALServer(t, t.TempDir(), cfg)
	ref := createSession(t, refTS.URL, "assert", "OcpSimpleRead", "OcpSimpleReadB")
	streamTicks(t, refTS.URL, ref.ID, tr, 32)
	want := monitorsJSON(t, refTS.URL, ref.ID)

	dir := t.TempDir()
	s1, ts1 := newWALServer(t, dir, cfg)
	sess := createSession(t, ts1.URL, "assert", "OcpSimpleRead", "OcpSimpleReadB")
	streamTicks(t, ts1.URL, sess.ID, tr[:240], 32) // ends mid-checkpoint interval
	vURL := func(base string) string { return fmt.Sprintf("%s/sessions/%s/verdicts", base, sess.ID) }
	dURL := func(base string) string { return fmt.Sprintf("%s/sessions/%s/diagnostics", base, sess.ID) }
	verdicts, diags := getBody(t, vURL(ts1.URL)), getBody(t, dURL(ts1.URL))
	if !bytes.Contains(diags, []byte(`"recent"`)) {
		t.Fatalf("no diagnostics with a recent window before the crash: %s", diags)
	}
	s1.Crash()
	ts1.Close()

	s2, ts2 := newWALServer(t, dir, cfg)
	if got := getBody(t, vURL(ts2.URL)); !bytes.Equal(got, verdicts) {
		t.Fatalf("/verdicts changed across crash recovery:\n got %s\nwant %s", got, verdicts)
	}
	if got := getBody(t, dURL(ts2.URL)); !bytes.Equal(got, diags) {
		t.Fatalf("/diagnostics changed across crash recovery:\n got %s\nwant %s", got, diags)
	}

	streamTicks(t, ts2.URL, sess.ID, tr[240:350], 32)
	verdicts, diags = getBody(t, vURL(ts2.URL)), getBody(t, dURL(ts2.URL))
	doJSON(t, "POST", ts2.URL+"/sessions/"+sess.ID+"/pageout", nil, http.StatusOK, nil)
	if s2.Metrics().SessionsCold != 1 {
		t.Fatal("session not cold after pageout")
	}
	if got := getBody(t, vURL(ts2.URL)); !bytes.Equal(got, verdicts) {
		t.Fatalf("/verdicts changed across page-out/revival:\n got %s\nwant %s", got, verdicts)
	}
	if got := getBody(t, dURL(ts2.URL)); !bytes.Equal(got, diags) {
		t.Fatalf("/diagnostics changed across page-out/revival:\n got %s\nwant %s", got, diags)
	}

	streamTicks(t, ts2.URL, sess.ID, tr[350:], 32)
	if got := monitorsJSON(t, ts2.URL, sess.ID); !bytes.Equal(got, want) {
		t.Fatalf("verdicts after recovery and revival differ from an uninterrupted run:\n got %s\nwant %s", got, want)
	}
}

// TestDuplicatePropLiveMatchesRecovered sends ticks that repeat a prop
// key ({"p1":true,"p1":false}). The live session (strict decoder) and
// its WAL-recovered copy (replaying the raw frames) must agree with
// each other and with encoding/json's last-key-wins reading.
func TestDuplicatePropLiveMatchesRecovered(t *testing.T) {
	src, err := os.ReadFile("../../specs/fig5_causality.cesc")
	if err != nil {
		t.Fatal(err)
	}
	c, err := parser.ParseChart(string(src))
	if err != nil {
		t.Fatal(err)
	}
	newServer := func(dir string) (*Server, *httptest.Server) {
		s, err := New(Config{Shards: 1, QueueDepth: 8, WALDir: dir, SnapshotEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.LoadSpecSource(string(src)); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(func() {
			ts.Close()
			s.Close()
		})
		return s, ts
	}
	// Each line is one Fig. 5 scenario whose first tick repeats p1; the
	// last value decides whether the scenario can start.
	lines := []string{
		`{"events":["ev1","ev2"],"props":{"p1":true,"p1":false}}`,
		`{}`,
		`{"events":["ev3"],"props":{"p3":true}}`,
		`{"events":["ev1","ev2"],"props":{"p1":false,"p1":true}}`,
		`{}`,
		`{"events":["ev3"],"props":{"p3":true}}`,
	}
	body := []byte(strings.Join(lines, "\n") + "\n")

	dir := t.TempDir()
	s1, ts1 := newServer(dir)
	sess := createSession(t, ts1.URL, "assert", "Fig5Causality")
	doJSON(t, "POST", fmt.Sprintf("%s/sessions/%s/ticks?wait=1", ts1.URL, sess.ID), body, http.StatusOK, nil)
	live := monitorsJSON(t, ts1.URL, sess.ID)
	s1.Crash()
	ts1.Close()
	if kinds := journalKinds(t, dir, sess.ID); kinds[RecordBatchRaw] != 1 {
		t.Fatalf("journal kinds %v, want the batch as one raw frame", kinds)
	}
	_, ts2 := newServer(dir)
	if recovered := monitorsJSON(t, ts2.URL, sess.ID); !bytes.Equal(recovered, live) {
		t.Fatalf("recovered session disagrees with the live one:\n live %s\n recovered %s", live, recovered)
	}

	m, err := synth.Synthesize(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref := monitor.NewEngine(m, nil, monitor.ModeAssert)
	for _, line := range lines {
		var tick StateJSON
		if err := json.Unmarshal([]byte(line), &tick); err != nil {
			t.Fatal(err)
		}
		ref.Step(tick.ToState())
	}
	v := verdictFor(t, ts2.URL, sess.ID, "Fig5Causality")
	if st := ref.Stats(); v.Accepts != st.Accepts || v.Violations != st.Violations || st.Accepts != 1 {
		t.Fatalf("session accepts/violations = %d/%d, reference %d/%d (want exactly one accept)",
			v.Accepts, v.Violations, st.Accepts, st.Violations)
	}
}
