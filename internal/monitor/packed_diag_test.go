package monitor_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/amba"
	"repro/internal/chart"
	"repro/internal/event"
	"repro/internal/monitor"
	"repro/internal/ocp"
	"repro/internal/parser"
	"repro/internal/synth"
)

// TestPackedDiagZeroAllocClean pins the packed diagnostics ring: an
// assert-mode, vocabulary-bound engine with diagnostics armed steps the
// clean protocol traces without allocating — inputs are retained as
// copied words, and maps are built only for violations.
func TestPackedDiagZeroAllocClean(t *testing.T) {
	cases := []struct {
		name  string
		c     chart.Chart
		trace []event.State
	}{
		{"Fig6OCP", ocp.SimpleReadChart(), ocp.NewModel(ocp.Config{Gap: 2, Seed: 1}).GenerateTrace(1024)},
		{"Fig7OCPBurst", ocp.BurstReadChart(), ocp.NewModel(ocp.Config{Gap: 2, Seed: 2, Burst: true}).GenerateTrace(1024)},
		{"Fig8AHB", amba.TransactionChart(), amba.NewModel(amba.Config{Gap: 2, Seed: 3}).GenerateTrace(1024)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cs, err := synth.CompileSpec(tc.c, nil)
			if err != nil {
				t.Fatal(err)
			}
			v := event.NewVocabulary()
			if err := v.DeclareSupport(cs.Support()); err != nil {
				t.Fatal(err)
			}
			eng, err := cs.Program.NewEngineVocab(nil, monitor.ModeAssert, v)
			if err != nil {
				t.Fatal(err)
			}
			eng.EnableDiagnostics(8)
			packed := make([]event.Packed, len(tc.trace))
			for i, s := range tc.trace {
				packed[i] = v.Pack(s)
			}
			for _, in := range packed { // warm the scoreboard and pending list
				eng.StepPacked(in)
			}
			i := 0
			allocs := testing.AllocsPerRun(4*len(packed), func() {
				eng.StepPacked(packed[i%len(packed)])
				i++
			})
			if st := eng.Stats(); st.Violations != 0 || st.Accepts == 0 {
				t.Fatalf("clean trace: %d violations, %d accepts; want 0 and > 0", st.Violations, st.Accepts)
			}
			if allocs != 0 {
				t.Fatalf("diag-armed StepPacked allocates %.3f/tick on clean input, want 0", allocs)
			}
		})
	}
}

// TestCachedGuardStringsMatchDecompile checks the compile-time guard
// renderings against a fresh decompile and the source AST for every
// state and transition of the checked-in specs.
func TestCachedGuardStringsMatchDecompile(t *testing.T) {
	files, err := filepath.Glob("../../specs/*.cesc")
	if err != nil || len(files) == 0 {
		t.Fatalf("no specs found: %v", err)
	}
	guards := 0
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, n := range f.Charts {
			if _, ok := n.Chart.(*chart.Async); ok {
				continue
			}
			m, err := synth.Synthesize(n.Chart, nil)
			if err != nil {
				t.Fatalf("%s: %v", n.Name, err)
			}
			p, err := monitor.CompileProgram(m)
			if err != nil {
				t.Fatalf("%s: %v", n.Name, err)
			}
			for s, ts := range m.Trans {
				for i, tr := range ts {
					got := p.GuardString(s, i)
					if want := p.DecompileGuard(s, i); got != want {
						t.Errorf("%s state %d transition %d: cached %q, decompiled %q", n.Name, s, i, got, want)
					}
					if want := tr.Guard.String(); got != want {
						t.Errorf("%s state %d transition %d: cached %q, source %q", n.Name, s, i, got, want)
					}
					guards++
				}
			}
		}
	}
	if guards == 0 {
		t.Fatal("no guards checked")
	}
}
