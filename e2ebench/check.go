package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sync"

	"repro/internal/event"
	"repro/internal/monitor"
	"repro/internal/server"
	"repro/internal/synth"
)

// decodeStates parses one NDJSON body the way the daemon's lenient path
// does.
func decodeStates(body []byte) ([]event.State, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	var out []event.State
	for {
		var t server.StateJSON
		if err := dec.Decode(&t); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, err
		}
		out = append(out, t.ToState())
	}
}

// synthesize builds each chart's monitor with the synthesizer alone —
// the reference side of the correctness gate.
func synthesize(t *traffic) (map[string]*monitor.Monitor, error) {
	mons := make(map[string]*monitor.Monitor, len(t.specs))
	for _, sp := range t.specs {
		m, err := synth.Synthesize(sp.chart, nil)
		if err != nil {
			return nil, fmt.Errorf("synthesizing %s: %w", sp.name, err)
		}
		mons[sp.name] = m
	}
	return mons, nil
}

// checkVerdicts is the correctness gate: every session's accept and
// violation counts read from GET /sessions/{id}/verdicts must equal those
// of a reference monitor.NewEngine stepped over exactly the batches the
// daemon acknowledged. A batch whose outcome the client could not know
// may have been applied or not; either reading passes.
func checkVerdicts(r *rig, t *traffic) error {
	mons, err := synthesize(t)
	if err != nil {
		return err
	}
	var (
		mu    sync.Mutex
		first error
		wg    sync.WaitGroup
	)
	fail := func(err error) {
		mu.Lock()
		if first == nil {
			first = err
		}
		mu.Unlock()
	}
	next := make(chan *session)
	for k := 0; k < runtime.NumCPU(); k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range next {
				if err := checkSession(r, s, mons[s.stream.spec]); err != nil {
					fail(err)
				}
			}
		}()
	}
	for _, s := range r.sessions {
		next <- s
	}
	close(next)
	wg.Wait()
	return first
}

func checkSession(r *rig, s *session, mon *monitor.Monitor) error {
	var got server.VerdictsJSON
	if err := r.get(r.nodes[0].url+"/sessions/"+s.id+"/verdicts", &got); err != nil {
		return err
	}
	if len(got.Monitors) != 1 {
		return fmt.Errorf("session %s: %d monitors in verdicts, want 1", s.id, len(got.Monitors))
	}
	mode, err := parseMode(s.stream.mode)
	if err != nil {
		return err
	}
	pool := make([][]event.State, len(s.stream.batches))
	for i, body := range s.stream.batches {
		if pool[i], err = decodeStates(body); err != nil {
			return fmt.Errorf("session %s batch %d: %w", s.id, i, err)
		}
	}
	ref := monitor.NewEngine(mon, nil, mode)
	s.eachApplied(func(idx int) {
		for _, st := range pool[idx] {
			ref.Step(st)
		}
	})
	gm := got.Monitors[0]
	match := func(st monitor.Stats) bool {
		return st.Steps == gm.Steps && st.Accepts == gm.Accepts && st.Violations == gm.Violations
	}
	if st := ref.Stats(); !match(st) {
		if s.ambiguous >= 0 {
			for _, tick := range pool[s.ambiguous] {
				ref.Step(tick)
			}
			if match(ref.Stats()) {
				return nil
			}
		}
		return fmt.Errorf("session %s (%s): daemon steps/accepts/violations %d/%d/%d, reference %d/%d/%d",
			s.id, gm.Spec, gm.Steps, gm.Accepts, gm.Violations, st.Steps, st.Accepts, st.Violations)
	}
	return nil
}

func parseMode(m string) (monitor.Mode, error) {
	switch m {
	case "detect":
		return monitor.ModeDetect, nil
	case "assert":
		return monitor.ModeAssert, nil
	}
	return 0, fmt.Errorf("unknown mode %q", m)
}
